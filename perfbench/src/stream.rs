//! `stream-fft` and `ingest-1m`: one `QueryService` per run.
//!
//! Untraced: five set-ups (`QueryService::new` plus the first window of
//! epochs, the first running the cold EM), the last of which goes on
//! into the timed epochs, each followed by the closed-loop reader's
//! bursts. Traced: the same epochs are also driven through the layers
//! one call at a time on a second estimator — report pipeline,
//! retention, EM, pyramid — and the two must publish bit-identical
//! estimates.

use dam_core::Pyramid;
use dam_geo::{Grid2D, Histogram2D, Point};
use dam_stream::{QueryService, StreamConfig, StreamingEstimator};

use crate::report::Metrics;
use crate::{
    at_ref, baseline_note, delivered, fold_bits, grid, retained_mb, same_bits, stats,
    stream_config, timed, trace_overhead_pct, Args, EmLayer, Input, Ledger, Log, Outcome,
    QueryLayer, FNV_SEED, MIN_EPOCHS, SCORED_EPOCHS, WINDOW,
};

/// Set-ups per untraced run (the median is reported).
const SETUP_REPS: usize = 9;

/// The cluster's layers, which a stream workload does not run.
const NOT_RUN: [&str; 15] = [
    "cluster.node.ns_per_report",
    "cluster.close_ms",
    "cluster.polls_per_epoch",
    "cluster.retries",
    "cluster.dup_dropped",
    "cluster.wal_bytes_per_epoch",
    "cluster.checkpoint_bytes",
    "cluster.checkpoint_write_ms",
    "cluster.checkpoint_read_ms",
    "cluster.recover.restore_ms",
    "cluster.recover.replay_entries",
    "ledger.deliver.share",
    "ledger.close.share",
    "ledger.persist.share",
    "ledger.recover.read_share",
];

const LAYERS: [&str; 4] =
    ["ledger.ingest.share", "ledger.retain.share", "ledger.em.share", "ledger.pyramid.share"];

/// The layers of one epoch called one at a time, as
/// `QueryService::ingest_epoch` composes them.
struct Split {
    est: StreamingEstimator,
    scratch: Vec<f64>,
    d: u32,
}

/// What one split epoch produced and how long each layer took (ms).
struct SplitEpoch {
    estimate: Histogram2D,
    em_iters: usize,
    warm: bool,
    quarantined: u64,
    layer_ms: [f64; 4],
    total_ms: f64,
    pyramid: Pyramid,
}

impl Split {
    fn new(grid: Grid2D, config: StreamConfig) -> Self {
        let d = grid.d();
        Self { est: StreamingEstimator::new(grid, config), scratch: Vec::new(), d }
    }

    fn epoch(&mut self, points: &[Point]) -> SplitEpoch {
        let config = *self.est.config();
        let (out, total) = timed(|| {
            let (summary, ingest) = timed(|| {
                let seed = StreamingEstimator::epoch_seed(config.seed, self.est.epochs());
                self.est.client().report_batch_validated_in(
                    points,
                    seed,
                    config.dam.threads,
                    config.policy,
                    &mut self.scratch,
                )
            });
            let (_, retain) = timed(|| self.est.ingest_epoch_plane(&self.scratch, &summary));
            let (window, em) = timed(|| self.est.estimate_window());
            let (pyramid, pyr) = timed(|| Pyramid::from_plane(window.histogram.values(), self.d));
            (window, pyramid, summary.quarantined, [ingest, retain, em, pyr])
        });
        let (window, pyramid, quarantined, secs) = out;
        SplitEpoch {
            estimate: window.histogram,
            em_iters: window.em_iters,
            warm: window.warm,
            quarantined,
            layer_ms: secs.map(|s| s * 1e3),
            total_ms: total * 1e3,
            pyramid,
        }
    }
}

pub(crate) fn run(args: &Args) -> Outcome {
    let start = std::time::Instant::now();
    let spec = args.workload.spec();
    let grid = grid(&spec);
    let config = stream_config(args.seed);
    let mut input = Input::new(args.seed, &spec);
    let baseline = baseline_note();
    let mut log = Log::default();
    let mut out = Outcome::default();

    // Set-up: time from `QueryService::new` to the first full-window
    // snapshot, input generation excluded.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut first_window: Option<Vec<f64>> = None;
    let mut service = None;
    let mut split = args.trace.then(|| Split::new(grid.clone(), config));
    for rep in 0..reps {
        let last = rep + 1 == reps;
        // Each step (the service's construction with the first epoch,
        // then one epoch each) is rescaled by the probes around it.
        let mut before = log.probe();
        let (svc, mut step) = timed(|| QueryService::new(grid.clone(), config));
        let (mut raw, mut rescaled) = (0.0, 0.0);
        for e in 0..WINDOW {
            let points = input.epoch(e, last);
            step += timed(|| svc.ingest_epoch(&points)).1;
            let after = log.probe();
            raw += step;
            rescaled += at_ref(step, before, after);
            (step, before) = (0.0, after);
            if let (true, Some(split)) = (last, split.as_mut()) {
                split.epoch(&points);
            }
        }
        log.setup(rescaled, raw);
        let snap = svc.snapshot();
        log.check_snapshot(&snap, WINDOW);
        match &first_window {
            None => first_window = Some(snap.estimate.values().to_vec()),
            Some(bits) => log.check(same_bits(bits, snap.estimate.values()), || {
                format!("set-up {rep} published a different first window")
            }),
        }
        service = Some(svc);
    }
    let svc = service.expect("at least one set-up");
    let fft = svc.obs().counter_value("em_backend_selected_fft") == 1;
    out.notes.push(format!(
        "{}: d={} eps={} window={WINDOW} users/epoch={} em backend={}",
        args.workload.name(),
        spec.d,
        crate::EPS,
        spec.users,
        if fft { "fft" } else { "stencil" }
    ));

    let epochs =
        if args.trace { (args.timed_epochs() / 2).max(MIN_EPOCHS) } else { args.timed_epochs() };
    let mut ledger = Ledger::new(&LAYERS);
    let mut queries = QueryLayer::default();
    let mut em = EmLayer::default();
    let (mut untraced_ms, mut ns_per_report, mut pyramid_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut quarantined = 0u64;
    let mut estimates = FNV_SEED;
    let mut ok_before = delivered(&svc.snapshot());
    for i in 0..epochs {
        if i >= MIN_EPOCHS && args.overrun(start) {
            break;
        }
        let e = WINDOW + i;
        let scored = i < SCORED_EPOCHS;
        let points = input.epoch(e, scored);
        let before = log.probe();
        let (_, secs) = timed(|| svc.ingest_epoch(&points));
        let snap = svc.snapshot();
        match split.as_mut() {
            None => {
                let after = log.probe();
                let bursts = log.bursts(&svc, args.seed, spec.d, i);
                log.epoch(secs, before, after, points.len(), bursts);
            }
            Some(split) => {
                untraced_ms.push(secs * 1e3);
                log.attempted += 1;
                let s = split.epoch(&points);
                log.check(same_bits(s.estimate.values(), snap.estimate.values()), || {
                    format!("epoch {e}: split layers and QueryService disagree")
                });
                ledger.record(&s.layer_ms, s.total_ms);
                ns_per_report.push(s.layer_ms[0] * 1e6 / points.len() as f64);
                pyramid_us.push(s.layer_ms[3] * 1e3);
                quarantined += s.quarantined;
                em.window(s.em_iters, s.warm, &config);
                queries.measure(&svc, &s.pyramid, args.seed, i);
            }
        }
        log.check_snapshot(&snap, e + 1);
        estimates = fold_bits(estimates, snap.estimate.values());
        if scored {
            let ok = delivered(&snap);
            log.score(i, &snap.estimate, &input.truth(), points.len(), ok - ok_before);
            ok_before = ok;
        }
    }
    out.notes.push(format!("estimate stream fnv1a {estimates:016x}"));
    out.notes.push(baseline);

    let mut metrics = Metrics::default();
    match split {
        None => {
            log.end_to_end(&mut metrics);
            out.notes.extend(log.notes());
        }
        Some(split) => {
            metrics.set("core.ingest.ns_per_report", stats::median(&ns_per_report));
            metrics.set("core.ingest.quarantined", quarantined as f64);
            em.report(&mut metrics, ledger.layer("ledger.em.share"));
            metrics.set("pyramid.build_us", stats::median(&pyramid_us));
            let retain = ledger.layer("ledger.retain.share");
            metrics.set("stream.retain.us_per_epoch", stats::median(retain) * 1e3);
            metrics.set("stream.retain.state_mb", retained_mb(&split.est));
            queries.report(&mut metrics, true);
            metrics.set("transport.w2_ms", stats::median(&log.w2_ms));
            metrics
                .set("obs.trace_overhead_pct", trace_overhead_pct(&ledger.total_ms, &untraced_ms));
            metrics.set("host.ref_ms", stats::median(&log.probe_ms));
            ledger.report(&mut metrics, &mut out.notes);
            metrics.not_run(&NOT_RUN);
        }
    }
    out.fingerprint = log.fingerprint();
    out.metrics = metrics;
    out.attempted = log.attempted;
    out.failed = log.failed;
    out.failures = log.failures;
    out
}
