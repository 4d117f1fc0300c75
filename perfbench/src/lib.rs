//! End-to-end epoch benchmark of the DAM streaming and cluster pipelines,
//! with a per-layer ledger.
//!
//! One process runs one workload through the program's public API
//! (`dam_stream::QueryService`, `dam_cluster::Cluster`) and prints one
//! result line. The untraced run measures what a user sees; the traced
//! run (`--trace 1`) drives the same inputs through the same layers
//! called one by one, timing each call from here, and reports the
//! per-layer ledger. No span lives inside the program.

pub mod report;
pub mod scenario;
pub mod stats;

mod cluster;
mod stream;

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

use dam_core::{DamConfig, Pyramid};
use dam_fault::FaultPlan;
use dam_fo::em::EmParams;
use dam_geo::{BoundingBox, Grid2D, Histogram2D, Point};
use dam_stream::{QueryService, Snapshot, StreamConfig};
use dam_transport::SinkhornParams;

use report::Metrics;
use scenario::{mixed_burst, pool_probe, reader_probe, Query};

/// Privacy budget of every workload.
pub const EPS: f64 = 3.5;
/// Sliding-window length in epochs.
pub const WINDOW: usize = 6;
/// Fewest timed epochs in a run: ten samples past p90.
pub const MIN_EPOCHS: usize = 100;
/// Timed epochs whose accuracy is scored (the first of the run), fixed
/// so accuracy does not depend on `--seconds`.
pub const SCORED_EPOCHS: usize = 100;
/// W₂ is solved on every `W2_STRIDE`-th scored epoch (four solves: one
/// grid Sinkhorn solve takes ~1.3 s at d = 64).
pub const W2_STRIDE: usize = 25;
/// Queries of each kind in one burst (point, three ranges, heatmap): 100
/// queries.
pub const QUERIES_PER_KIND: usize = 20;
/// Reader bursts after each publish (~1.5 ms of queries on the slowest
/// workload): 20 epochs give the 1000 bursts p99 needs.
pub const BURSTS_PER_EPOCH: usize = 50;
/// Every timing is rescaled to a host on which the host probes flanking
/// it read this many ms, their nominal time on a quiet host.
///
/// A shared host's speed is not its own: it flips between a fast state and
/// one about 1.7× slower, for milliseconds or for minutes, and raw epoch
/// medians of one commit moved by up to 35 % between runs. The probes (no
/// program code) slow down with the host, so a timing divided by the
/// probes around it repeats where the raw timing follows the host.
pub const PROBE_REF_MS: f64 = 1.0;
/// Same-kind queries per batch in the traced run's latency split.
const KIND_BATCH: usize = 32;
/// A run stops adding timed epochs (never below [`MIN_EPOCHS`]) once it
/// has taken this many times `--seconds`: a guard for a host running far
/// below its usual speed.
const OVERRUN: f64 = 1.3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamFft,
    Ingest1m,
    DurableCluster,
}

/// A workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Grid cells per side.
    pub d: u32,
    /// Users reporting per epoch.
    pub users: usize,
    /// Whether reports are corrupted by [`scenario::report_faults`].
    pub corrupt: bool,
    /// Timed epochs per second of `--seconds`, set so a run lasts about
    /// that long on a 2 GHz two-core host.
    pub epochs_per_s: f64,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        let all = [Workload::StreamFft, Workload::Ingest1m, Workload::DurableCluster];
        all.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamFft => "stream-fft",
            Workload::Ingest1m => "ingest-1m",
            Workload::DurableCluster => "durable-cluster",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::StreamFft => {
                Spec { d: 64, users: 20_000, corrupt: false, epochs_per_s: 10.0 }
            }
            Workload::Ingest1m => {
                Spec { d: 20, users: 1_000_000, corrupt: true, epochs_per_s: 22.0 }
            }
            // 1M users make a ~30 ms epoch. A shared host stalls the
            // program's threads for a few ms at a time, in some minutes
            // on more than a tenth of the epochs; on the 10 ms epochs of
            // 300k users that moved the run's epoch p90 by 40 %.
            Workload::DurableCluster => {
                Spec { d: 20, users: 1_000_000, corrupt: false, epochs_per_s: 24.0 }
            }
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory for the cluster's checkpoint stores (removed on exit).
    pub scratch: PathBuf,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let get = |flag: &str| -> Result<String, String> {
            let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        let workload =
            Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let scratch = PathBuf::from(get("--scratch")?);
        if argv.len() != 11 {
            return Err(format!("expected 5 flags with values, got {:?}", &argv[1..]));
        }
        Ok(Self { workload, seed, seconds, trace, scratch })
    }

    /// Timed epochs of an untraced run: `--seconds` at the workload's
    /// nominal rate, never fewer than [`MIN_EPOCHS`].
    pub fn timed_epochs(&self) -> usize {
        let n = (self.seconds as f64 * self.workload.spec().epochs_per_s) as usize;
        n.max(MIN_EPOCHS)
    }

    /// Whether a run started at `start` is past its time guard.
    pub fn overrun(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() > OVERRUN * self.seconds as f64
    }
}

/// The cold protocol the first window runs: 150 EM iterations.
pub fn cold_em() -> EmParams {
    EmParams { max_iters: 150, rel_tol: 1e-9, gain_tol: 1e-7 }
}

/// The pipeline configuration every workload shares (ε = 3.5, window 6,
/// the program's default backend choice and thread budget).
pub fn stream_config(seed: u64) -> StreamConfig {
    let dam = DamConfig { em: cold_em(), ..DamConfig::dam(EPS) };
    StreamConfig::new(dam, WINDOW, seed ^ 0x5EED_0000_0000_0001)
}

pub fn grid(spec: &Spec) -> Grid2D {
    Grid2D::new(BoundingBox::unit(), spec.d)
}

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Accuracy bits that must repeat across runs of one seed.
    pub fingerprint: String,
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::StreamFft | Workload::Ingest1m => stream::run(args),
        Workload::DurableCluster => cluster::run(args),
    }
}

/// Seconds `f` took, with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// A memory line of `/proc/self/status`, MiB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The harness's own share of `peak_rss_mb`: resident memory once the
/// inputs are generated, before the program is built.
pub(crate) fn baseline_note() -> String {
    format!("harness rss before the program is built {:.1} MiB", status_mb("VmRSS:").unwrap_or(0.0))
}

/// FNV-1a over the bit patterns of `values`, folded into `h`.
pub(crate) fn fold_bits(mut h: u64, values: &[f64]) -> u64 {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
pub(crate) const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Epoch inputs plus the true histogram of the sliding window.
pub(crate) struct Input {
    population: scenario::Population,
    grid: Grid2D,
    faults: Option<FaultPlan>,
    /// True per-epoch cell counts of the last `WINDOW` scored epochs.
    truth: VecDeque<Vec<f64>>,
}

impl Input {
    pub(crate) fn new(seed: u64, spec: &Spec) -> Self {
        Self {
            population: scenario::Population::new(seed, spec.users),
            grid: grid(spec),
            faults: spec.corrupt.then(scenario::report_faults),
            truth: VecDeque::new(),
        }
    }

    /// Epoch `epoch`'s reports as submitted (corrupted when the workload
    /// injects report faults). With `score`, the clean locations also
    /// enter the true window.
    pub(crate) fn epoch(&mut self, epoch: usize, score: bool) -> Vec<Point> {
        let mut points = self.population.epoch(epoch);
        if score {
            let counts = Histogram2D::from_points(self.grid.clone(), &points);
            self.truth.push_back(counts.values().to_vec());
            while self.truth.len() > WINDOW {
                self.truth.pop_front();
            }
        }
        if let Some(plan) = &self.faults {
            plan.corrupt_points(epoch, &mut points);
        }
        points
    }

    /// The normalized true histogram of the current window.
    pub(crate) fn truth(&self) -> Histogram2D {
        let mut sum = vec![0.0; self.grid.n_cells()];
        for plane in &self.truth {
            for (acc, v) in sum.iter_mut().zip(plane) {
                *acc += v;
            }
        }
        Histogram2D::from_values(self.grid.clone(), sum).normalized()
    }

    pub(crate) fn truth_state(&self) -> VecDeque<Vec<f64>> {
        self.truth.clone()
    }

    pub(crate) fn set_truth_state(&mut self, truth: VecDeque<Vec<f64>>) {
        self.truth = truth;
    }
}

/// Something a reader can query: the service, or a published pyramid.
pub(crate) trait Answer {
    fn answer(&self, q: Query) -> f64;
}

impl Answer for QueryService {
    fn answer(&self, q: Query) -> f64 {
        match q {
            Query::Point { x, y } => self.point(x, y),
            Query::Range { x0, y0, x1, y1 } => self.range(x0, y0, x1, y1),
            Query::Heatmap { side } => first(std::hint::black_box(self.heatmap(side))),
        }
    }
}

impl Answer for Pyramid {
    fn answer(&self, q: Query) -> f64 {
        match q {
            Query::Point { x, y } => self.cell(x, y),
            Query::Range { x0, y0, x1, y1 } => self.range_sum(x0, y0, x1, y1),
            Query::Heatmap { side } => first(std::hint::black_box(
                self.level_for_side(side).map(|lv| lv.values().to_vec()),
            )),
        }
    }
}

fn first(heatmap: Option<Vec<f64>>) -> f64 {
    heatmap.and_then(|h| h.first().copied()).unwrap_or(f64::NAN)
}

/// `secs` rescaled to [`PROBE_REF_MS`] by the host probes read just
/// before and just after it (ms).
pub(crate) fn at_ref(secs: f64, before: f64, after: f64) -> f64 {
    secs * 2.0 * PROBE_REF_MS / (before + after)
}

/// One timed epoch of the untraced run and the reader bursts after it,
/// rescaled by [`at_ref`].
#[derive(Debug)]
struct Timed {
    epoch_ms: f64,
    raw_ms: f64,
    reports: u64,
    /// Per-query µs of each burst (bursts are of equal size).
    burst_us: Vec<f64>,
}

/// Samples of the untraced run and the output checks.
#[derive(Debug, Default)]
pub(crate) struct Log {
    /// `(rescaled, raw)` seconds per set-up.
    setups: Vec<(f64, f64)>,
    timed: Vec<Timed>,
    /// Pool probe times (ms): around epochs and set-up steps.
    pub probe_ms: Vec<f64>,
    /// Reader probe times (ms): around the reader's bursts.
    reader_ms: Vec<f64>,
    tv: Vec<f64>,
    w2: Vec<f64>,
    pub w2_ms: Vec<f64>,
    /// Reports submitted / delivered into a published window over the
    /// scored epochs.
    submitted: u64,
    delivered: u64,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    sink: f64,
}

impl Log {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Host-speed control of the program's thread pool, outside every
    /// timed span; returns its ms.
    pub(crate) fn probe(&mut self) -> f64 {
        let (sum, secs) = timed(pool_probe);
        self.sink += sum;
        self.probe_ms.push(secs * 1e3);
        secs * 1e3
    }

    /// Host-speed control of the reader's thread; returns its ms.
    fn probe_reader(&mut self) -> f64 {
        let (sum, secs) = timed(reader_probe);
        self.sink += sum;
        self.reader_ms.push(secs * 1e3);
        secs * 1e3
    }

    /// One set-up: its rescaled and raw seconds.
    pub(crate) fn setup(&mut self, rescaled: f64, raw: f64) {
        self.setups.push((rescaled, raw));
        self.attempted += 1;
    }

    /// One timed epoch close of `secs` and `reports` submitted reports
    /// between probes reading `before` and `after`, followed by the
    /// reader's `bursts` (from [`Log::bursts`]).
    pub(crate) fn epoch(
        &mut self,
        secs: f64,
        before: f64,
        after: f64,
        reports: usize,
        bursts: Vec<f64>,
    ) {
        self.attempted += 1 + (bursts.len() * QUERIES_PER_KIND * 5) as u64;
        self.timed.push(Timed {
            epoch_ms: at_ref(secs, before, after) * 1e3,
            raw_ms: secs * 1e3,
            reports: reports as u64,
            burst_us: bursts,
        });
    }

    /// Every published snapshot: finite, mass 1, at the expected epoch.
    pub(crate) fn check_snapshot(&mut self, snap: &Snapshot, epoch: usize) {
        let values = snap.estimate.values();
        let mass: f64 = values.iter().sum();
        let finite = values.iter().all(|v| v.is_finite());
        self.check(finite && (mass - 1.0).abs() <= 1e-9, || {
            format!("snapshot {epoch}: finite {finite}, mass {mass}")
        });
        self.check(snap.epoch == epoch, || {
            format!("snapshot epoch {} where {epoch} was due", snap.epoch)
        });
    }

    /// Accuracy of scored epoch `i` against the true window, and the
    /// reports it delivered. Outside every timed span.
    pub(crate) fn score(
        &mut self,
        i: usize,
        estimate: &Histogram2D,
        truth: &Histogram2D,
        submitted: usize,
        delivered: u64,
    ) {
        self.tv.push(estimate.tv_distance(truth));
        if i.is_multiple_of(W2_STRIDE) {
            let (w2, secs) = timed(|| {
                dam_transport::metrics::w2_grid_sinkhorn(estimate, truth, SinkhornParams::default())
            });
            match w2 {
                Ok(w2) => {
                    self.w2.push(w2);
                    self.w2_ms.push(secs * 1e3);
                }
                Err(e) => self.failures.push(format!("w2 at scored epoch {i}: {e}")),
            }
        }
        self.submitted += submitted as u64;
        self.delivered += delivered;
    }

    /// The closed-loop reader's [`BURSTS_PER_EPOCH`] bursts after the
    /// publish of timed epoch `epoch` (each generated untimed, then
    /// sent), between two reader probes; per-query µs of each,
    /// rescaled by [`at_ref`].
    pub(crate) fn bursts(
        &mut self,
        target: &impl Answer,
        seed: u64,
        d: u32,
        epoch: usize,
    ) -> Vec<f64> {
        let mut row = Vec::with_capacity(BURSTS_PER_EPOCH);
        let before = self.probe_reader();
        for b in 0..BURSTS_PER_EPOCH {
            let burst = mixed_burst(seed, epoch * BURSTS_PER_EPOCH + b, d, QUERIES_PER_KIND);
            let (sum, secs) = timed(|| burst.iter().map(|&q| target.answer(q)).sum::<f64>());
            self.sink += sum;
            row.push(secs * 1e6 / burst.len() as f64);
        }
        let after = self.probe_reader();
        row.iter().map(|&us| at_ref(us, before, after)).collect()
    }

    pub(crate) fn delivered_share(&self) -> f64 {
        self.delivered as f64 / self.submitted.max(1) as f64
    }

    /// Accuracy bits that must repeat across runs of one seed.
    pub(crate) fn fingerprint(&self) -> String {
        format!(
            "window_tv={:016x} window_w2={:016x} delivered_share={:016x}",
            stats::mean(&self.tv).to_bits(),
            stats::mean(&self.w2).to_bits(),
            self.delivered_share().to_bits()
        )
    }

    /// The end-to-end metrics of an untraced run, every timing rescaled
    /// by [`at_ref`].
    pub(crate) fn end_to_end(&mut self, metrics: &mut Metrics) {
        let epoch_ms: Vec<f64> = self.timed.iter().map(|t| t.epoch_ms).collect();
        let bursts: Vec<f64> = self.timed.iter().flat_map(|t| t.burst_us.iter().copied()).collect();
        let setup_s: Vec<f64> = self.setups.iter().map(|s| s.0).collect();
        let reports: u64 = self.timed.iter().map(|t| t.reports).sum();
        let pct = |xs: &[f64], p: f64, failures: &mut Vec<String>| {
            stats::percentile(xs, p).unwrap_or_else(|e| {
                failures.push(e.to_string());
                f64::NAN
            })
        };
        let q99 = pct(&bursts, 0.99, &mut self.failures);
        // A burst is ~20-50 µs of queries, so one preemption of a few ms
        // outweighs a thousand bursts: throughput is taken over the
        // bursts up to p99, which is reported on its own.
        let kept: Vec<f64> = bursts.iter().copied().filter(|&b| b <= q99).collect();
        metrics.set("setup_s", stats::median(&setup_s));
        metrics.set("epoch_ms_p50", pct(&epoch_ms, 0.5, &mut self.failures));
        metrics.set("epoch_ms_p90", pct(&epoch_ms, 0.9, &mut self.failures));
        metrics.set("reports_per_s", reports as f64 * 1e3 / epoch_ms.iter().sum::<f64>());
        metrics.set("queries_per_s", 1e6 / stats::mean(&kept));
        metrics.set("query_us_p50", pct(&bursts, 0.5, &mut self.failures));
        metrics.set("query_us_p99", q99);
        metrics.set("window_tv", stats::mean(&self.tv));
        metrics.set("window_w2", stats::mean(&self.w2));
        metrics.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
        metrics.set("delivered_share", self.delivered_share());
        self.check(self.sink.is_finite(), || "query answers are not finite".into());
    }

    /// Lines describing the run beyond the result metrics.
    pub(crate) fn notes(&self) -> Vec<String> {
        let raw_ms: Vec<f64> = self.timed.iter().map(|t| t.raw_ms).collect();
        let raw_setup: Vec<f64> = self.setups.iter().map(|s| s.1).collect();
        vec![
            format!(
                "host probes: pool {:.4} ms (median of {}), reader {:.4} ms (median of {}); \
                 timings are rescaled to {PROBE_REF_MS} ms",
                stats::median(&self.probe_ms),
                self.probe_ms.len(),
                stats::median(&self.reader_ms),
                self.reader_ms.len()
            ),
            format!(
                "raw wall time: epoch p50 {:.4} ms over {} epochs, set-up median {:.4} s of {}",
                stats::median(&raw_ms),
                raw_ms.len(),
                stats::median(&raw_setup),
                raw_setup.len()
            ),
            format!("failed_share {:.6}", 1.0 - self.delivered_share()),
        ]
    }
}

/// Self time per layer, per traced epoch, in milliseconds.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// `(share metric, per-epoch ms)` in pipeline order.
    pub layers: Vec<(&'static str, Vec<f64>)>,
    /// Whole traced epochs, ms.
    pub total_ms: Vec<f64>,
}

impl Ledger {
    pub(crate) fn new(layers: &[&'static str]) -> Self {
        Self { layers: layers.iter().map(|&n| (n, Vec::new())).collect(), total_ms: Vec::new() }
    }

    pub(crate) fn record(&mut self, layer_ms: &[f64], total_ms: f64) {
        for ((_, xs), &v) in self.layers.iter_mut().zip(layer_ms) {
            xs.push(v);
        }
        self.total_ms.push(total_ms);
    }

    pub(crate) fn layer(&self, name: &str) -> &[f64] {
        self.layers.iter().find(|(n, _)| *n == name).map_or(&[], |(_, xs)| xs)
    }

    /// Each layer's share of the summed traced epoch time, plus the
    /// residual; shares and residual add to 1 by construction.
    pub(crate) fn report(&self, metrics: &mut Metrics, notes: &mut Vec<String>) {
        let total: f64 = self.total_ms.iter().sum();
        let mut covered = 0.0;
        let epochs = self.total_ms.len().max(1) as f64;
        notes.push(format!("ledger over {epochs} traced epochs, mean {:.4} ms:", total / epochs));
        let mut row = |name: &'static str, sum: f64| {
            metrics.set(name, sum / total);
            notes.push(format!(
                "  {name:<24} {:>8.4} ms  {:>6.2} %",
                sum / epochs,
                100.0 * sum / total
            ));
        };
        for (name, xs) in &self.layers {
            let sum: f64 = xs.iter().sum();
            covered += sum;
            row(name, sum);
        }
        row("ledger.residual.share", total - covered);
        metrics.set("ledger.epoch_ms", stats::mean(&self.total_ms));
    }
}

/// Per-kind query latencies of the traced run.
#[derive(Debug, Default)]
pub(crate) struct QueryLayer {
    point_ns: Vec<f64>,
    range_ns: Vec<f64>,
    heatmap_ns: Vec<f64>,
    pyramid_range_ns: Vec<f64>,
    cover_nodes: Vec<f64>,
    sink: f64,
}

impl QueryLayer {
    /// One same-kind batch per kind against `target`, plus the same
    /// ranges straight on `pyramid` (the read path's own cost).
    pub(crate) fn measure(
        &mut self,
        target: &impl Answer,
        pyramid: &Pyramid,
        seed: u64,
        epoch: usize,
    ) {
        let d = pyramid.d();
        let mut batch_ns = |qs: &[Query], on: &dyn Fn(Query) -> f64| {
            let (sum, secs) = timed(|| qs.iter().map(|&q| on(q)).sum::<f64>());
            self.sink += sum;
            secs * 1e9 / qs.len() as f64
        };
        let ranges = scenario::kind_batch(seed, epoch, d, 1, KIND_BATCH);
        let points = scenario::kind_batch(seed, epoch, d, 0, KIND_BATCH);
        let heatmaps = scenario::kind_batch(seed, epoch, d, 2, KIND_BATCH);
        let p = batch_ns(&points, &|q| target.answer(q));
        let r = batch_ns(&ranges, &|q| target.answer(q));
        let h = batch_ns(&heatmaps, &|q| target.answer(q));
        let pr = batch_ns(&ranges, &|q| pyramid.answer(q));
        self.point_ns.push(p);
        self.range_ns.push(r);
        self.heatmap_ns.push(h);
        self.pyramid_range_ns.push(pr);
        for q in &ranges {
            if let Query::Range { x0, y0, x1, y1 } = *q {
                self.cover_nodes.push(pyramid.range_sum_counted(x0, y0, x1, y1).1 as f64);
            }
        }
    }

    /// `obs_tax` is the service's range call minus the bare pyramid's.
    pub(crate) fn report(&self, metrics: &mut Metrics, obs_tax: bool) {
        let range = stats::median(&self.range_ns);
        metrics.set("query.point_ns", stats::median(&self.point_ns));
        metrics.set("query.range_ns", range);
        metrics.set("query.heatmap_ns", stats::median(&self.heatmap_ns));
        metrics.set("query.cover_nodes_mean", stats::mean(&self.cover_nodes));
        if obs_tax {
            metrics.set("query.obs_tax_ns", range - stats::median(&self.pyramid_range_ns));
        }
        std::hint::black_box(self.sink);
    }
}

/// EM accounting read off published snapshots.
#[derive(Debug, Default)]
pub(crate) struct EmLayer {
    pub iters: Vec<f64>,
    pub cap_hits: usize,
}

impl EmLayer {
    pub(crate) fn window(&mut self, iters: usize, warm: bool, config: &StreamConfig) {
        let cap = if warm { config.warm_em.max_iters } else { config.dam.em.max_iters };
        self.iters.push(iters as f64);
        self.cap_hits += usize::from(iters >= cap);
    }

    pub(crate) fn report(&self, metrics: &mut Metrics, em_ms: &[f64]) {
        let iters: f64 = self.iters.iter().sum();
        metrics.set("em.iters_per_window", stats::mean(&self.iters));
        metrics.set("em.cap_hit_share", self.cap_hits as f64 / self.iters.len().max(1) as f64);
        if !em_ms.is_empty() {
            metrics.set("em.ms_per_window", stats::median(em_ms));
            metrics.set("em.us_per_iter", em_ms.iter().sum::<f64>() * 1e3 / iters.max(1.0));
        }
    }
}

/// Retained epoch-plane memory of an estimator's count tree, MiB:
/// level-0 planes the tree still holds.
pub(crate) fn retained_mb(est: &dam_stream::StreamingEstimator) -> f64 {
    let tree = est.tree();
    let leaves = (0..tree.len()).filter(|&t| tree.epoch_plane(t).is_some()).count();
    (leaves * tree.n_cells() * 8) as f64 / (1024.0 * 1024.0)
}

/// Trace overhead: traced minus untraced epoch p50, percent.
pub(crate) fn trace_overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    let (t, u) = (stats::median(traced_ms), stats::median(untraced_ms));
    100.0 * (t - u) / u
}

/// Reports a snapshot counts as delivered into published windows: seen
/// minus quarantined (a node whose plane missed a close was never seen).
pub(crate) fn delivered(snap: &Snapshot) -> u64 {
    snap.health.ingest.seen - snap.health.ingest.quarantined
}

/// Whether two estimates are bit-identical.
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
