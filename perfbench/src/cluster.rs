//! `durable-cluster`: a K = 4 node `Cluster` persisting to a checkpoint
//! store, recovered from a coordinator crash at the start of every pass.
//!
//! An untimed history of [`HISTORY`] epochs ends in a crash between
//! checkpoints, leaving a checkpoint plus a WAL tail in the store. Each
//! pass copies that crash state into a live store, recovers
//! (`Cluster::with_store`: checkpoint restore, WAL replay, republish —
//! the set-up), and closes [`PASS_EPOCHS`] timed epochs under the node
//! fault plan. Every pass must publish the same estimates. The traced
//! run also drives a second, separately recovered cluster assembled from
//! its parts — K × `AggregatorNode::ingest_epoch`, then
//! `SimTransport::begin_epoch`, then `Coordinator::close_epoch` — and
//! times the two layers that run inside the close from outside: retention,
//! by appending each closed epoch plane to a shadow estimator holding the
//! same history, and persistence, by replaying the pass's own WAL and
//! checkpoint through a scratch store.

use std::path::{Path, PathBuf};

use dam_cluster::{
    AggregatorNode, CheckpointError, CheckpointStore, Cluster, ClusterConfig, Coordinator,
    SimTransport,
};
use dam_core::validate::IngestSummary;
use dam_core::Pyramid;
use dam_geo::{Grid2D, Point};
use dam_stream::{PipelineHealth, StreamConfig, StreamingEstimator};

use crate::report::Metrics;
use crate::scenario::node_faults;
use crate::{
    at_ref, baseline_note, delivered, fold_bits, grid, retained_mb, same_bits, stats,
    stream_config, timed, trace_overhead_pct, Answer, Args, EmLayer, Input, Ledger, Log, Outcome,
    QueryLayer, FNV_SEED, SCORED_EPOCHS, WINDOW,
};

/// Aggregator nodes (majority quorum: 3).
const NODES: usize = 4;
/// Epochs closed before the coordinator crashes.
const HISTORY: usize = 240;
/// Full checkpoint cadence; the crash at [`HISTORY`] leaves
/// `HISTORY % CHECKPOINT_EVERY` WAL entries to replay.
const CHECKPOINT_EVERY: usize = 32;
/// Timed epochs per pass.
const PASS_EPOCHS: usize = 200;
/// Recoveries per untraced pass (the last one continues).
const RECOVERY_REPS: usize = 3;
/// Repetitions of each timed persistence call in the traced replay.
const PERSIST_REPS: usize = 5;

const LAYERS: [&str; 5] = [
    "ledger.ingest.share",
    "ledger.deliver.share",
    "ledger.close.share",
    "ledger.retain.share",
    "ledger.persist.share",
];
const CLOSE: usize = 2;
const PERSIST: usize = 4;

/// Layers this workload cannot time apart: EM and the pyramid run inside
/// `Coordinator::close_epoch` (their cost stays in the close layer), and
/// readers query the coordinator's pyramid, not a `QueryService`.
const NOT_RUN: [&str; 5] = [
    "em.ms_per_window",
    "em.us_per_iter",
    "ledger.em.share",
    "ledger.pyramid.share",
    "query.obs_tax_ns",
];

/// Reads the coordinator's published snapshot once per query, as a
/// dashboard would.
struct Reader<'a>(&'a Coordinator);

impl Answer for Reader<'_> {
    fn answer(&self, q: crate::scenario::Query) -> f64 {
        self.0.snapshot().pyramid.answer(q)
    }
}

/// Copies the crash state into a fresh live directory.
fn revive_dir(crash: &CheckpointStore, live: &Path) -> Result<CheckpointStore, CheckpointError> {
    if live.exists() {
        std::fs::remove_dir_all(live)?;
    }
    let store = CheckpointStore::new(live)?;
    for (from, to) in
        [(crash.checkpoint_path(), store.checkpoint_path()), (crash.wal_path(), store.wal_path())]
    {
        std::fs::copy(from, to)?;
    }
    Ok(store)
}

/// The cluster assembled from its parts, as `Cluster::ingest_epoch`
/// composes them.
struct Split {
    nodes: Vec<AggregatorNode>,
    transport: SimTransport,
    coord: Coordinator,
    /// See [`shadow`].
    shadow: StreamingEstimator,
    seed: u64,
}

impl Split {
    /// The recovered cluster, with the seconds the recovery took (the
    /// shadow estimator is built after, untimed).
    fn recover(
        grid: &Grid2D,
        config: StreamConfig,
        cluster: ClusterConfig,
        store: CheckpointStore,
    ) -> Result<(Self, f64), CheckpointError> {
        let (parts, secs) = timed(|| -> Result<_, CheckpointError> {
            let coord =
                Coordinator::with_store(grid.clone(), config, cluster, store, CHECKPOINT_EVERY)?;
            let nodes: Vec<AggregatorNode> = (0..NODES)
                .map(|n| {
                    let dam = &config.dam;
                    AggregatorNode::new(
                        grid.clone(),
                        dam,
                        config.policy,
                        n,
                        NODES,
                        cluster.partition_seed,
                    )
                })
                .collect();
            Ok((coord, nodes, SimTransport::new(NODES, node_faults())))
        });
        let (coord, nodes, transport) = parts?;
        let shadow = shadow(grid, config, coord.estimator());
        Ok((Self { nodes, transport, coord, shadow, seed: config.seed }, secs))
    }

    /// Retention of closed epoch `epoch`, ms: its plane appended to the
    /// shadow estimator (untimed copy first).
    fn retain_ms(&mut self, epoch: usize) -> f64 {
        let Some(plane) = self.coord.estimator().tree().epoch_plane(epoch).map(<[f64]>::to_vec)
        else {
            return 0.0;
        };
        let summary = IngestSummary::default();
        timed(|| self.shadow.ingest_epoch_plane(&plane, &summary)).1 * 1e3
    }

    /// One epoch; returns per-layer ms (node ingest, delivery, close)
    /// and the total, with the reports the nodes quarantined.
    fn epoch(&mut self, points: &[Point]) -> Result<([f64; 3], f64, u64), CheckpointError> {
        let epoch = self.coord.next_epoch();
        let seed = StreamingEstimator::epoch_seed(self.seed, epoch);
        let (out, total) = timed(|| {
            let (planes, ingest) = timed(|| {
                let transport = &self.transport;
                self.nodes
                    .iter_mut()
                    .enumerate()
                    .map(|(n, node)| {
                        (!transport.node_down(n, epoch))
                            .then(|| node.ingest_epoch(epoch, seed, points))
                    })
                    .collect::<Vec<_>>()
            });
            let quarantined = planes.iter().flatten().map(|p| p.summary.quarantined).sum::<u64>();
            let (_, deliver) = timed(|| self.transport.begin_epoch(epoch, planes));
            let (closed, close) = timed(|| self.coord.close_epoch(&mut self.transport));
            closed.map(|_| ([ingest, deliver, close], quarantined))
        });
        let (secs, quarantined) = out?;
        Ok((secs.map(|s| s * 1e3), total * 1e3, quarantined))
    }
}

/// A fresh estimator holding the same epoch planes as `est` (a plane no
/// longer retained is restored as zeros), so appending the coordinator's
/// next plane to it times retention at the coordinator's history length.
fn shadow(grid: &Grid2D, config: StreamConfig, est: &StreamingEstimator) -> StreamingEstimator {
    let tree = est.tree();
    let zero = vec![0.0; tree.n_cells()];
    let planes: Vec<Vec<f64>> =
        (0..tree.len()).map(|t| tree.epoch_plane(t).unwrap_or(&zero).to_vec()).collect();
    let mut shadow = StreamingEstimator::new(grid.clone(), config);
    shadow.restore(&planes, 0, PipelineHealth::default(), None);
    shadow
}

/// Persistence timings replayed from a pass's own store.
#[derive(Debug, Default)]
struct Persist {
    wal_ms: Vec<f64>,
    wal_bytes: Vec<f64>,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    checkpoint_bytes: f64,
}

impl Persist {
    fn replay(&mut self, from: &CheckpointStore, scratch: &Path) -> Result<(), CheckpointError> {
        let wal = from.read_wal()?;
        let state = from
            .read_checkpoint()?
            .ok_or(CheckpointError::Corrupt { detail: "pass ended without a checkpoint".into() })?;
        let to = CheckpointStore::new(scratch)?;
        to.wipe()?;
        for entry in &wal {
            let (bytes, secs) = timed(|| to.append_wal(entry));
            self.wal_bytes.push(bytes? as f64);
            self.wal_ms.push(secs * 1e3);
        }
        for _ in 0..PERSIST_REPS {
            let (bytes, secs) = timed(|| to.write_checkpoint(&state));
            self.checkpoint_bytes = bytes? as f64;
            self.write_ms.push(secs * 1e3);
            let (read, secs) = timed(|| to.read_checkpoint());
            if read?.as_ref() != Some(&state) {
                return Err(CheckpointError::Corrupt {
                    detail: "checkpoint did not round-trip".into(),
                });
            }
            self.read_ms.push(secs * 1e3);
        }
        Ok(())
    }

    /// Persistence per epoch, ms: one WAL append plus a checkpoint
    /// write every `CHECKPOINT_EVERY` epochs.
    fn per_epoch_ms(&self) -> f64 {
        stats::median(&self.wal_ms) + stats::median(&self.write_ms) / CHECKPOINT_EVERY as f64
    }
}

pub(crate) fn run(args: &Args) -> Outcome {
    match try_run(args) {
        Ok(out) => out,
        Err(e) => {
            Outcome { failures: vec![format!("checkpoint store: {e}")], ..Outcome::default() }
        }
    }
}

fn try_run(args: &Args) -> Result<Outcome, CheckpointError> {
    let start = std::time::Instant::now();
    let spec = args.workload.spec();
    let grid = grid(&spec);
    let config = stream_config(args.seed);
    let cluster = ClusterConfig::new(NODES);
    let plan = node_faults();
    let mut input = Input::new(args.seed, &spec);
    let baseline = baseline_note();
    let mut log = Log::default();
    let mut out = Outcome::default();
    let dir = |name: &str| -> PathBuf { args.scratch.join(name) };

    // Untimed history ending in a crash between checkpoints.
    let crash = CheckpointStore::new(dir("crash"))?;
    crash.wipe()?;
    {
        let mut history = Cluster::with_store(
            grid.clone(),
            config,
            cluster,
            plan,
            crash.clone(),
            CHECKPOINT_EVERY,
        )?;
        for e in 0..HISTORY {
            history.ingest_epoch(&input.epoch(e, e + WINDOW >= HISTORY))?;
        }
    }
    let truth_at_crash = input.truth_state();
    let replay_entries = HISTORY - crash.read_checkpoint()?.map_or(0, |s| s.planes.len());
    out.notes.push(format!(
        "durable-cluster: d={} eps={} K={NODES} quorum={} users/epoch={} history={HISTORY} \
         checkpoint every {CHECKPOINT_EVERY}, {replay_entries} WAL entries to replay; faults {}",
        spec.d,
        crate::EPS,
        cluster.quorum,
        spec.users,
        plan.spec()
    ));

    let untraced_passes =
        (args.timed_epochs() as f64 / PASS_EPOCHS as f64).round().max(1.0) as usize;
    let passes = if args.trace { untraced_passes.div_ceil(2) } else { untraced_passes };
    let mut ledger = Ledger::new(&LAYERS);
    let mut queries = QueryLayer::default();
    let mut em = EmLayer::default();
    let mut persist = Persist::default();
    let (mut untraced_ms, mut node_ns, mut pyramid_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut close_calls = Vec::new();
    let (mut read_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let (mut quarantined, mut polls, mut retries, mut dups, mut state_mb) =
        (0u64, 0u64, 0u64, 0u64, 0.0);
    let mut first_pass: Option<u64> = None;
    for pass in 0..passes {
        if pass > 0 && args.overrun(start) {
            break;
        }
        // Set-up: recovery from the crash state.
        let reps = if args.trace { 1 } else { RECOVERY_REPS };
        let mut live = None;
        for _ in 0..reps {
            let store = revive_dir(&crash, &dir("live"))?;
            let before = log.probe();
            let (c, secs) = timed(|| {
                Cluster::with_store(grid.clone(), config, cluster, plan, store, CHECKPOINT_EVERY)
            });
            let after = log.probe();
            let c = c?;
            log.setup(at_ref(secs, before, after), secs);
            let snap = c.coordinator().snapshot();
            log.check(snap.epoch == HISTORY, || {
                format!("recovered snapshot at epoch {} after a history of {HISTORY}", snap.epoch)
            });
            log.check_snapshot(&snap, HISTORY);
            live = Some(c);
        }
        let mut live = live.expect("at least one recovery");
        let mut split = None;
        if args.trace {
            let store = revive_dir(&crash, &dir("split"))?;
            let (_, read) = timed(|| store.read_checkpoint());
            let (s, total) = Split::recover(&grid, config, cluster, store)?;
            read_ms.push(read * 1e3);
            restore_ms.push((total - read) * 1e3);
            split = Some(s);
        }

        input.set_truth_state(truth_at_crash.clone());
        let scoring = pass == 0;
        let mut estimates = FNV_SEED;
        let mut ok_before = delivered(&live.coordinator().snapshot());
        let stats_before = *live.coordinator().stats();
        let polls_before =
            split.as_ref().map_or(0, |s| s.coord.estimator().obs().counter_value("coord_polls"));
        for i in 0..PASS_EPOCHS {
            let e = HISTORY + i;
            let scored = scoring && i < SCORED_EPOCHS;
            let points = input.epoch(e, scored);
            let before = log.probe();
            let (closed, secs) = timed(|| live.ingest_epoch(&points));
            let snap = match closed {
                Ok(outcome) => outcome.snapshot,
                Err(err) => {
                    log.failed += 1;
                    log.failures.push(format!("epoch {e}: {err}"));
                    continue;
                }
            };
            let coord = live.coordinator();
            match split.as_mut() {
                None => {
                    let after = log.probe();
                    let bursts = log.bursts(&Reader(coord), args.seed, spec.d, i);
                    log.epoch(secs, before, after, points.len(), bursts);
                }
                Some(split) => {
                    untraced_ms.push(secs * 1e3);
                    log.attempted += 1;
                    let (layer_ms, total_ms, q) = split.epoch(&points)?;
                    let s = split.coord.snapshot();
                    log.check(same_bits(s.estimate.values(), snap.estimate.values()), || {
                        format!("epoch {e}: split cluster and Cluster disagree")
                    });
                    // Retention runs inside the close; its shadow cost
                    // moves from the close layer into its own.
                    let retain_ms = split.retain_ms(e);
                    let [ingest, deliver, close] = layer_ms;
                    ledger.record(&[ingest, deliver, close - retain_ms, retain_ms, 0.0], total_ms);
                    close_calls.push(close);
                    node_ns.push(ingest * 1e6 / points.len() as f64);
                    quarantined += q;
                    em.window(s.em_iters, s.warm, &config);
                    let (_, build) = timed(|| Pyramid::from_plane(s.estimate.values(), spec.d));
                    pyramid_us.push(build * 1e6);
                    queries.measure(&Reader(&split.coord), &s.pyramid, args.seed, i);
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
        match first_pass {
            None => first_pass = Some(estimates),
            Some(h) => {
                log.check(h == estimates, || format!("pass {pass} published different estimates"))
            }
        }
        if let Some(split) = &split {
            let after = *split.coord.stats();
            polls += split.coord.estimator().obs().counter_value("coord_polls") - polls_before;
            retries += after.retries - stats_before.retries;
            dups += after.dup_dropped - stats_before.dup_dropped;
            state_mb = retained_mb(split.coord.estimator());
            let store = CheckpointStore::new(dir("split"))?;
            persist.replay(&store, &dir("persist"))?;
        }
    }
    out.notes.push(format!("estimate stream fnv1a {:016x}", first_pass.unwrap_or(0)));
    out.notes.push(baseline);

    let mut metrics = Metrics::default();
    if args.trace {
        // Persistence runs inside `close_epoch`; its replayed cost moves
        // from the close layer into its own.
        let persist_ms = persist.per_epoch_ms();
        for ms in &mut ledger.layers[CLOSE].1 {
            *ms -= persist_ms;
        }
        for ms in &mut ledger.layers[PERSIST].1 {
            *ms = persist_ms;
        }
        let epochs = ledger.total_ms.len() as f64;
        let node = stats::median(&node_ns);
        metrics.set("core.ingest.ns_per_report", node);
        metrics.set("core.ingest.quarantined", quarantined as f64);
        metrics.set("cluster.node.ns_per_report", node);
        em.report(&mut metrics, &[]);
        metrics.set("pyramid.build_us", stats::median(&pyramid_us));
        let retain = ledger.layer("ledger.retain.share");
        metrics.set("stream.retain.us_per_epoch", stats::median(retain) * 1e3);
        metrics.set("stream.retain.state_mb", state_mb);
        queries.report(&mut metrics, false);
        metrics.set("cluster.close_ms", stats::median(&close_calls));
        metrics.set("cluster.polls_per_epoch", polls as f64 / epochs);
        metrics.set("cluster.retries", retries as f64);
        metrics.set("cluster.dup_dropped", dups as f64);
        metrics.set("cluster.wal_bytes_per_epoch", stats::mean(&persist.wal_bytes));
        metrics.set("cluster.checkpoint_bytes", persist.checkpoint_bytes);
        metrics.set("cluster.checkpoint_write_ms", stats::median(&persist.write_ms));
        metrics.set("cluster.checkpoint_read_ms", stats::median(&persist.read_ms));
        let (read, restore) = (stats::median(&read_ms), stats::median(&restore_ms));
        metrics.set("cluster.recover.restore_ms", restore);
        metrics.set("cluster.recover.replay_entries", replay_entries as f64);
        metrics.set("ledger.recover.read_share", read / (read + restore));
        metrics.set("transport.w2_ms", stats::median(&log.w2_ms));
        metrics.set("obs.trace_overhead_pct", trace_overhead_pct(&ledger.total_ms, &untraced_ms));
        metrics.set("host.ref_ms", stats::median(&log.probe_ms));
        ledger.report(&mut metrics, &mut out.notes);
        metrics.not_run(&NOT_RUN);
        out.notes.push(format!(
            "recovery: read_checkpoint {read:.4} ms + rest of with_store {restore:.4} ms"
        ));
    } else {
        log.end_to_end(&mut metrics);
        out.notes.extend(log.notes());
    }
    out.fingerprint = log.fingerprint();
    out.metrics = metrics;
    out.attempted = log.attempted;
    out.failed = log.failed;
    out.failures = log.failures;
    Ok(out)
}
