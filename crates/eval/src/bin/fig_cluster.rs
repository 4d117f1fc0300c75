//! Fault-tolerant multi-node aggregation: the distributed face of the
//! streaming pipeline.
//!
//! K aggregator nodes (K ∈ {1, 4, 8}) each ingest their shard partition
//! of the same moving two-foci stream `fig_stream` uses; a coordinator
//! collects their epoch planes under the deterministic retry/backoff
//! schedule, closes windows on quorum, and publishes warm-started window
//! estimates. Per epoch and K the table reports arrived-node coverage
//! and TV/W₂ (W₂ through [`dam_transport::w2`], the exact LP at d = 20)
//! against a **single-node reference** pipeline fed the exact same epochs
//! (plus TV against the true sliding-window histogram) —
//! with no faults injected, every row's `tv_ref` and `w2_ref` is 0.0000:
//! K merged partitions are bit-identical to the single node. `--inject
//! "seed=7,crash=0.05,delay=0.2,delaymax=2,dup=0.1,corrupt=0.02"` turns
//! the run into a cluster chaos experiment driven by a
//! [`dam_fault::NodeFaultPlan`]; a [`dam_stream::PipelineHealth`] footer
//! per K shows what the coordinator rode out.
//!
//! Two hard checks run after the sweep (both assert, so the CI smoke
//! fails loudly if either regresses):
//!
//! * **Crash recovery** — a K=4 coordinator with a checkpoint store is
//!   killed cold mid-stream, recovered from checkpoint + WAL, and run to
//!   the end: every post-recovery estimate must be bit-identical to the
//!   uninterrupted run's.
//! * **Quorum degradation** — one of eight nodes is forced dark for a
//!   full window: every close must still make quorum, the degradation
//!   must be visible (`nodes_missed`, `partial_window`), and the mean
//!   truth-TV over the degraded window must stay within 2× of the
//!   all-nodes steady state.

use dam_cluster::{CheckpointStore, Cluster, ClusterConfig};
use dam_core::DamConfig;
use dam_data::synthetic::drifting_foci;
use dam_eval::report::fmt4;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_fault::NodeFaultPlan;
use dam_geo::rng::derived;
use dam_geo::{BoundingBox, Grid2D, Histogram2D, Point};
use dam_stream::{StreamConfig, StreamingEstimator};

const D: u32 = 20;
const EPS: f64 = 3.5;
const NODE_COUNTS: [usize; 3] = [1, 4, 8];

fn stream_config(ctx: &EvalContext, window: usize) -> StreamConfig {
    let dam = DamConfig::dam(EPS).with_threads(ctx.threads);
    StreamConfig::new(dam, window, ctx.seed ^ 0x0C10_57E2)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let plan = args
        .inject
        .as_deref()
        .map(|spec| NodeFaultPlan::parse(spec).unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_else(|| NodeFaultPlan::clean(ctx.seed));
    let epochs = args.epochs.unwrap_or(if args.fast { 8 } else { 20 });
    let window = args.window.unwrap_or(if args.fast { 4 } else { 6 }).min(epochs);
    let per_epoch = (args.users.unwrap_or(20_000 * epochs) / epochs).max(1);
    let grid = Grid2D::new(BoundingBox::unit(), D);
    let w2 = |a: &Histogram2D, b: &Histogram2D| dam_transport::w2(a, b).expect("w2");

    // Shared stream: every cluster size sees identical epochs.
    let epoch_data: Vec<Vec<Point>> = (0..epochs)
        .map(|e| drifting_foci(per_epoch, e, &mut derived(ctx.seed, 0xC105_7E00 + e as u64)))
        .collect();
    let truths: Vec<Histogram2D> = (0..epochs)
        .map(|e| {
            let lo = (e + 1).saturating_sub(window);
            let pts: Vec<Point> =
                epoch_data[lo..=e].iter().flat_map(|p| p.iter().copied()).collect();
            Histogram2D::from_points(grid.clone(), &pts).normalized()
        })
        .collect();

    // Single-node reference: the plain streaming estimator, no faults.
    let reference: Vec<Histogram2D> = {
        let mut single = StreamingEstimator::new(grid.clone(), stream_config(&ctx, window));
        (0..epochs)
            .map(|e| {
                single.ingest_epoch(&epoch_data[e]);
                single.estimate_window().histogram
            })
            .collect()
    };

    let mut report = Report::new(
        &format!(
            "Multi-node aggregation (d={D}, eps={EPS}, {per_epoch} users/epoch, \
             {epochs} epochs, window {window}, plan {})",
            plan.spec()
        ),
        &["epoch", "K", "arrived", "missed", "tv_ref", "w2_ref", "tv_truth"],
    );
    let mut footers = Vec::new();
    // Registry per K, kept after each cluster is dropped (the registry is
    // a cheap shared handle) so --metrics-out can export all of them.
    let mut registries: Vec<(String, dam_obs::Registry)> = Vec::new();
    for &k in &NODE_COUNTS {
        let mut cluster =
            Cluster::new(grid.clone(), stream_config(&ctx, window), ClusterConfig::new(k), plan);
        // Harness boundary: timing-plane instruments (close spans,
        // `service_publish_ns`) get real nanoseconds (the deterministic
        // plane is clock-free).
        let obs = cluster.coordinator().estimator().obs().clone();
        obs.set_clock(std::sync::Arc::new(dam_obs::WallClock::new()));
        for e in 0..epochs {
            let out = cluster.ingest_epoch(&epoch_data[e]).expect("no store attached");
            let est = &out.snapshot.estimate;
            let tv_ref = est.tv_distance(&reference[e]);
            let w2_ref = w2(est, &reference[e]);
            let tv_truth = est.tv_distance(&truths[e]);
            if plan.is_clean() {
                // No faults: the K partitions must merge bit-identically
                // to the single node, all the way through EM.
                assert_eq!(
                    bits(est.values()),
                    bits(reference[e].values()),
                    "K={k} epoch {e}: clean cluster diverged from the single-node reference"
                );
            }
            report.push_row(vec![
                e.to_string(),
                k.to_string(),
                out.arrived.to_string(),
                if out.missed { "yes".into() } else { "no".into() },
                fmt4(tv_ref),
                fmt4(w2_ref),
                fmt4(tv_truth),
            ]);
        }
        footers.push(dam_eval::obs::health_footer(
            &format!("K={k}"),
            &cluster.coordinator().snapshot().health,
        ));
        registries.push((format!("K={k}"), obs));
    }
    println!("{}", report.render());
    for footer in &footers {
        println!("{footer}");
    }

    // ---- hard check 1: crash recovery is bit-identical -----------------
    {
        let k = 4;
        let kill_at = (epochs / 2).max(1);
        let dir =
            std::env::temp_dir().join(format!("dam-fig-cluster-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ClusterConfig::new(k);
        let uninterrupted: Vec<Vec<u64>> = {
            let mut c = Cluster::new(grid.clone(), stream_config(&ctx, window), cfg, plan);
            (0..epochs)
                .map(|e| bits(c.ingest_epoch(&epoch_data[e]).unwrap().snapshot.estimate.values()))
                .collect()
        };
        {
            let store = CheckpointStore::new(&dir).expect("scratch dir");
            let mut doomed =
                Cluster::with_store(grid.clone(), stream_config(&ctx, window), cfg, plan, store, 2)
                    .expect("fresh store");
            for e in 0..kill_at {
                doomed.ingest_epoch(&epoch_data[e]).expect("pre-kill epoch");
            }
            // Killed cold here: dropped with a WAL tail past the last
            // checkpoint, no shutdown path.
        }
        let store = CheckpointStore::new(&dir).expect("scratch dir");
        let mut revived =
            Cluster::with_store(grid.clone(), stream_config(&ctx, window), cfg, plan, store, 2)
                .expect("recovery");
        assert_eq!(revived.coordinator().next_epoch(), kill_at, "recovery lost epochs");
        for e in kill_at..epochs {
            let out = revived.ingest_epoch(&epoch_data[e]).expect("post-recovery epoch");
            assert_eq!(
                bits(out.snapshot.estimate.values()),
                uninterrupted[e],
                "epoch {e}: post-recovery estimate diverged from the uninterrupted run"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "recovery check: K={k} coordinator killed after epoch {kill_at}, recovered from \
             checkpoint + WAL; all {} post-recovery estimates bit-identical",
            epochs - kill_at
        );
    }

    // ---- hard check 2: quorum degradation stays graceful ----------------
    {
        let k = 8;
        let mut cluster = Cluster::new(
            grid.clone(),
            stream_config(&ctx, window),
            ClusterConfig::new(k),
            NodeFaultPlan::clean(ctx.seed),
        );
        // Steady state first (full coverage), then one node dark for a
        // full window.
        let steady_end = epochs.saturating_sub(window).max(window);
        let mut steady_tv = 0.0;
        let mut steady_n = 0usize;
        for e in 0..steady_end {
            let out = cluster.ingest_epoch(&epoch_data[e]).unwrap();
            assert_eq!(out.arrived, k);
            if e + 1 >= window {
                steady_tv += out.snapshot.estimate.tv_distance(&truths[e]);
                steady_n += 1;
            }
        }
        cluster.force_outage(3, true);
        let mut degraded_tv = 0.0;
        let mut degraded_n = 0usize;
        for e in steady_end..epochs {
            let out = cluster.ingest_epoch(&epoch_data[e]).unwrap();
            assert_eq!(out.arrived, k - 1, "epoch {e} must close on {} of {k} nodes", k - 1);
            assert!(!out.missed, "7 of 8 nodes is comfortably above quorum");
            assert!(out.snapshot.health.partial_window, "degradation must be flagged");
            degraded_tv += out.snapshot.estimate.tv_distance(&truths[e]);
            degraded_n += 1;
        }
        let health = cluster.coordinator().snapshot().health;
        assert_eq!(health.nodes_missed, degraded_n, "one missing node per degraded epoch");
        let steady_mean = steady_tv / steady_n.max(1) as f64;
        let degraded_mean = degraded_tv / degraded_n.max(1) as f64;
        assert!(
            degraded_mean <= 2.0 * steady_mean,
            "quorum degradation not graceful: degraded tv {degraded_mean:.4} > 2x steady \
             {steady_mean:.4}"
        );
        println!(
            "quorum check: 1 of {k} nodes dark for {degraded_n} epochs — mean truth-TV \
             {degraded_mean:.4} vs {steady_mean:.4} all-nodes steady state ({:.2}x, bound 2x), \
             nodes_missed={}, partial_window flagged",
            degraded_mean / steady_mean.max(f64::MIN_POSITIVE),
            health.nodes_missed
        );
    }

    if let Some(path) = &args.metrics_out {
        let sections: Vec<(&str, &dam_obs::Registry)> =
            registries.iter().map(|(label, reg)| (label.as_str(), reg)).collect();
        dam_eval::obs::write_metrics(path, &sections).expect("write metrics");
        println!("metrics: {}", path.display());
    }
    let path = report.write_csv(&args.out, "fig_cluster").expect("write csv");
    println!("csv: {}", path.display());
}
