//! Observability contracts of the cluster coordinator: the deterministic
//! metrics plane (collection counters, quorum-coverage histogram, span
//! counts on the simulated timeline) is bit-identical for any thread
//! count, and the coordinator's counters agree with its `CoordStats`.

#![allow(clippy::expect_used, reason = "test helpers outside #[test] fns fail by unwrapping")]

use dam_cluster::{Cluster, ClusterConfig};
use dam_core::DamConfig;
use dam_fault::NodeFaultPlan;
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::StreamConfig;

fn epoch_points(epoch: usize, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = splitmix64((epoch as u64) << 32 | i as u64) as f64 / u64::MAX as f64;
            let b = splitmix64((epoch as u64) << 32 | (i as u64) ^ 0x5EED) as f64 / u64::MAX as f64;
            Point::new(a.clamp(0.0, 1.0), b.clamp(0.0, 1.0))
        })
        .collect()
}

fn run(threads: Option<usize>) -> (String, Vec<u64>) {
    let dam = DamConfig::dam(3.0).with_threads(threads);
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster = Cluster::new(
        grid,
        StreamConfig::new(dam, 3, 42),
        ClusterConfig::new(4),
        NodeFaultPlan::clean(7),
    );
    let mut estimates = Vec::new();
    for e in 0..5 {
        let out = cluster.ingest_epoch(&epoch_points(e, 8_000)).expect("no store attached");
        estimates.extend(out.snapshot.estimate.values().iter().map(|v| v.to_bits()));
    }
    let plane = cluster.coordinator().estimator().obs().snapshot().deterministic_plane();
    (plane, estimates)
}

#[test]
fn cluster_deterministic_plane_is_thread_count_independent() {
    let (plane_ref, est_ref) = run(Some(1));
    for threads in [Some(4), None] {
        let (plane, est) = run(threads);
        assert_eq!(est_ref, est, "estimates diverged at threads {threads:?}");
        assert_eq!(plane_ref, plane, "deterministic plane diverged at threads {threads:?}");
    }
    for needle in [
        "counter coord_epochs_closed 5",
        "counter coord_polls",
        "hist coord_quorum_coverage",
        "span close_epoch count=5",
    ] {
        assert!(plane_ref.contains(needle), "deterministic plane lost {needle:?}:\n{plane_ref}");
    }
}

#[test]
fn coordinator_counters_mirror_its_stats() {
    let dam = DamConfig::dam(3.0).with_threads(Some(2));
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster = Cluster::new(
        grid,
        StreamConfig::new(dam, 3, 42),
        ClusterConfig::new(4),
        NodeFaultPlan::clean(7),
    );
    for e in 0..4 {
        cluster.ingest_epoch(&epoch_points(e, 5_000)).expect("no store attached");
    }
    let coord = cluster.coordinator();
    let stats = *coord.stats();
    let obs = coord.estimator().obs();
    assert_eq!(obs.counter_value("coord_epochs_closed"), stats.epochs_closed);
    assert_eq!(obs.counter_value("coord_dup_dropped"), stats.dup_dropped);
    assert_eq!(obs.counter_value("coord_retries"), stats.retries);
    // A clean 4-node cluster polls every node at least once per epoch.
    assert!(obs.counter_value("coord_polls") >= 16, "4 nodes x 4 epochs");
    assert_eq!(obs.counter_value("coord_epochs_missed"), 0);
}
