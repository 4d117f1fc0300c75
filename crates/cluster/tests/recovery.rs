//! Crash-recovery bit-identity, swept over **every** kill point.
//!
//! A reference cluster runs `EPOCHS` epochs uninterrupted under a fault
//! plan that exercises delays, duplicates, corruption, and node crashes.
//! Then, for each kill point `k`, a persistent cluster ingests `k`
//! epochs, is dropped cold (the crash), and a fresh cluster recovers
//! from its checkpoint + WAL: the republished snapshot must equal the
//! reference's epoch-`k` snapshot, and every *subsequent* window
//! estimate, pyramid, and health record must be bit-identical to the
//! uncrashed run's — at 1 and at 4 threads.
//!
//! (Collection stats are deliberately not compared: a stale duplicate
//! pending in the killed transport is lost with the process, so the
//! recovered run may drop one fewer duplicate. Estimates, pyramids, and
//! health are transport-independent and must match exactly.)

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test helpers outside #[test] fns fail by unwrapping"
)]

use std::fs;
use std::path::PathBuf;

use dam_cluster::{CheckpointStore, Cluster, ClusterConfig};
use dam_core::DamConfig;
use dam_fault::NodeFaultPlan;
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{PipelineHealth, Snapshot, StreamConfig};

const EPOCHS: usize = 6;
const NODES: usize = 3;
const CHECKPOINT_EVERY: usize = 2;

/// Drifting per-epoch point cloud spanning more than one report shard.
fn epoch_points(epoch: usize) -> Vec<Point> {
    let cx = 0.25 + 0.5 * (epoch as f64 / 6.0).fract();
    (0..18_000)
        .map(|i| {
            let a = splitmix64((epoch as u64) << 32 | i as u64) as f64 / u64::MAX as f64;
            let b = splitmix64((epoch as u64) << 32 | (i as u64) ^ 0xACE5) as f64 / u64::MAX as f64;
            Point::new((cx + 0.2 * (a - 0.5)).clamp(0.0, 1.0), (0.3 + 0.4 * b).clamp(0.0, 1.0))
        })
        .collect()
}

fn stream_config(threads: usize) -> StreamConfig {
    StreamConfig::new(DamConfig::dam(3.0).with_threads(Some(threads)), 3, 2024)
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig::with_quorum(NODES, 2)
}

/// The full fault menu: crashes drop nodes below full coverage, delays
/// exercise the retry/backoff schedule, duplicates the dedup, corruption
/// the sanitize-on-merge path.
fn fault_plan() -> NodeFaultPlan {
    NodeFaultPlan::parse("seed=11,crash=0.15,delay=0.4,delaymax=2,dup=0.3,corrupt=0.25").unwrap()
}

/// Everything a snapshot publishes, as comparable bits.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    epoch: usize,
    estimate: Vec<u64>,
    pyramid: Vec<u64>,
    em_iters: usize,
    warm: bool,
    health: PipelineHealth,
}

fn fingerprint(s: &Snapshot) -> Fingerprint {
    let mut pyramid = Vec::new();
    for level in s.pyramid.levels() {
        pyramid.extend(level.values().iter().map(|v| v.to_bits()));
    }
    Fingerprint {
        epoch: s.epoch,
        estimate: s.estimate.values().iter().map(|v| v.to_bits()).collect(),
        pyramid,
        em_iters: s.em_iters,
        warm: s.warm,
        health: s.health,
    }
}

/// The uncrashed reference: one fingerprint per closed epoch.
fn reference_run(threads: usize) -> Vec<Fingerprint> {
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster = Cluster::new(grid, stream_config(threads), cluster_config(), fault_plan());
    (0..EPOCHS)
        .map(|e| {
            let out = cluster.ingest_epoch(&epoch_points(e)).expect("no store, no io");
            assert_eq!(out.epoch, e);
            fingerprint(&out.snapshot)
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dam-cluster-recovery-{}-{tag}", std::process::id()))
}

fn kill_sweep(threads: usize) {
    let reference = reference_run(threads);
    let grid = Grid2D::new(BoundingBox::unit(), 6);

    for kill in 0..EPOCHS {
        let dir = scratch_dir(&format!("t{threads}-k{kill}"));
        let _ = fs::remove_dir_all(&dir);

        // Run to the kill point and crash (drop without any shutdown).
        {
            let store = CheckpointStore::new(&dir).unwrap();
            let mut doomed = Cluster::with_store(
                grid.clone(),
                stream_config(threads),
                cluster_config(),
                fault_plan(),
                store,
                CHECKPOINT_EVERY,
            )
            .unwrap();
            for e in 0..kill {
                let out = doomed.ingest_epoch(&epoch_points(e)).unwrap();
                assert_eq!(fingerprint(&out.snapshot), reference[e], "pre-kill divergence at {e}");
            }
        }

        // Recover and check the republished snapshot, then run to the end.
        let store = CheckpointStore::new(&dir).unwrap();
        let mut revived = Cluster::with_store(
            grid.clone(),
            stream_config(threads),
            cluster_config(),
            fault_plan(),
            store,
            CHECKPOINT_EVERY,
        )
        .unwrap();
        assert_eq!(
            revived.coordinator().next_epoch(),
            kill,
            "recovery must resume at epoch {kill}"
        );
        if kill > 0 {
            assert_eq!(
                fingerprint(&revived.coordinator().snapshot()),
                reference[kill - 1],
                "threads {threads}: recovered snapshot != reference at kill point {kill}"
            );
        }
        for e in kill..EPOCHS {
            let out = revived.ingest_epoch(&epoch_points(e)).unwrap();
            assert_eq!(out.epoch, e);
            assert_eq!(
                fingerprint(&out.snapshot),
                reference[e],
                "threads {threads}, killed at {kill}: post-recovery epoch {e} diverged"
            );
        }

        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_is_bit_identical_at_every_kill_point_single_threaded() {
    kill_sweep(1);
}

#[test]
fn recovery_is_bit_identical_at_every_kill_point_multi_threaded() {
    kill_sweep(4);
}

#[test]
fn faults_actually_fired_during_the_sweep() {
    // The sweep only proves something if the reference run actually hit
    // faults: at least one epoch below full coverage and at least one
    // sanitized (corrupted) plane must occur under the plan above.
    let reference = reference_run(1);
    let last = &reference[EPOCHS - 1];
    assert!(last.health.nodes_missed > 0, "plan never dropped a node: weaken nothing, re-seed");
    assert!(last.health.sanitized_cells > 0, "plan never corrupted a plane: re-seed");
}
