//! Serve-while-ingesting guarantees of [`dam_stream::QueryService`]:
//!
//! 1. **Thread-count determinism** — the published snapshots (and hence
//!    every query answer) are bit-identical whether the pipeline runs on
//!    1 or 4 threads;
//! 2. **Atomic snapshot swap** — queries racing a concurrent ingest
//!    always observe a value bit-identical to one of the *published*
//!    epoch-boundary snapshots, never a torn or intermediate state, for
//!    any ingest/query interleaving.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    reason = "queries the service from a raw thread while it ingests, collects answers into a hash set and unwraps in helpers"
)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dam_core::DamConfig;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{QueryService, StreamConfig};

const D: u32 = 12;
const EPOCHS: usize = 5;
const WINDOW: usize = 3;
const SEED: u64 = 4242;

/// Deterministic epoch batches (no RNG: the only randomness under test
/// is the pipeline's own).
fn epoch_batch(epoch: usize, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let k = i + 31 * epoch;
            Point::new(((k % 97) as f64 + 0.5) / 97.0, ((k % 71) as f64 + 0.5) / 71.0)
        })
        .collect()
}

fn service(threads: Option<usize>) -> QueryService {
    let grid = Grid2D::new(BoundingBox::unit(), D);
    let dam = DamConfig::dam(2.5).with_threads(threads);
    QueryService::new(grid, StreamConfig::new(dam, WINDOW, SEED))
}

fn estimate_bits(svc: &QueryService) -> Vec<u64> {
    svc.snapshot().estimate.values().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn snapshots_are_bit_identical_for_1_and_4_threads() {
    let single = service(Some(1));
    let multi = service(Some(4));
    for e in 0..EPOCHS {
        let batch = epoch_batch(e, 3_000);
        single.ingest_epoch(&batch);
        multi.ingest_epoch(&batch);
        assert_eq!(single.epoch(), multi.epoch());
        assert_eq!(
            estimate_bits(&single),
            estimate_bits(&multi),
            "estimates diverged at epoch {e}"
        );
        // Derived query answers are then bit-identical too.
        let q = (1u32, 2u32, D - 2, D - 3);
        assert_eq!(
            single.range(q.0, q.1, q.2, q.3).to_bits(),
            multi.range(q.0, q.1, q.2, q.3).to_bits()
        );
        assert_eq!(single.point(3, 4).to_bits(), multi.point(3, 4).to_bits());
        assert_eq!(
            svc_heatmap_bits(&single),
            svc_heatmap_bits(&multi),
            "heatmaps diverged at epoch {e}"
        );
    }
}

fn svc_heatmap_bits(svc: &QueryService) -> Vec<u64> {
    svc.heatmap(4).unwrap().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn concurrent_queries_only_ever_see_published_snapshots() {
    // Reference run: the exact per-epoch answers a quiescent service
    // publishes (bit patterns), including the initial uniform snapshot.
    let q = (2u32, 1u32, D - 3, D - 2);
    let reference = service(Some(2));
    let mut published: HashSet<u64> = HashSet::new();
    published.insert(reference.range(q.0, q.1, q.2, q.3).to_bits());
    let mut epoch_answers = Vec::new();
    for e in 0..EPOCHS {
        reference.ingest_epoch(&epoch_batch(e, 3_000));
        let bits = reference.range(q.0, q.1, q.2, q.3).to_bits();
        published.insert(bits);
        epoch_answers.push(bits);
    }

    // Live run: hammer the same query from 4 reader threads while the
    // writer ingests the same epochs concurrently.
    let live = Arc::new(service(Some(2)));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let live = Arc::clone(&live);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut seen: Vec<(Option<usize>, u64)> = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    // The convenience path takes its own snapshot, so it
                    // can land on any published epoch — membership in
                    // the published set is its guarantee.
                    seen.push((None, live.range(q.0, q.1, q.2, q.3).to_bits()));
                    // A pinned snapshot is internally coherent: the
                    // answer derived from it must be the exact bits the
                    // quiescent run published for that epoch.
                    let snap = live.snapshot();
                    let bits = snap.pyramid.range_sum(q.0, q.1, q.2, q.3).to_bits();
                    assert!(snap.pyramid.max_inconsistency() < 1e-9, "torn pyramid observed");
                    seen.push((Some(snap.epoch), bits));
                }
                seen
            })
        })
        .collect();

    for e in 0..EPOCHS {
        live.ingest_epoch(&epoch_batch(e, 3_000));
    }
    done.store(true, Ordering::Relaxed);

    for reader in readers {
        for (epoch, bits) in reader.join().expect("reader panicked") {
            assert!(
                published.contains(&bits),
                "reader observed an unpublished answer (epoch {epoch:?})"
            );
            if let Some(epoch) = epoch.filter(|&e| e > 0) {
                // And the answer is exactly the one the quiescent run
                // published for that epoch — the interleaving can only
                // choose *which* epoch is read, never its value.
                assert_eq!(bits, epoch_answers[epoch - 1], "wrong answer for epoch {epoch}");
            }
        }
    }

    // After the writer finishes, the live service agrees with the
    // reference run bit-for-bit.
    assert_eq!(estimate_bits(&live), estimate_bits(&reference));
}
