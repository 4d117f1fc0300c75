//! Cluster behavior under faults — dedup, delay/backoff, quorum
//! degradation — plus the checkpoint/WAL format contract: round-trips
//! for empty/partial/full windows, structured errors (never a panic) for
//! version mismatches, truncated files and byte-level mutations of real
//! files, a restore that rejects what it cannot rebuild exactly, and
//! checkpoints that stop growing once the window fills.

#![allow(
    clippy::panic,
    clippy::unwrap_used,
    reason = "test helpers outside #[test] fns fail by unwrapping or panicking"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use dam_cluster::{
    CheckpointError, CheckpointState, CheckpointStore, Cluster, ClusterConfig, CoordStats,
    Coordinator, WalEntry,
};
use dam_core::validate::IngestSummary;
use dam_core::DamConfig;
use dam_fault::NodeFaultPlan;
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{PipelineHealth, QueryService, Snapshot, StreamConfig, StreamingEstimator};
use proptest::prelude::*;

fn epoch_points(epoch: usize) -> Vec<Point> {
    let cx = 0.3 + 0.4 * (epoch as f64 / 5.0).fract();
    (0..18_000)
        .map(|i| {
            let a = splitmix64((epoch as u64) << 32 | i as u64) as f64 / u64::MAX as f64;
            let b = splitmix64((epoch as u64) << 32 | (i as u64) ^ 0x77) as f64 / u64::MAX as f64;
            Point::new((cx + 0.2 * (a - 0.5)).clamp(0.0, 1.0), (0.2 + 0.5 * b).clamp(0.0, 1.0))
        })
        .collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig::new(DamConfig::dam(3.0).with_threads(Some(2)), 3, 515)
}

fn est_bits(cluster_out: &dam_cluster::EpochOutcome) -> Vec<u64> {
    cluster_out.snapshot.estimate.values().iter().map(|v| v.to_bits()).collect()
}

// ---- behavior under faults ----------------------------------------------

/// A published snapshot as comparable values: epoch, EM iterations,
/// warm flag, health, estimate bits and every pyramid level's bits.
type Published = (usize, usize, bool, PipelineHealth, Vec<u64>, Vec<Vec<u64>>);

fn published(s: &Snapshot) -> Published {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let levels = s.pyramid.levels().iter().map(|lv| bits(lv.values())).collect();
    (s.epoch, s.em_iters, s.warm, s.health, bits(s.estimate.values()), levels)
}

#[test]
fn clean_cluster_is_bit_identical_to_the_single_node_stream() {
    // K=3 with no faults must publish exactly what a single-node
    // streaming estimator publishes for the same epochs — the end-to-end
    // face of the mergeability property — and exactly the snapshot a
    // `QueryService` publishes for them.
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster =
        Cluster::new(grid.clone(), stream_config(), ClusterConfig::new(3), NodeFaultPlan::clean(1));
    let mut single = StreamingEstimator::new(grid.clone(), stream_config());
    let service = QueryService::new(grid, stream_config());
    assert_eq!(published(&cluster.coordinator().snapshot()), published(&service.snapshot()));
    for e in 0..4 {
        let pts = epoch_points(e);
        let out = cluster.ingest_epoch(&pts).unwrap();
        single.ingest_epoch(&pts);
        service.ingest_epoch(&pts);
        let win = single.estimate_window();
        let single_bits: Vec<u64> = win.histogram.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(est_bits(&out), single_bits, "epoch {e}: cluster != single-node");
        assert_eq!(out.snapshot.health, win.health, "epoch {e}: health diverged");
        assert_eq!(published(&out.snapshot), published(&service.snapshot()), "epoch {e}");
        assert_eq!(out.arrived, 3);
        assert!(!out.missed);
    }
    assert!(cluster.coordinator().snapshot().health.is_clean());
}

#[test]
fn duplicates_are_dropped_without_changing_estimates() {
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let run = |plan: NodeFaultPlan| {
        let mut cluster = Cluster::new(grid.clone(), stream_config(), ClusterConfig::new(3), plan);
        let estimates: Vec<Vec<u64>> =
            (0..4).map(|e| est_bits(&cluster.ingest_epoch(&epoch_points(e)).unwrap())).collect();
        (estimates, *cluster.coordinator().stats())
    };
    let (clean, clean_stats) = run(NodeFaultPlan::clean(1));
    let (duped, dup_stats) = run(NodeFaultPlan::parse("seed=3,dup=1.0").unwrap());
    assert_eq!(clean, duped, "duplicate deliveries must not change estimates");
    assert_eq!(clean_stats.dup_dropped, 0);
    assert!(
        dup_stats.dup_dropped >= 3 * 4,
        "every plane was duplicated; expected >= 12 drops, got {}",
        dup_stats.dup_dropped
    );
}

#[test]
fn delays_within_the_backoff_budget_cost_retries_not_coverage() {
    // delaymax=3 fits inside the default backoff schedule (polls at
    // +0, +1, +3, +7 ticks), so every plane still arrives — the close is
    // full-coverage and the estimates are bit-identical to a clean run;
    // only the retry counter shows the waiting.
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let run = |plan: NodeFaultPlan| {
        let mut cluster = Cluster::new(grid.clone(), stream_config(), ClusterConfig::new(3), plan);
        let outs: Vec<_> =
            (0..3).map(|e| cluster.ingest_epoch(&epoch_points(e)).unwrap()).collect();
        let stats = *cluster.coordinator().stats();
        (outs.iter().map(est_bits).collect::<Vec<_>>(), outs, stats)
    };
    let (clean, _, _) = run(NodeFaultPlan::clean(1));
    let (delayed, outs, stats) = run(NodeFaultPlan::parse("seed=8,delay=1.0,delaymax=3").unwrap());
    assert_eq!(clean, delayed, "delays must not change estimates");
    assert!(outs.iter().all(|o| o.arrived == 3 && !o.missed), "no coverage lost");
    assert!(stats.retries > 0, "delays must cost retries");
}

#[test]
fn forced_outage_degrades_gracefully_and_recovers() {
    // One of four nodes dark for a full window: every close still makes
    // quorum, the missing mass is rescaled back in, and the degradation
    // is visible (nodes_missed, partial_window) until the outage leaves
    // the window — then the health flag clears.
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster = Cluster::new(
        grid.clone(),
        stream_config(),
        ClusterConfig::with_quorum(4, 3),
        NodeFaultPlan::clean(1),
    );
    for e in 0..3 {
        let out = cluster.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(out.arrived, 4);
        if e == 2 {
            // The window just filled with full-coverage epochs.
            assert!(!out.snapshot.health.partial_window);
        }
    }
    cluster.force_outage(2, true);
    for e in 3..6 {
        let out = cluster.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(out.arrived, 3, "epoch {e} must close on 3 of 4 nodes");
        assert!(!out.missed);
        assert!(out.snapshot.health.partial_window, "degradation must be visible");
        let mass: f64 = out.snapshot.estimate.values().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "estimate must stay normalized, mass {mass}");
        assert!(out.snapshot.estimate.values().iter().all(|v| v.is_finite()));
    }
    assert_eq!(cluster.coordinator().snapshot().health.nodes_missed, 3);
    cluster.force_outage(2, false);
    for e in 6..9 {
        let out = cluster.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(out.arrived, 4);
        if e == 8 {
            // The under-covered epochs have slid out of the window.
            assert!(!out.snapshot.health.partial_window, "flag must clear after recovery");
        }
    }
}

#[test]
fn below_quorum_close_is_recorded_missed_not_fabricated() {
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster = Cluster::new(
        grid.clone(),
        stream_config(),
        ClusterConfig::with_quorum(4, 3),
        NodeFaultPlan::clean(1),
    );
    cluster.ingest_epoch(&epoch_points(0)).unwrap();
    cluster.force_outage(0, true);
    cluster.force_outage(1, true);
    let out = cluster.ingest_epoch(&epoch_points(1)).unwrap();
    assert!(out.missed, "2 of 4 nodes is below quorum 3");
    assert_eq!(out.arrived, 2);
    let health = out.snapshot.health;
    assert_eq!(health.epochs_missed, 1);
    assert_eq!(health.nodes_missed, 2);
    assert!(health.partial_window);
    assert!(out.snapshot.estimate.values().iter().all(|v| v.is_finite()));
}

// ---- checkpoint & WAL format (satellite) --------------------------------

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dam-cluster-fmt-{}-{tag}", std::process::id()))
}

/// FNV-1a, restated independently so the fixture-crafting below cannot
/// drift with the implementation under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn state(planes: Vec<Vec<f64>>, warm: Option<Vec<f64>>) -> CheckpointState {
    let epochs = planes.len();
    CheckpointState {
        n_cells: 4,
        planes,
        reports: 100 * epochs as u64,
        clock: 7 * epochs as u64,
        health: PipelineHealth {
            ingest: IngestSummary { seen: 100 * epochs as u64, quarantined: 3, clamped: 5 },
            epochs_ingested: epochs,
            epochs_missed: 0,
            sanitized_cells: 2,
            em_reseeds: 0,
            degenerate_windows: 0,
            nodes_missed: 4,
            partial_window: epochs > 0,
        },
        stats: CoordStats { epochs_closed: epochs as u64, dup_dropped: 6, retries: 9 },
        coverage: (0..epochs).map(|e| 3 - e % 2).collect(),
        warm,
        snapshot_em_iters: 11,
        snapshot_warm: epochs > 1,
    }
}

#[test]
fn checkpoint_round_trips_empty_partial_and_full_windows() {
    let cases = [
        ("empty", state(vec![], None)),
        ("partial", state(vec![vec![1.0, 2.0, 3.0, 4.0]; 2], Some(vec![0.1, 0.2, 0.3, 0.4]))),
        ("full", state(vec![vec![5.0, 0.0, 7.0, 9.0]; 4], Some(vec![0.25; 4]))),
    ];
    for (tag, original) in cases {
        let dir = scratch(&format!("rt-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        store.write_checkpoint(&original).unwrap();
        let back = store.read_checkpoint().unwrap().expect("checkpoint was just written");
        assert_eq!(back, original, "{tag}: round-trip must be lossless");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn missing_checkpoint_reads_as_none_not_an_error() {
    let dir = scratch("none");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.read_checkpoint().unwrap().is_none());
    assert!(store.read_wal().unwrap().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_version_mismatch_is_a_structured_error() {
    let dir = scratch("ver");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.write_checkpoint(&state(vec![vec![1.0; 4]], Some(vec![0.25; 4]))).unwrap();
    // Rewrite the version field (bytes 8..12) and re-seal the checksum so
    // the version check — not the integrity check — is what trips, for a
    // future version, for version 1 (every epoch's plane) and for version
    // 2 (a health block with the backend-fallback counter).
    let original = fs::read(store.checkpoint_path()).unwrap();
    for version in [99u32, 1, 2] {
        let mut bytes = original.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let payload_len = bytes.len() - 8;
        reseal(&mut bytes, payload_len);
        fs::write(store.checkpoint_path(), &bytes).unwrap();
        match store.read_checkpoint() {
            Err(CheckpointError::VersionMismatch { found, expected }) if found == version => {
                assert_eq!(expected, dam_cluster::checkpoint::FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_is_a_structured_error() {
    let dir = scratch("trunc");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.write_checkpoint(&state(vec![vec![1.0; 4]; 3], Some(vec![0.25; 4]))).unwrap();
    let bytes = fs::read(store.checkpoint_path()).unwrap();

    // Cut mid-structure but re-seal the checksum: the reader must report
    // Truncated, not a checksum failure and never a panic.
    let cut = bytes.len() - 8 - 5;
    let mut crafted = bytes[..cut].to_vec();
    crafted.extend_from_slice(&fnv1a(&bytes[..cut]).to_le_bytes());
    fs::write(store.checkpoint_path(), &crafted).unwrap();
    assert!(
        matches!(store.read_checkpoint(), Err(CheckpointError::Truncated { .. })),
        "sealed truncation must read as Truncated"
    );

    // A blunt tail-chop fails the integrity check instead — also
    // structured, also no panic.
    fs::write(store.checkpoint_path(), &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        store.read_checkpoint(),
        Err(CheckpointError::ChecksumMismatch { .. }) | Err(CheckpointError::Truncated { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_bad_magic_is_a_structured_error() {
    let dir = scratch("magic");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    fs::write(store.checkpoint_path(), b"NOTACKPTxxxxxxxxxxxxxxxxxxxx").unwrap();
    assert!(matches!(
        store.read_checkpoint(),
        Err(CheckpointError::BadMagic { kind: "checkpoint" })
    ));
    let _ = fs::remove_dir_all(&dir);
}

fn wal_entry(epoch: u64) -> WalEntry {
    WalEntry {
        epoch,
        missed: epoch % 3 == 2,
        arrived: 3 - (epoch % 2) as usize,
        nodes_missed_delta: (epoch % 2) as usize,
        sanitized_delta: 1,
        dup_delta: epoch,
        retries_delta: 2,
        clock_after: 10 * (epoch + 1),
        summary: IngestSummary { seen: 50, quarantined: 1, clamped: 2 },
        plane: vec![epoch as f64, 1.0, 2.0, 3.0],
    }
}

#[test]
fn wal_round_trips_and_checkpoint_truncates_it() {
    let dir = scratch("wal-rt");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    let entries: Vec<WalEntry> = (0..3).map(wal_entry).collect();
    for e in &entries {
        store.append_wal(e).unwrap();
    }
    assert_eq!(store.read_wal().unwrap(), entries, "append order must be read order");
    // A checkpoint makes the WAL redundant and removes it.
    store.write_checkpoint(&state(vec![vec![1.0; 4]], None)).unwrap();
    assert!(store.read_wal().unwrap().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_wal_is_a_structured_error() {
    let dir = scratch("wal-trunc");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.append_wal(&wal_entry(0)).unwrap();
    store.append_wal(&wal_entry(1)).unwrap();
    let bytes = fs::read(store.wal_path()).unwrap();
    fs::write(store.wal_path(), &bytes[..bytes.len() - 10]).unwrap();
    assert!(
        matches!(store.read_wal(), Err(CheckpointError::Truncated { .. })),
        "a torn tail entry must read as Truncated"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_version_mismatch_is_a_structured_error() {
    let dir = scratch("wal-ver");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.append_wal(&wal_entry(0)).unwrap();
    let mut bytes = fs::read(store.wal_path()).unwrap();
    // Version 1 headers had no checksum; the version is read first.
    for version in [7u32, 1] {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        fs::write(store.wal_path(), &bytes).unwrap();
        let read = store.read_wal();
        assert!(
            matches!(read, Err(CheckpointError::VersionMismatch { found, .. }) if found == version)
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Writes the FNV-1a checksum of `bytes[..end]` at `end`.
fn reseal(bytes: &mut [u8], end: usize) {
    let sum = fnv1a(&bytes[..end]);
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn corrupt_wal_header_is_an_error_not_a_panic() {
    // Byte 19 is the top byte of the header's `n_cells`: unchecked, it
    // sized a `Vec::with_capacity` and recovery aborted on overflow.
    let dir = scratch("wal-header");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.append_wal(&wal_entry(0)).unwrap();
    let mut bytes = fs::read(store.wal_path()).unwrap();
    bytes[19] ^= 1 << 4;
    fs::write(store.wal_path(), &bytes).unwrap();
    let read = store.read_wal();
    assert!(matches!(read, Err(CheckpointError::ChecksumMismatch { kind: "wal header" })));
    // Re-sealed, the length fails the bytes-left check instead.
    reseal(&mut bytes, 20);
    fs::write(store.wal_path(), &bytes).unwrap();
    assert!(matches!(store.read_wal(), Err(CheckpointError::Truncated { .. })));
    let _ = fs::remove_dir_all(&dir);
}

/// A persistent 3-node cluster under every fault family.
fn persistent(dir: &Path, every: usize) -> Result<Cluster, CheckpointError> {
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let plan = NodeFaultPlan::parse("seed=5,crash=0.1,delay=0.3,delaymax=2,dup=0.2,corrupt=0.1");
    let (store, cluster) = (CheckpointStore::new(dir)?, ClusterConfig::with_quorum(3, 2));
    Cluster::with_store(grid, stream_config(), cluster, plan.unwrap(), store, every)
}

/// Epochs closed, published estimate, window counts, health, and the
/// published snapshot's EM iterations and warm flag, as bits.
type Bits = (usize, Vec<u64>, Vec<u64>, PipelineHealth, usize, bool);

fn bits(c: &Coordinator) -> Bits {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    let snap = c.snapshot();
    let counts = bits(c.estimator().window_counts());
    (c.next_epoch(), bits(snap.estimate.values()), counts, snap.health, snap.em_iters, snap.warm)
}

/// Runs epochs `0..epochs` into a fresh store at `dir`; the state after
/// each, and the checkpoint file's size then.
fn run_into(dir: &Path, epochs: usize, every: usize) -> Vec<(Bits, u64)> {
    let _ = fs::remove_dir_all(dir);
    let mut cluster = persistent(dir, every).unwrap();
    let size = || fs::metadata(dir.join("checkpoint.bin")).map_or(0, |m| m.len());
    (0..epochs)
        .map(|e| {
            cluster.ingest_epoch(&epoch_points(e)).unwrap();
            (bits(cluster.coordinator()), size())
        })
        .collect()
}

/// What recovery makes of a real epoch-4 checkpoint that `edit` broke.
fn recover_edited(tag: &str, edit: impl FnOnce(&mut CheckpointState)) -> String {
    let dir = scratch(tag);
    run_into(&dir, 4, 4);
    let store = CheckpointStore::new(&dir).unwrap();
    let mut state = store.read_checkpoint().unwrap().unwrap();
    edit(&mut state);
    store.write_checkpoint(&state).unwrap();
    let recovered = persistent(&dir, 4).map(drop);
    let _ = fs::remove_dir_all(&dir);
    match recovered {
        Err(CheckpointError::Corrupt { detail }) => detail,
        other => panic!("{tag}: expected Corrupt, got {other:?}"),
    }
}

#[test]
fn restore_rejects_a_plane_count_other_than_the_window() {
    let detail = recover_edited("count", |s| drop(s.planes.remove(0)));
    assert!(detail.contains("2 planes for a head of 4, want 3"), "{detail}");
}

#[test]
fn restore_rejects_a_head_other_than_the_epochs_closed() {
    let detail = recover_edited("head", |s| s.stats.epochs_closed += 1);
    assert!(detail.contains("stream head 4 != 5 epochs closed"), "{detail}");
}

#[test]
fn restore_rejects_planes_that_are_not_whole_counts() {
    for bad in [0.5, -1.0, f64::NAN, f64::INFINITY, 2f64.powi(53)] {
        let detail = recover_edited("cells", |s| s.planes[1][2] = bad);
        assert!(detail.contains("not a whole count"), "{bad}: {detail}");
    }
}

/// A real store (checkpoint at epoch 4, WAL entries for epochs 4 and 5),
/// its decoded checkpoint, and the run's state after every epoch.
type Fixture = (Vec<u8>, Vec<u8>, CheckpointState, Vec<Bits>);

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("fixture");
        let history = run_into(&dir, 6, 4).into_iter().map(|(b, _)| b).collect();
        let store = CheckpointStore::new(&dir).unwrap();
        let (ckpt, wal) = (fs::read(store.checkpoint_path()), fs::read(store.wal_path()));
        let state = store.read_checkpoint().unwrap().unwrap();
        let _ = fs::remove_dir_all(&dir);
        (ckpt.unwrap(), wal.unwrap(), state, history)
    })
}

/// Recovers from the fixture with `mutate` applied to the checkpoint or
/// (`wal`) the WAL. Passing means an error, or the state the run ended
/// in — or, for a WAL cut at an entry boundary (a crash mid-append), an
/// earlier state of the run.
fn recovers_or_errs(wal: bool, mutate: impl FnOnce(&mut Vec<u8>)) -> Result<(), String> {
    let (ckpt, log, original, history) = fixture();
    let (mut ckpt, mut log) = (ckpt.clone(), log.clone());
    mutate(if wal { &mut log } else { &mut ckpt });
    let dir = scratch(&format!("mutant-{:x}", fnv1a(&ckpt) ^ fnv1a(&log)));
    let store = CheckpointStore::new(&dir).unwrap();
    fs::write(store.checkpoint_path(), &ckpt).unwrap();
    fs::write(store.wal_path(), &log).unwrap();
    let decoded = store.read_checkpoint();
    let recovered = persistent(&dir, 4).map(|c| bits(c.coordinator()));
    let _ = fs::remove_dir_all(&dir);
    match recovered {
        _ if matches!(&decoded, Ok(Some(s)) if s != original) => Err("decoded a new state".into()),
        Ok(got) if got.0 == 0 || history[got.0 - 1] != got => Err(format!("epoch {}", got.0)),
        Ok(got) if got.0 != history.len() && log.len() == fixture().1.len() => {
            Err(format!("recovered to epoch {}", got.0))
        }
        _ => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flipped_bits_never_panic_recovery(wal in 0u32..2, at in 0usize..1 << 30, bit in 0u32..8) {
        let verdict = recovers_or_errs(wal == 1, |f| {
            let at = at % f.len();
            f[at] ^= 1 << bit;
        });
        prop_assert_eq!(verdict, Ok(()), "byte {} bit {}", at, bit);
    }

    #[test]
    fn truncated_files_never_panic_recovery(wal in 0u32..2, keep in 0usize..1 << 30) {
        let verdict = recovers_or_errs(wal == 1, |f| f.truncate(keep % f.len()));
        prop_assert_eq!(verdict, Ok(()), "kept {}", keep);
    }

    #[test]
    fn overwritten_lengths_never_panic_recovery(field in 0usize..5, raw in 0u64..u64::MAX) {
        // The checkpoint's n_cells, n_planes, coverage.len and warm.len,
        // or the WAL header's n_cells, each re-sealed.
        let value = [raw % 64, raw, u64::MAX - raw % 64][(raw % 3) as usize];
        let state = &fixture().2;
        // Magic + version, four u64 header fields, the health block (nine
        // u64 counters and a flag byte), then three u64 coordinator stats.
        let coverage = 12 + 4 * 8 + 73 + 3 * 8;
        let warm = coverage + 8 + 8 * state.coverage.len() + 10;
        let at = [12, 20, coverage, warm, 12][field];
        let was = [state.n_cells, 3, state.coverage.len(), 36, state.n_cells][field];
        let verdict = recovers_or_errs(field == 4, |f| {
            assert_eq!(f[at..at + 8], (was as u64).to_le_bytes(), "field {field} offset");
            f[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let end = if field == 4 { 20 } else { f.len() - 8 };
            reseal(f, end);
        });
        prop_assert_eq!(verdict, Ok(()), "field {} = {}", field, value);
    }
}

#[test]
fn checkpoints_stop_growing_once_the_window_fills() {
    // Hundreds of epochs with a checkpoint every 7: each holds the
    // window's 3 planes and all have one size, and recovering from the
    // last one (plus the WAL past it) tracks the uncrashed run bit for bit.
    let (dir, reference_dir) = (scratch("soak"), scratch("soak-reference"));
    let reference = run_into(&reference_dir, 305, 7);
    let doomed = run_into(&dir, 300, 7);
    assert!(doomed[6..].iter().all(|(_, size)| *size == doomed[6].1), "checkpoints grew");
    let mut revived = persistent(&dir, 7).unwrap();
    let held = revived.coordinator().estimator().tree().held_planes().count();
    assert_eq!((held, bits(revived.coordinator())), (3, doomed[299].0.clone()));
    for e in 300..305 {
        revived.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(bits(revived.coordinator()), reference[e].0, "epoch {e}");
    }
    assert!(reference[304].0 .3.nodes_missed > 0 && reference[304].0 .3.sanitized_cells > 0);
    let _ = (fs::remove_dir_all(&dir), fs::remove_dir_all(&reference_dir));
}
