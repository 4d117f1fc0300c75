//! Determinism suite for the streaming subsystem: ingestion, window
//! counts, retained epoch planes and window estimates must be
//! **bit-identical** for any thread count — the same contract the
//! one-shot sharded pipeline already honours.

use dam_core::{DamConfig, EmBackend, Pyramid};
use dam_fo::em::EmParams;
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{StreamConfig, StreamingEstimator};

/// Deterministic per-epoch point clouds spanning more than one report
/// shard, drifting so consecutive epochs differ.
fn epoch_points(epoch: usize, n: usize) -> Vec<Point> {
    let cx = 0.2 + 0.6 * (epoch as f64 / 8.0).fract();
    (0..n)
        .map(|i| {
            let a = splitmix64((epoch as u64) << 32 | i as u64) as f64 / u64::MAX as f64;
            let b = splitmix64((epoch as u64) << 32 | (i as u64) ^ 0x5EED) as f64 / u64::MAX as f64;
            Point::new((cx + 0.15 * (a - 0.5)).clamp(0.0, 1.0), (0.3 + 0.3 * b).clamp(0.0, 1.0))
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn streaming_run_is_bit_identical_for_any_thread_count() {
    // Full vertical slice: sharded ingest over several epochs (each epoch
    // spans > 1 shard), sliding-window counts, the retained epoch planes
    // and warm-started estimates — every artefact compared bit for bit
    // against the single-threaded reference.
    let run = |threads: Option<usize>| {
        let dam = DamConfig {
            em: EmParams { max_iters: 60, rel_tol: 1e-7, gain_tol: 0.0 },
            ..DamConfig::dam(3.0)
        }
        .with_threads(threads);
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut s = StreamingEstimator::new(grid, StreamConfig::new(dam, 3, 99));
        let mut estimates = Vec::new();
        for e in 0..5 {
            s.ingest_epoch(&epoch_points(e, 20_000));
            estimates.extend_from_slice(s.estimate_window().histogram.values());
        }
        let mut artefacts = bits(s.window_counts());
        artefacts.extend(s.tree().held_planes().flat_map(bits));
        artefacts.extend(bits(&estimates));
        artefacts
    };
    let reference = run(Some(1));
    for threads in [Some(2), Some(8), None] {
        assert_eq!(reference, run(threads), "streaming artefacts diverged at threads {threads:?}");
    }
}

/// FNV-1a fold of the window chain below. Moving it is a behaviour
/// change of the warm streaming path, not a refactor.
const WARM_WINDOW_CHAIN_BITS: u64 = 0x2ab9_c70c_c637_0516;

#[test]
fn warm_window_chain_matches_pinned_bits() {
    // A cold first window, then five warm ones (diffusion forecast +
    // uniform floor + the accelerated evidence stop), on the stencil backend
    // so no FFT twiddle roundoff enters the pin. Every window's estimate
    // bits, its iteration count and two unaligned pyramid range answers
    // fold into one hash: any drift in the warm seed, the EM driver, the
    // stopping rule or the pyramid leaf level moves it.
    let dam = DamConfig { backend: EmBackend::Convolution, ..DamConfig::dam(3.0) };
    let d = 8;
    let grid = Grid2D::new(BoundingBox::unit(), d);
    let mut s = StreamingEstimator::new(grid, StreamConfig::new(dam, 3, 0xC0FFEE));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let cap = s.config().warm_em.max_iters;
    let mut stopped_on_evidence = 0;
    for e in 0..6 {
        s.ingest_epoch(&epoch_points(e, 5_000));
        let est = s.estimate_window();
        stopped_on_evidence += usize::from(est.warm && est.em_iters < cap);
        let values = est.histogram.values();
        bits(values).into_iter().for_each(&mut fold);
        fold(est.em_iters as u64);
        let p = Pyramid::from_plane(values, d);
        fold(p.range_sum(1, 2, 6, 5).to_bits());
        fold(p.range_sum(3, 0, 4, 6).to_bits());
    }
    // The pin must cover the stop path, not only the cap.
    assert!(stopped_on_evidence > 0, "no warm window stopped below the {cap}-iteration cap");
    assert_eq!(h, WARM_WINDOW_CHAIN_BITS, "warm window chain moved: {h:#018x}");
}
