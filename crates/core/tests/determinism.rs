//! Determinism suite for the sharded report pipeline: the estimate must be
//! **bit-identical** for any thread count (the shard layout and per-shard
//! RNG streams depend only on the point count and the master seed), and
//! the parallel path must equal the explicit sequential shard-by-shard
//! reference.

use dam_core::shard::{n_shards, shard_range, sharded_accumulate, SHARD_SIZE};
use dam_core::{DamClient, DamConfig, DamEstimator, SamVariant, SpatialEstimator};
use dam_geo::rng::seeded;
use dam_geo::rng::shard_rng;
use dam_geo::{BoundingBox, Grid2D, Point};
use proptest::prelude::*;

/// Deterministic point cloud spanning several shards (no RNG involved, so
/// the suite's only randomness is the pipeline under test).
fn span_points(n: usize) -> Vec<Point> {
    (0..n).map(|i| Point::new((i % 101) as f64 / 101.0, ((i * 7) % 89) as f64 / 89.0)).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn estimate_is_bit_identical_for_any_thread_count_all_sam_variants() {
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let points = span_points(2 * SHARD_SIZE + 345);
    for variant in [SamVariant::Dam, SamVariant::DamNonShrunken, SamVariant::Huem] {
        let estimate_with = |threads: Option<usize>| {
            let config = DamConfig { variant, ..DamConfig::dam(2.0) }.with_threads(threads);
            let mut rng = seeded(1234);
            DamEstimator::new(config).estimate(&points, &grid, &mut rng)
        };
        let sequential = estimate_with(Some(1));
        for threads in [Some(2), Some(8), None] {
            let parallel = estimate_with(threads);
            assert_eq!(
                bits(sequential.values()),
                bits(parallel.values()),
                "{variant:?} with threads {threads:?} must match the sequential path bit-for-bit"
            );
        }
    }
}

/// FNV-1a fold of the one-shot `DamEstimator::estimate` bits below: the
/// sharded report pipeline, then EM on the spectral operator through
/// `DamAggregator::estimate`. Moving it is a behaviour change of the
/// one-shot path, not a refactor.
const DAM_ESTIMATE_BITS: u64 = 0xba2e_c181_98aa_8ba1;

#[test]
fn dam_estimate_matches_pinned_bits() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (eps, d) in [(2.0, 6), (3.5, 20)] {
        let grid = Grid2D::new(BoundingBox::unit(), d);
        let mut rng = seeded(0xD0A1 + u64::from(d));
        let est = DamEstimator::new(DamConfig::dam(eps)).estimate(
            &span_points(SHARD_SIZE + 321),
            &grid,
            &mut rng,
        );
        for byte in bits(est.values()).iter().flat_map(|b| b.to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(h, DAM_ESTIMATE_BITS, "one-shot DAM estimate bits moved: {h:#018x}");
}

#[test]
fn fft_backend_estimate_is_bit_identical_for_any_thread_count() {
    // The report pipeline that feeds the spectral operator is sharded
    // across the pool, and on grids of side ≥ 96 its convolutions split
    // across the pool too: the estimate must be bit-identical for any
    // thread count. b̂ = 16 on a d = 48 grid pads to a 96×96 transform,
    // the size the `stream-fft` benchmark runs at.
    let grid = Grid2D::new(BoundingBox::unit(), 48);
    let points = span_points(SHARD_SIZE + 777);
    // Bounded, tolerance-free EM: every run walks the same 25 iterations.
    let em = dam_fo::em::EmParams { max_iters: 25, rel_tol: 0.0, gain_tol: 0.0 };
    let estimate_with = |threads: Option<usize>| {
        let config = DamConfig { b_hat: Some(16), em, ..DamConfig::dam(2.0) }.with_threads(threads);
        let mut rng = seeded(4321);
        DamEstimator::new(config).estimate(&points, &grid, &mut rng)
    };
    let sequential = estimate_with(Some(1));
    for threads in [Some(2), Some(8), None] {
        let parallel = estimate_with(threads);
        assert_eq!(
            bits(sequential.values()),
            bits(parallel.values()),
            "FFT backend with threads {threads:?} must match the sequential path bit-for-bit"
        );
    }
}

#[test]
fn report_batch_matches_explicit_sequential_shard_loop() {
    let grid = Grid2D::new(BoundingBox::unit(), 5);
    let config = DamConfig::dam(1.5);
    let client = DamClient::new(grid, &config);
    let master_seed = 0xDEC0DE;
    // Finite points outside the unit square: the batch clamps them onto
    // the covered square, which must land in the edge cell `report`
    // buckets them into.
    let out_of_domain: Vec<Point> = span_points(SHARD_SIZE + 5)
        .into_iter()
        .map(|p| Point::new(3.0 * p.x - 1.0, 1.0 - 4.0 * p.y))
        .collect();

    for points in [span_points(3 * SHARD_SIZE + 17), out_of_domain] {
        // Reference: run every shard in order on one thread, driving the
        // per-point `report` API with the shard's derived stream by hand.
        let od = client.kernel().out_d() as usize;
        let mut reference = vec![0.0f64; od * od];
        for s in 0..n_shards(points.len()) {
            let mut rng = shard_rng(master_seed, s as u64);
            for &p in &points[shard_range(s, points.len())] {
                let noisy = client.report(p, &mut rng);
                reference[noisy.iy as usize * od + noisy.ix as usize] += 1.0;
            }
        }

        for threads in [Some(1), Some(2), Some(8), None] {
            let batch = client.report_batch(&points, master_seed, threads);
            assert_eq!(
                bits(&reference),
                bits(&batch),
                "threads {threads:?} must reproduce the sequential shard loop"
            );
        }
    }
}

#[test]
fn master_seed_comes_from_one_rng_draw() {
    // The caller's RNG must advance identically regardless of batch size
    // or thread count: estimate() takes exactly one u64 from it.
    use rand::RngCore;
    let grid = Grid2D::new(BoundingBox::unit(), 4);
    let est = DamEstimator::new(DamConfig::dam(1.0));
    let mut rng = seeded(7);
    est.estimate(&span_points(500), &grid, &mut rng);
    let after_small: u64 = rng.next_u64();
    let mut rng = seeded(7);
    est.estimate(&span_points(SHARD_SIZE + 999), &grid, &mut rng);
    let after_large: u64 = rng.next_u64();
    assert_eq!(after_small, after_large);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merged shard counts always account for every report exactly once,
    /// for any batch size, seed and thread count.
    #[test]
    fn merged_shard_counts_sum_to_n_reports(
        n in 1usize..(3 * SHARD_SIZE),
        master_seed in 0u64..u64::MAX,
        threads in 1usize..9,
    ) {
        use rand::Rng;
        let counts = sharded_accumulate(n, 23, master_seed, Some(threads), |range, rng, buf| {
            for _ in range {
                buf[rng.gen_range(0usize..23)] += 1.0;
            }
        });
        prop_assert_eq!(counts.iter().sum::<f64>(), n as f64);
    }

    /// The same invariant through the real client: a report batch is a
    /// whole-number histogram summing to the number of points.
    #[test]
    fn report_batch_counts_sum_to_n_points(
        n in 1usize..20_000,
        master_seed in 0u64..u64::MAX,
    ) {
        let grid = Grid2D::new(BoundingBox::unit(), 4);
        let client = DamClient::new(grid, &DamConfig::dam(1.0));
        let counts = client.report_batch(&span_points(n), master_seed, None);
        prop_assert!(counts.iter().all(|c| c.fract() == 0.0 && *c >= 0.0));
        prop_assert_eq!(counts.iter().sum::<f64>(), n as f64);
    }
}
