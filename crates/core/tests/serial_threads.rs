//! `threads: Some(1)` keeps a whole estimate on its caller's thread: the
//! sharded report pipeline and the spectral EM, whose transform would
//! otherwise split across cores at this padded side. One test per
//! process, because the pool's concurrency high-water mark is global.

use dam_core::fft::{next_fft_side, PARALLEL_FFT_MIN_SIDE};
use dam_core::{DamConfig, DamEstimator, SpatialEstimator};
use dam_fo::em::EmParams;
use dam_geo::rng::seeded;
use dam_geo::{BoundingBox, Grid2D, Point};

#[test]
fn one_thread_estimate_never_runs_two_threads() {
    let grid = Grid2D::new(BoundingBox::unit(), 64);
    let points: Vec<Point> = (0..20_000)
        .map(|i| Point::new((i % 101) as f64 / 101.0, ((i * 7) % 89) as f64 / 89.0))
        .collect();
    let config = DamConfig {
        b_hat: Some(14),
        em: EmParams { max_iters: 3, ..EmParams::default() },
        ..DamConfig::dam(5.0)
    }
    .with_threads(Some(1));
    // d + 2b̂ = 92 pads to 96, the smallest side that splits.
    assert_eq!(next_fft_side(64 + 2 * 14), PARALLEL_FFT_MIN_SIDE);
    let est = DamEstimator::new(config).estimate(&points, &grid, &mut seeded(31));
    assert!((est.total() - 1.0).abs() < 1e-9);
    assert_eq!(rayon::pool::max_observed_concurrency(), 1, "--threads 1 must run serially");
}
