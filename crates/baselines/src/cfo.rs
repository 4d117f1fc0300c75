//! Bucket+CFO — the categorical frequency oracle on grid cells.
//!
//! The strawman of the paper's introduction: treat the `d²` cells as
//! unordered categories and run a standard frequency oracle (GRR or OUE).
//! All spatial ordinal structure is discarded, which is what Example 1
//! criticises; it is included as the floor baseline for the ablation
//! benches.

use dam_core::shard::sharded_accumulate;
use dam_core::SpatialEstimator;
use dam_fo::{clamp_normalize, Grr, Oue};
use dam_geo::{Grid2D, Histogram2D, Point};
use rand::RngCore;

/// Which categorical oracle to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfoFlavor {
    /// Generalized Random Response.
    Grr,
    /// Optimized Unary Encoding.
    Oue,
}

/// Categorical frequency oracle over grid cells.
#[derive(Debug, Clone, Copy)]
pub struct CfoEstimator {
    eps: f64,
    flavor: CfoFlavor,
    threads: Option<usize>,
}

impl CfoEstimator {
    /// Creates the estimator.
    pub fn new(eps: f64, flavor: CfoFlavor) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        Self { eps, flavor, threads: None }
    }

    /// Sets the report-pipeline thread count (`None` = all cores; the
    /// output is bit-identical for any value).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }
}

impl SpatialEstimator for CfoEstimator {
    fn name(&self) -> String {
        match self.flavor {
            CfoFlavor::Grr => "CFO-GRR".to_string(),
            CfoFlavor::Oue => "CFO-OUE".to_string(),
        }
    }

    fn estimate(&self, points: &[Point], grid: &Grid2D, rng: &mut dyn RngCore) -> Histogram2D {
        assert!(!points.is_empty(), "cannot estimate from zero points");
        let n = grid.n_cells();
        if n == 1 {
            return Histogram2D::from_values(grid.clone(), vec![1.0]);
        }
        // One draw keys the deterministic per-shard streams of the
        // sharded report pipeline (bit-identical for any thread count).
        let master_seed = rng.next_u64();
        let mut est = match self.flavor {
            CfoFlavor::Grr => {
                let grr = Grr::new(n, self.eps);
                let counts = sharded_accumulate(
                    points.len(),
                    n,
                    master_seed,
                    self.threads,
                    |range, rng, buf| {
                        for &p in &points[range] {
                            let v = grid.flat(grid.cell_of(p));
                            buf[grr.perturb(v, rng)] += 1.0;
                        }
                    },
                );
                let counts: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
                grr.estimate(&counts)
            }
            CfoFlavor::Oue => {
                let oue = Oue::new(n, self.eps);
                let support = sharded_accumulate(
                    points.len(),
                    n,
                    master_seed,
                    self.threads,
                    |range, rng, buf| {
                        for &p in &points[range] {
                            let v = grid.flat(grid.cell_of(p));
                            let rep = oue.perturb(v, rng);
                            oue.accumulate(&rep, buf);
                        }
                    },
                );
                oue.estimate(&support, points.len())
            }
        };
        clamp_normalize(&mut est);
        Histogram2D::from_values(grid.clone(), est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_geo::{BoundingBox, CellIndex};
    use rand::SeedableRng;

    fn grid(d: u32) -> Grid2D {
        Grid2D::new(BoundingBox::unit(), d)
    }

    #[test]
    fn both_flavors_recover_clusters() {
        for (seed, flavor) in [(130u64, CfoFlavor::Grr), (131, CfoFlavor::Oue)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..60_000)
                .map(|i| if i % 4 == 0 { Point::new(0.1, 0.1) } else { Point::new(0.9, 0.9) })
                .collect();
            let est = CfoEstimator::new(3.0, flavor).estimate(&pts, &grid(3), &mut rng);
            let lo = est.get(CellIndex::new(0, 0));
            let hi = est.get(CellIndex::new(2, 2));
            assert!((lo - 0.25).abs() < 0.05, "{flavor:?}: lo {lo}");
            assert!((hi - 0.75).abs() < 0.05, "{flavor:?}: hi {hi}");
        }
    }

    #[test]
    fn output_is_valid_distribution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(132);
        let pts = vec![Point::new(0.3, 0.7); 500];
        for flavor in [CfoFlavor::Grr, CfoFlavor::Oue] {
            let est = CfoEstimator::new(0.5, flavor).estimate(&pts, &grid(4), &mut rng);
            assert!((est.total() - 1.0).abs() < 1e-9);
            assert!(est.values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn names_match_labels() {
        assert_eq!(CfoEstimator::new(1.0, CfoFlavor::Grr).name(), "CFO-GRR");
        assert_eq!(CfoEstimator::new(1.0, CfoFlavor::Oue).name(), "CFO-OUE");
    }
}
