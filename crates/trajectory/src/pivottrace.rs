//! PivotTrace (Zhang et al., VLDB 2023 \[30\]) — pivot-based trajectory
//! collection under ε-LDP.
//!
//! Each user selects a small set of evenly spaced *pivot* points from
//! their trajectory (always including the endpoints), perturbs each pivot
//! cell independently with a bounded exponential mechanism over the grid
//! (`Pr[c|v] ∝ exp(−(ε_p/2)·dis(c, v)/diam)`, which is exactly
//! ε_p-LDP because the normalised utility has range 1), and submits the
//! perturbed pivots plus the (bucketed) original length. The analyst
//! reconstructs each trajectory by interpolating linearly between the
//! perturbed pivots. Budget: with `m` pivots each perturbation runs at
//! `ε/m` by sequential composition.

use crate::mechanism::TrajectoryMechanism;
use crate::traj::Trajectory;
use dam_fo::alias::AliasTable;
#[cfg(test)]
use dam_geo::Point;
use dam_geo::{CellIndex, Grid2D, Histogram2D};
use rand::RngCore;

/// The PivotTrace estimator.
#[derive(Debug, Clone, Copy)]
pub struct PivotTrace {
    eps: f64,
    /// Maximum number of pivots per trajectory.
    max_pivots: usize,
}

impl PivotTrace {
    /// Creates the mechanism with the reference configuration (at most 5
    /// pivots).
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        Self { eps, max_pivots: 5 }
    }

    /// Evenly spaced pivot indices including both endpoints.
    fn pivot_indices(len: usize, max_pivots: usize) -> Vec<usize> {
        if len <= max_pivots {
            return (0..len).collect();
        }
        (0..max_pivots)
            .map(|k| (k as f64 / (max_pivots - 1) as f64 * (len - 1) as f64).round() as usize)
            .collect()
    }

    /// Builds the bounded-exponential-mechanism sampler for one true cell.
    fn pivot_sampler(grid: &Grid2D, v: CellIndex, eps_p: f64) -> AliasTable {
        let d = grid.d() as f64;
        let diam = (d * d + d * d).sqrt();
        let weights: Vec<f64> = (0..grid.n_cells())
            .map(|i| {
                let c = grid.unflat(i);
                let dist = (c.ix as f64 - v.ix as f64).hypot(c.iy as f64 - v.iy as f64);
                (-(eps_p / 2.0) * dist / diam).exp()
            })
            .collect();
        AliasTable::new(&weights)
    }

    /// Grid cells along the straight segment between two cells, inclusive,
    /// with `steps` samples (a supercover interpolation).
    fn interpolate(a: CellIndex, b: CellIndex, steps: usize) -> Vec<CellIndex> {
        let steps = steps.max(1);
        (0..=steps)
            .map(|k| {
                let t = k as f64 / steps as f64;
                let x = a.ix as f64 + t * (b.ix as f64 - a.ix as f64);
                let y = a.iy as f64 + t * (b.iy as f64 - a.iy as f64);
                CellIndex::new(x.round() as u32, y.round() as u32)
            })
            .collect()
    }
}

impl TrajectoryMechanism for PivotTrace {
    fn name(&self) -> String {
        "PivotTrace".to_string()
    }

    fn estimate_distribution(
        &self,
        trajs: &[Trajectory],
        grid: &Grid2D,
        rng: &mut dyn RngCore,
    ) -> Histogram2D {
        assert!(!trajs.is_empty(), "cannot estimate from zero trajectories");
        let mut hist = Histogram2D::zeros(grid.clone());
        // Cache samplers per (cell, pivot-count) — the alias table is the
        // dominant cost and trajectories revisit cells heavily. Ordered
        // map, so any future iteration over the cache (stats, eviction)
        // is deterministic by construction.
        let mut cache: std::collections::BTreeMap<(u32, u32, usize), AliasTable> =
            std::collections::BTreeMap::new();

        for t in trajs {
            let idx = Self::pivot_indices(t.len(), self.max_pivots);
            let m = idx.len();
            let eps_p = self.eps / m as f64;
            // Perturb each pivot cell.
            let noisy: Vec<CellIndex> = idx
                .iter()
                .map(|&i| {
                    let v = grid.cell_of(t.points[i]);
                    let sampler = cache
                        .entry((v.ix, v.iy, m))
                        .or_insert_with(|| Self::pivot_sampler(grid, v, eps_p));
                    grid.unflat(sampler.sample(rng))
                })
                .collect();
            // Reconstruct: interpolate between consecutive noisy pivots,
            // spending as many samples as the original segment length so
            // point counts are preserved.
            for (seg, w) in noisy.windows(2).enumerate() {
                let seg_len = idx[seg + 1] - idx[seg];
                for c in Self::interpolate(w[0], w[1], seg_len) {
                    hist.add_cell(c);
                }
            }
            if noisy.len() == 1 {
                hist.add_cell(noisy[0]);
            }
        }
        hist.normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pivot_indices_include_endpoints() {
        let idx = PivotTrace::pivot_indices(100, 5);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx[0], 0);
        assert_eq!(*idx.last().unwrap(), 99);
        // Short trajectories keep every point.
        assert_eq!(PivotTrace::pivot_indices(3, 5), vec![0, 1, 2]);
    }

    #[test]
    fn interpolation_connects_cells() {
        let path = PivotTrace::interpolate(CellIndex::new(0, 0), CellIndex::new(4, 2), 4);
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], CellIndex::new(0, 0));
        assert_eq!(path[4], CellIndex::new(4, 2));
    }

    #[test]
    fn pivot_mechanism_is_ldp_bounded() {
        // Ratio of sampling probabilities for two different true cells is
        // at most e^{eps_p} by construction; verify on the weight level.
        use dam_geo::BoundingBox;
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let eps_p = 1.0;
        let d = 6.0f64;
        let diam = (2.0 * d * d).sqrt();
        let w = |v: CellIndex, c: CellIndex| {
            let dist = (c.ix as f64 - v.ix as f64).hypot(c.iy as f64 - v.iy as f64);
            (-(eps_p / 2.0) * dist / diam).exp()
        };
        let (v1, v2) = (CellIndex::new(0, 0), CellIndex::new(5, 5));
        let z1: f64 = grid.cells().map(|c| w(v1, c)).sum();
        let z2: f64 = grid.cells().map(|c| w(v2, c)).sum();
        for c in grid.cells() {
            let ratio = (w(v1, c) / z1) / (w(v2, c) / z2);
            assert!(ratio <= eps_p.exp() * (1.0 + 1e-9), "cell {c:?}: ratio {ratio}");
        }
    }

    #[test]
    fn estimate_is_valid_distribution() {
        use dam_geo::BoundingBox;
        let mut rng = rand::rngs::StdRng::seed_from_u64(200);
        let trajs: Vec<Trajectory> = (0..100)
            .map(|i| Trajectory {
                points: (0..30)
                    .map(|j| {
                        Point::new(
                            (0.2 + 0.02 * j as f64).min(0.99),
                            (0.1 + 0.005 * i as f64).min(0.99),
                        )
                    })
                    .collect(),
            })
            .collect();
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let est = PivotTrace::new(1.5).estimate_distribution(&trajs, &grid, &mut rng);
        assert!((est.total() - 1.0).abs() < 1e-9);
        assert!(est.values().iter().all(|&v| v >= 0.0));
    }
}
