//! SEM-Geo-I — the Subset Exponential Mechanism under ε-Geo-I (Wang et
//! al. \[12\]).
//!
//! Each user reports a *k-subset* of the grid-cell domain, drawn with
//! probability proportional to `Π_{u∈S} w_u(v)` where
//! `w_u(v) = exp(−(ε/2k)·dis(u, v))` and `dis` is the Euclidean distance
//! between cell centers in cell units. That makes
//! `Pr[S|v] ∝ exp(−(ε/2)·avg_{u∈S} dis(u, v))`, and the log-ratio between
//! any two inputs is bounded by `ε · dis(v₁, v₂)` (half from the utility
//! difference, half from the normaliser shift) — exactly ε-Geo-I.
//!
//! The subset size follows the paper's complexity remark (`n^k` with
//! `k = n/e^ε`): `k = clamp(⌈n / e^ε⌉, 1, n−1)`.
//!
//! Estimation inverts the inclusion-probability matrix
//! `Π[u][v] = Pr[u ∈ S | v]` (computed exactly from elementary symmetric
//! polynomials) with multiplicative Richardson–Lucy updates, the EM
//! algorithm for this Poisson-counts inverse problem.

use crate::subset::{inclusion_probabilities, LogEsp};
use dam_core::shard::sharded_accumulate;
use dam_core::SpatialEstimator;
use dam_geo::{Grid2D, Histogram2D, Point};
use rand::RngCore;

/// Richardson–Lucy iterations of the estimate's inversion step.
const RL_ITERS: usize = 200;

/// The SEM-Geo-I estimator.
#[derive(Debug, Clone, Copy)]
pub struct SemGeoI {
    eps_geo: f64,
    /// Explicit subset size; `None` derives `k = ⌈n/e^ε⌉`.
    k: Option<usize>,
    threads: Option<usize>,
}

impl SemGeoI {
    /// Creates the mechanism at Geo-I level `eps_geo` (privacy loss
    /// `eps_geo · dis(v, ṽ)`, distances in cell units).
    pub fn new(eps_geo: f64) -> Self {
        assert!(eps_geo > 0.0 && eps_geo.is_finite(), "privacy budget must be positive");
        Self { eps_geo, k: None, threads: None }
    }

    /// Overrides the subset size.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "subset size must be at least 1");
        self.k = Some(k);
        self
    }

    /// Sets the report-pipeline thread count (`None` = all cores; the
    /// output is bit-identical for any value).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The Geo-I budget.
    #[inline]
    pub fn eps_geo(&self) -> f64 {
        self.eps_geo
    }

    /// Resolves the subset size for a domain of `n` cells.
    pub fn resolve_k(&self, n: usize) -> usize {
        let derived = (n as f64 / self.eps_geo.exp()).ceil() as usize;
        self.k.unwrap_or(derived).clamp(1, (n - 1).max(1))
    }

    /// Log-weights `ln w_u(v) = −(ε/2k)·dis(u, v)` for one input cell.
    /// Public so the Local Privacy calibration in `dam-privacy` can reuse
    /// the exact channel definition.
    pub fn log_weights(&self, centers: &[Point], v: usize, k: usize) -> Vec<f64> {
        let scale = self.eps_geo / (2.0 * k as f64);
        centers.iter().map(|&c| -scale * c.dist(centers[v])).collect()
    }

    /// Cell centers in cell units (`(ix + ½, iy + ½)`).
    pub fn cell_centers(grid: &Grid2D) -> Vec<Point> {
        (0..grid.n_cells())
            .map(|i| {
                let c = grid.unflat(i);
                Point::new(c.ix as f64 + 0.5, c.iy as f64 + 0.5)
            })
            .collect()
    }
}

impl SpatialEstimator for SemGeoI {
    fn name(&self) -> String {
        "SEM-Geo-I".to_string()
    }

    fn estimate(&self, points: &[Point], grid: &Grid2D, rng: &mut dyn RngCore) -> Histogram2D {
        assert!(!points.is_empty(), "cannot estimate from zero points");
        let n = grid.n_cells();
        if n == 1 {
            return Histogram2D::from_values(grid.clone(), vec![1.0]);
        }
        let k = self.resolve_k(n);
        let centers = Self::cell_centers(grid);

        // Group users by input cell once, and build each occupied cell's
        // O(nk) sampling table once — the tables are read-only, so every
        // shard shares them (only RNG draws must be per-shard for the
        // thread-count-invariance guarantee).
        let mut global_counts = vec![0u64; n];
        for &p in points {
            global_counts[grid.flat(grid.cell_of(p))] += 1;
        }
        let tables: Vec<Option<(Vec<f64>, LogEsp)>> = global_counts
            .iter()
            .enumerate()
            .map(|(v, &users)| {
                (users > 0).then(|| {
                    let lw = self.log_weights(&centers, v, k);
                    let esp = LogEsp::backward(&lw, k);
                    (lw, esp)
                })
            })
            .collect();

        // Randomized reporting, shard-parallel with deterministic
        // per-shard streams: each shard accumulates inclusion counts into
        // a private buffer.
        let master_seed = rng.next_u64();
        let incl_counts =
            sharded_accumulate(points.len(), n, master_seed, self.threads, |range, rng, buf| {
                let mut cell_counts = vec![0u64; n];
                for &p in &points[range] {
                    cell_counts[grid.flat(grid.cell_of(p))] += 1;
                }
                for (v, &users) in cell_counts.iter().enumerate() {
                    if users == 0 {
                        continue;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "tables[v] is built above for every cell with users > 0"
                    )]
                    let (lw, esp) = tables[v].as_ref().expect("occupied cell must have a table");
                    for _ in 0..users {
                        for u in esp.sample(lw, rng) {
                            buf[u] += 1.0;
                        }
                    }
                }
            });

        // Exact inclusion-probability matrix Π[u][v], row-major over u.
        let mut pi = vec![0.0f64; n * n];
        for v in 0..n {
            let lw = self.log_weights(&centers, v, k);
            let probs = inclusion_probabilities(&lw, k);
            for (u, p) in probs.into_iter().enumerate() {
                pi[u * n + v] = p;
            }
        }

        // Richardson–Lucy inversion of E[c_u] = N · Σ_v Π[u][v] f_v.
        let n_users = points.len() as f64;
        let observed: Vec<f64> = incl_counts.iter().map(|&c| c / n_users).collect();
        let mut f = vec![1.0 / n as f64; n];
        let mut denom = vec![0.0f64; n];
        for v in 0..n {
            for u in 0..n {
                denom[v] += pi[u * n + v];
            }
        }
        for _ in 0..RL_ITERS {
            // Predicted inclusion rates.
            let mut pred = vec![0.0f64; n];
            for u in 0..n {
                let mut acc = 0.0;
                for v in 0..n {
                    acc += pi[u * n + v] * f[v];
                }
                pred[u] = acc;
            }
            let mut f_new = vec![0.0f64; n];
            for v in 0..n {
                let mut acc = 0.0;
                for u in 0..n {
                    if pred[u] > 0.0 {
                        acc += pi[u * n + v] * observed[u] / pred[u];
                    }
                }
                f_new[v] = f[v] * acc / denom[v].max(1e-300);
            }
            let total: f64 = f_new.iter().sum();
            if total > 0.0 {
                for x in &mut f_new {
                    *x /= total;
                }
            }
            f = f_new;
        }
        Histogram2D::from_values(grid.clone(), f)
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
    fn k_follows_complexity_rule() {
        let sem = SemGeoI::new(1.0);
        // n/e^1 = 9/2.718 → ceil = 4.
        assert_eq!(sem.resolve_k(9), 4);
        // Large ε → k pinned to 1.
        assert_eq!(SemGeoI::new(9.0).resolve_k(9), 1);
        // Override wins.
        assert_eq!(SemGeoI::new(1.0).with_k(2).resolve_k(9), 2);
    }

    #[test]
    fn recovers_concentrated_distribution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(120);
        let pts: Vec<Point> = (0..8_000).map(|_| Point::new(0.55, 0.55)).collect();
        let est = SemGeoI::new(4.0).estimate(&pts, &grid(3), &mut rng);
        // All mass in cell (1,1); SEM should put the plurality there.
        let peak = est.get(CellIndex::new(1, 1));
        assert!(peak > 0.4, "peak {peak}");
        assert!((est.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn geo_i_ratio_is_bounded_empirically() {
        // Sample many subsets from two neighbouring inputs and compare
        // per-item inclusion frequencies: ratios are bounded by
        // e^{ε·dis} with dis = 1 cell.
        let mut rng = rand::rngs::StdRng::seed_from_u64(121);
        let g = grid(3);
        let sem = SemGeoI::new(1.0);
        let centers = SemGeoI::cell_centers(&g);
        let k = sem.resolve_k(9);
        let trials = 120_000;
        let mut freq = [vec![0.0f64; 9], vec![0.0f64; 9]];
        for (slot, &v) in [4usize, 5usize].iter().enumerate() {
            let lw = sem.log_weights(&centers, v, k);
            let esp = LogEsp::backward(&lw, k);
            for _ in 0..trials {
                for u in esp.sample(&lw, &mut rng) {
                    freq[slot][u] += 1.0;
                }
            }
        }
        let bound = (1.0f64 * 1.0).exp() * 1.2; // ε·dis = 1, 20% sampling slack
        for u in 0..9 {
            let (a, b) = (freq[0][u] / trials as f64, freq[1][u] / trials as f64);
            if a > 0.01 && b > 0.01 {
                let ratio = (a / b).max(b / a);
                assert!(ratio <= bound, "item {u}: ratio {ratio}");
            }
        }
    }

    #[test]
    fn single_cell_domain_is_trivial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(122);
        let pts = vec![Point::new(0.5, 0.5); 100];
        let est = SemGeoI::new(1.0).estimate(&pts, &grid(1), &mut rng);
        assert_eq!(est.values(), &[1.0]);
    }

    #[test]
    fn output_is_valid_distribution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let pts: Vec<Point> =
            (0..2_000).map(|i| Point::new((i % 13) as f64 / 13.0, (i % 7) as f64 / 7.0)).collect();
        let est = SemGeoI::new(2.0).estimate(&pts, &grid(4), &mut rng);
        assert!((est.total() - 1.0).abs() < 1e-9);
        assert!(est.values().iter().all(|&v| v >= 0.0 && v.is_finite()));
    }
}
