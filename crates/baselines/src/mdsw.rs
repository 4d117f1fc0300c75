//! MDSW — the Multi-dimensional Square Wave mechanism (Yang et al. \[10\]).
//!
//! Each user perturbs their x and y coordinates independently with the
//! 1-D Square Wave mechanism; the analyst recovers each marginal with EMS
//! and multiplies them. Because only marginals are estimated, all
//! cross-dimension correlation is lost — the failure mode the paper's DAM
//! is designed to avoid (§VII-C2: "MDSW only retains ordinal relationship
//! of x-coordinate and y-coordinate").
//!
//! Two budget strategies are provided: the default splits `ε` in half per
//! dimension (every user reports both coordinates); the alternative
//! samples one dimension per user and spends the full `ε` on it (an
//! ablation of the standard split-vs-sample trade-off).

use dam_core::shard::sharded_accumulate;
use dam_core::SpatialEstimator;
use dam_fo::em::{expectation_maximization, smooth_1d, Channel, EmParams, EmWorkspace};
use dam_fo::sw::SquareWave;
use dam_geo::{Grid2D, Histogram2D, Point};
use rand::{Rng, RngCore};

/// Budget allocation across the two dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdswBudget {
    /// Report both dimensions, each under `ε/2` (the paper's MDSW).
    SplitHalf,
    /// Report one uniformly chosen dimension under the full `ε`.
    SampleOne,
    /// Report both dimensions under `ε/2` each, but estimate the *joint*
    /// distribution with EM over the product channel `M_x ⊗ M_y` instead
    /// of multiplying marginals. Recovers cross-dimension correlation the
    /// product form destroys, at quadratic channel cost — the natural
    /// "fixed MDSW" ablation the paper's critique implies.
    JointEm,
}

/// The MDSW estimator.
#[derive(Debug, Clone, Copy)]
pub struct Mdsw {
    eps: f64,
    budget: MdswBudget,
    em: EmParams,
    threads: Option<usize>,
}

impl Mdsw {
    /// Creates MDSW with the paper's half-split budget.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        Self { eps, budget: MdswBudget::SplitHalf, em: EmParams::default(), threads: None }
    }

    /// Selects a budget strategy.
    pub fn with_budget(mut self, budget: MdswBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the report-pipeline thread count (`None` = all cores; the
    /// output is bit-identical for any value).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Privacy budget.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Normalizes a coordinate into `[0,1]` over the grid's square extent.
    fn norm_coord(grid: &Grid2D, value: f64, min: f64) -> f64 {
        ((value - min) / grid.bbox().side()).clamp(0.0, 1.0)
    }

    /// Runs EMS on one dimension's binned output counts, returning a
    /// `d`-bin marginal estimate.
    fn estimate_marginal(sw: &SquareWave, d: usize, counts: &[f64], em: EmParams) -> Vec<f64> {
        let matrix = sw.transition_matrix(d);
        debug_assert_eq!(counts.len(), matrix.n_out);
        let channel = Channel::new(matrix.n_out, matrix.n_in, matrix.data.clone());
        let ems: Option<&dyn Fn(&mut [f64])> = Some(&smooth_1d);
        expectation_maximization(&channel, counts, None, ems, em, &mut EmWorkspace::new()).estimate
    }

    /// Joint-EM estimation: both coordinates are perturbed independently,
    /// so the joint channel factorises as `P((ox,oy) | (ix,iy)) =
    /// M[ox][ix]·M[oy][iy]`; EM over that product channel estimates the
    /// full 2-D distribution, preserving cross-dimension correlation.
    fn estimate_joint(
        &self,
        sw: &SquareWave,
        points: &[Point],
        grid: &Grid2D,
        rng: &mut dyn RngCore,
    ) -> Histogram2D {
        let d = grid.d() as usize;
        let bbox = grid.bbox();
        let m = sw.transition_matrix(d);
        let n_out_dim = m.n_out;
        let n_out = n_out_dim * n_out_dim;
        let n_in = d * d;
        // Joint output counts, sampled shard-parallel with deterministic
        // per-shard streams.
        let master_seed = rng.next_u64();
        let counts = sharded_accumulate(
            points.len(),
            n_out,
            master_seed,
            self.threads,
            |range, rng, buf| {
                for &p in &points[range] {
                    let x = Self::norm_coord(grid, p.x, bbox.min_x);
                    let y = Self::norm_coord(grid, p.y, bbox.min_y);
                    let ox = m.output_bin(sw.perturb(x, rng));
                    let oy = m.output_bin(sw.perturb(y, rng));
                    buf[oy * n_out_dim + ox] += 1.0;
                }
            },
        );
        // Product channel, row-major (o, i) with o = oy*n_out_dim + ox and
        // i = iy*d + ix.
        let mut data = vec![0.0f64; n_out * n_in];
        for oy in 0..n_out_dim {
            for ox in 0..n_out_dim {
                let o = oy * n_out_dim + ox;
                for iy in 0..d {
                    for ix in 0..d {
                        data[o * n_in + iy * d + ix] = m.at(ox, ix) * m.at(oy, iy);
                    }
                }
            }
        }
        let channel = Channel::new(n_out, n_in, data);
        // Plain EM (no smoothing): on coarse grids the 3×3 smoother couples
        // every pair of cells and washes out exactly the correlation this
        // variant exists to preserve; the maximum-likelihood estimate is
        // the honest choice here.
        let est = expectation_maximization(
            &channel,
            &counts,
            None,
            None,
            self.em,
            &mut EmWorkspace::new(),
        )
        .estimate;
        Histogram2D::from_values(grid.clone(), est).normalized()
    }
}

impl SpatialEstimator for Mdsw {
    fn name(&self) -> String {
        match self.budget {
            MdswBudget::SplitHalf => "MDSW".to_string(),
            MdswBudget::SampleOne => "MDSW-S1".to_string(),
            MdswBudget::JointEm => "MDSW-J".to_string(),
        }
    }

    fn estimate(&self, points: &[Point], grid: &Grid2D, rng: &mut dyn RngCore) -> Histogram2D {
        assert!(!points.is_empty(), "cannot estimate from zero points");
        let d = grid.d() as usize;
        let bbox = grid.bbox();
        let (eps_dim, both) = match self.budget {
            MdswBudget::SplitHalf | MdswBudget::JointEm => (self.eps / 2.0, true),
            MdswBudget::SampleOne => (self.eps, false),
        };
        let sw = SquareWave::new(eps_dim);
        if self.budget == MdswBudget::JointEm {
            return self.estimate_joint(&sw, points, grid, rng);
        }
        // Per-dimension binned output counts, sampled shard-parallel with
        // deterministic per-shard streams: the buffer holds the x counts
        // followed by the y counts.
        let m = sw.transition_matrix(d);
        let n_out = m.n_out;
        let master_seed = rng.next_u64();
        let counts = sharded_accumulate(
            points.len(),
            2 * n_out,
            master_seed,
            self.threads,
            |range, rng, buf| {
                let (bx, by) = buf.split_at_mut(n_out);
                for &p in &points[range] {
                    let x = Self::norm_coord(grid, p.x, bbox.min_x);
                    let y = Self::norm_coord(grid, p.y, bbox.min_y);
                    if both {
                        bx[m.output_bin(sw.perturb(x, rng))] += 1.0;
                        by[m.output_bin(sw.perturb(y, rng))] += 1.0;
                    } else if rng.gen::<bool>() {
                        bx[m.output_bin(sw.perturb(x, rng))] += 1.0;
                    } else {
                        by[m.output_bin(sw.perturb(y, rng))] += 1.0;
                    }
                }
            },
        );
        let (x_counts, y_counts) = counts.split_at(n_out);
        let fx = if x_counts.iter().sum::<f64>() == 0.0 {
            vec![1.0 / d as f64; d]
        } else {
            Self::estimate_marginal(&sw, d, x_counts, self.em)
        };
        let fy = if y_counts.iter().sum::<f64>() == 0.0 {
            vec![1.0 / d as f64; d]
        } else {
            Self::estimate_marginal(&sw, d, y_counts, self.em)
        };
        // Joint = outer product of the marginals.
        let mut values = vec![0.0f64; d * d];
        for iy in 0..d {
            for ix in 0..d {
                values[iy * d + ix] = fx[ix] * fy[iy];
            }
        }
        Histogram2D::from_values(grid.clone(), values).normalized()
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
    fn recovers_axis_aligned_cluster() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(110);
        // Cluster around (0.1, 0.9): MDSW handles marginal structure well.
        let pts: Vec<Point> = (0..30_000)
            .map(|i| {
                Point::new(
                    0.1 + 0.02 * ((i % 10) as f64 / 10.0 - 0.5),
                    0.9 + 0.02 * ((i % 7) as f64 / 7.0 - 0.5),
                )
            })
            .collect();
        let est = Mdsw::new(4.0).estimate(&pts, &grid(5), &mut rng);
        // EMS smoothing caps each marginal's peak near 0.5, so the joint
        // product peaks near 0.25; the cluster cell must still dominate.
        let peak = est.get(CellIndex::new(0, 4));
        assert!(peak > 0.2, "peak {peak}");
        let max = est.values().iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(peak, max, "cluster cell must be the argmax");
    }

    #[test]
    fn product_form_loses_correlation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(111);
        // Anti-diagonal data: mass at (0.1,0.1) and (0.9,0.9) only. A
        // product of marginals must leak mass onto (0.1,0.9) and
        // (0.9,0.1) — the correlation failure the paper describes.
        let pts: Vec<Point> = (0..40_000)
            .map(|i| if i % 2 == 0 { Point::new(0.1, 0.1) } else { Point::new(0.9, 0.9) })
            .collect();
        let est = Mdsw::new(6.0).estimate(&pts, &grid(2), &mut rng);
        let on_diag = est.get(CellIndex::new(0, 0)) + est.get(CellIndex::new(1, 1));
        let off_diag = est.get(CellIndex::new(0, 1)) + est.get(CellIndex::new(1, 0));
        // True distribution has off_diag = 0; MDSW's product form forces
        // off_diag ≈ on_diag ≈ 0.5.
        assert!(off_diag > 0.3, "off-diagonal mass {off_diag} should be large for MDSW");
        assert!((on_diag + off_diag - 1.0).abs() < 1e-9);
    }

    #[test]
    fn output_is_valid_distribution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(112);
        let pts: Vec<Point> = (0..5_000)
            .map(|i| Point::new((i % 100) as f64 / 100.0, (i % 37) as f64 / 37.0))
            .collect();
        for budget in [MdswBudget::SplitHalf, MdswBudget::SampleOne, MdswBudget::JointEm] {
            let est = Mdsw::new(1.0).with_budget(budget).estimate(&pts, &grid(4), &mut rng);
            assert!((est.total() - 1.0).abs() < 1e-9, "{budget:?}");
            assert!(est.values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn joint_em_recovers_correlation_the_product_loses() {
        // Anti-diagonal data: the product form must leak ~half the mass
        // off-diagonal; joint EM keeps most of it on the diagonal.
        let mut rng = rand::rngs::StdRng::seed_from_u64(113);
        let pts: Vec<Point> = (0..60_000)
            .map(|i| if i % 2 == 0 { Point::new(0.1, 0.1) } else { Point::new(0.9, 0.9) })
            .collect();
        let on_diag = |h: &Histogram2D| h.get(CellIndex::new(0, 0)) + h.get(CellIndex::new(1, 1));
        let product = Mdsw::new(6.0).estimate(&pts, &grid(2), &mut rng);
        let joint =
            Mdsw::new(6.0).with_budget(MdswBudget::JointEm).estimate(&pts, &grid(2), &mut rng);
        assert!(
            on_diag(&joint) > on_diag(&product) + 0.2,
            "joint {:.3} should hold far more diagonal mass than product {:.3}",
            on_diag(&joint),
            on_diag(&product)
        );
        assert!(on_diag(&joint) > 0.8, "joint diagonal mass {:.3}", on_diag(&joint));
    }

    #[test]
    fn names_match_labels() {
        assert_eq!(Mdsw::new(1.0).name(), "MDSW");
        assert_eq!(Mdsw::new(1.0).with_budget(MdswBudget::SampleOne).name(), "MDSW-S1");
        assert_eq!(Mdsw::new(1.0).with_budget(MdswBudget::JointEm).name(), "MDSW-J");
    }
}
