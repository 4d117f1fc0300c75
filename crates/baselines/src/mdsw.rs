//! MDSW — the Multi-dimensional Square Wave mechanism (Yang et al. \[10\]).
//!
//! Each user perturbs their x and y coordinates independently with the
//! 1-D Square Wave mechanism; the analyst recovers each marginal with EMS
//! and multiplies them. Because only marginals are estimated, all
//! cross-dimension correlation is lost — the failure mode the paper's DAM
//! is designed to avoid (§VII-C2: "MDSW only retains ordinal relationship
//! of x-coordinate and y-coordinate").
//!
//! Every user reports both coordinates, each under `ε/2` (the paper's
//! budget split).

use dam_core::shard::sharded_accumulate;
use dam_core::SpatialEstimator;
use dam_fo::em::{expectation_maximization, smooth_1d, Channel, EmParams, EmWorkspace};
use dam_fo::sw::SquareWave;
use dam_geo::{Grid2D, Histogram2D, Point};
use rand::RngCore;

/// The MDSW estimator.
#[derive(Debug, Clone, Copy)]
pub struct Mdsw {
    eps: f64,
    em: EmParams,
    threads: Option<usize>,
}

impl Mdsw {
    /// Creates MDSW with the paper's half-split budget.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        Self { eps, em: EmParams::default(), threads: None }
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

    /// Runs EMS on one dimension's binned output counts through the
    /// Square Wave `channel`, returning a `d`-bin marginal estimate.
    fn estimate_marginal(channel: &Channel, counts: &[f64], em: EmParams) -> Vec<f64> {
        debug_assert_eq!(counts.len(), channel.n_out);
        let ems: Option<&dyn Fn(&mut [f64])> = Some(&smooth_1d);
        expectation_maximization(channel, counts, None, ems, em, &mut EmWorkspace::new()).estimate
    }
}

impl SpatialEstimator for Mdsw {
    fn name(&self) -> String {
        "MDSW".to_string()
    }

    fn estimate(&self, points: &[Point], grid: &Grid2D, rng: &mut dyn RngCore) -> Histogram2D {
        assert!(!points.is_empty(), "cannot estimate from zero points");
        let d = grid.d() as usize;
        let bbox = grid.bbox();
        let sw = SquareWave::new(self.eps / 2.0);
        // Per-dimension binned output counts, sampled shard-parallel with
        // deterministic per-shard streams: the buffer holds the x counts
        // followed by the y counts. Both axes share one transition matrix,
        // which bins the reports and then becomes the EMS channel.
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
                    bx[m.output_bin(sw.perturb(x, rng))] += 1.0;
                    by[m.output_bin(sw.perturb(y, rng))] += 1.0;
                }
            },
        );
        let channel = Channel::new(n_out, m.n_in, m.data);
        let (x_counts, y_counts) = counts.split_at(n_out);
        let fx = Self::estimate_marginal(&channel, x_counts, self.em);
        let fy = Self::estimate_marginal(&channel, y_counts, self.em);
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
        let est = Mdsw::new(1.0).estimate(&pts, &grid(4), &mut rng);
        assert!((est.total() - 1.0).abs() < 1e-9);
        assert!(est.values().iter().all(|&v| v >= 0.0));
    }

    /// FNV-1a fold of `Mdsw::estimate`'s bits on the two shapes below
    /// (split-half reports, per-axis EMS, product of marginals). Moving it
    /// is a behaviour change of the baseline, not a refactor.
    const MDSW_ESTIMATE_BITS: u64 = 0x102d_9889_4dd6_111b;

    #[test]
    fn estimate_matches_pinned_bits() {
        let pts: Vec<Point> = (0..6_000)
            .map(|i| Point::new((i % 97) as f64 / 97.0, ((i * 13) % 61) as f64 / 61.0))
            .collect();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (eps, d) in [(1.0, 5), (3.5, 16)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(114 + u64::from(d));
            let est = Mdsw::new(eps).estimate(&pts, &grid(d), &mut rng);
            for byte in est.values().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, MDSW_ESTIMATE_BITS, "MDSW estimate bits moved: {h:#018x}");
    }

    #[test]
    fn names_match_labels() {
        assert_eq!(Mdsw::new(1.0).name(), "MDSW");
    }
}
