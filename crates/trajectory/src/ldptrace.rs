//! LDPTrace (Du et al., VLDB 2023 \[29\]) — grid Markov trajectory
//! synthesis under ε-LDP.
//!
//! Each user holds one trajectory and splits the budget ε into three
//! equal parts, reporting through OUE frequency oracles:
//!
//! 1. the **start cell** (domain: the `d²` grid cells),
//! 2. the **trajectory length bucket** (geometric buckets over 2–200),
//! 3. one uniformly sampled **neighbour transition** `(cell, direction)`
//!    (domain: `d² × 8`).
//!
//! The analyst assembles a first-order Markov model (start distribution,
//! per-cell direction distribution, length distribution) and samples a
//! synthetic trajectory database from it; the synthetic point cloud is the
//! estimate. Spending most of the budget on *directions* rather than raw
//! density is exactly why its point-distribution W₂ trails DAM in
//! Figure 14.

use crate::mechanism::TrajectoryMechanism;
use crate::traj::Trajectory;
use dam_fo::{clamp_normalize, Oue};
use dam_geo::{CellIndex, Grid2D, Histogram2D};
use rand::{Rng, RngCore};

/// Geometric length-bucket edges covering the paper's 2–200 range.
const LEN_EDGES: [usize; 8] = [2, 4, 8, 16, 32, 64, 128, 200];

/// The nine step directions (dx, dy), including "stay" for degenerate
/// segments that do not change cell.
const DIRS: [(i64, i64); 9] =
    [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (0, 0)];

/// The LDPTrace estimator.
#[derive(Debug, Clone, Copy)]
pub struct LdpTrace {
    eps: f64,
    /// How many synthetic trajectories to sample (defaults to the input
    /// database size).
    synth_factor: f64,
}

impl LdpTrace {
    /// Creates the mechanism.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        Self { eps, synth_factor: 1.0 }
    }

    /// Length bucket index for a trajectory length.
    fn len_bucket(len: usize) -> usize {
        LEN_EDGES.iter().rposition(|&e| len >= e).unwrap_or(0)
    }

    /// A representative length drawn uniformly from a bucket.
    fn sample_len(bucket: usize, rng: &mut (impl Rng + ?Sized)) -> usize {
        let lo = LEN_EDGES[bucket];
        let hi = if bucket + 1 < LEN_EDGES.len() { LEN_EDGES[bucket + 1] } else { 201 };
        rng.gen_range(lo..hi.max(lo + 1))
    }
}

impl TrajectoryMechanism for LdpTrace {
    fn name(&self) -> String {
        "LDPTrace".to_string()
    }

    fn estimate_distribution(
        &self,
        trajs: &[Trajectory],
        grid: &Grid2D,
        rng: &mut dyn RngCore,
    ) -> Histogram2D {
        assert!(!trajs.is_empty(), "cannot estimate from zero trajectories");
        let d = grid.d() as usize;
        let n_cells = d * d;
        let eps_part = self.eps / 3.0;
        let n_users = trajs.len();

        // Oracles. OUE needs at least two categories; d = 1 degenerates.
        if n_cells < 2 {
            return Histogram2D::from_values(grid.clone(), vec![1.0]);
        }
        let start_fo = Oue::new(n_cells, eps_part);
        let len_fo = Oue::new(LEN_EDGES.len(), eps_part);
        let trans_fo = Oue::new(n_cells * DIRS.len(), eps_part);

        let mut start_support = vec![0.0f64; n_cells];
        let mut len_support = vec![0.0f64; LEN_EDGES.len()];
        let mut trans_support = vec![0.0f64; n_cells * DIRS.len()];
        let mut trans_reporters = 0usize;

        for t in trajs {
            let start = grid.cell_of(t.points[0]);
            start_fo.accumulate(&start_fo.perturb(grid.flat(start), rng), &mut start_support);
            len_fo.accumulate(&len_fo.perturb(Self::len_bucket(t.len()), rng), &mut len_support);
            // One uniformly sampled adjacent transition per user.
            if t.len() >= 2 {
                let i = rng.gen_range(0..t.len() - 1);
                let a = grid.cell_of(t.points[i]);
                let b = grid.cell_of(t.points[i + 1]);
                let (dx, dy) = (
                    (b.ix as i64 - a.ix as i64).clamp(-1, 1),
                    (b.iy as i64 - a.iy as i64).clamp(-1, 1),
                );
                let dir = DIRS.iter().position(|&v| v == (dx, dy)).unwrap_or(0);
                let item = grid.flat(a) * DIRS.len() + dir;
                trans_fo.accumulate(&trans_fo.perturb(item, rng), &mut trans_support);
                trans_reporters += 1;
            }
        }

        let mut f_start = start_fo.estimate(&start_support, n_users);
        clamp_normalize(&mut f_start);
        let mut f_len = len_fo.estimate(&len_support, n_users);
        clamp_normalize(&mut f_len);
        let mut f_trans = trans_fo.estimate(&trans_support, trans_reporters.max(1));
        // Per-cell direction distributions.
        let nd = DIRS.len();
        let mut dir_dist = vec![[1.0f64 / 9.0; 9]; n_cells];
        for (cell, dist) in dir_dist.iter_mut().enumerate() {
            let slice = &mut f_trans[cell * nd..(cell + 1) * nd];
            let total: f64 = slice.iter().map(|x| x.max(0.0)).sum();
            if total > 1e-9 {
                for (k, v) in slice.iter().enumerate() {
                    dist[k] = v.max(0.0) / total;
                }
            }
        }

        // Synthesis: sample a synthetic trajectory database and count its
        // points.
        let n_synth = ((n_users as f64) * self.synth_factor).round().max(1.0) as usize;
        let mut hist = Histogram2D::zeros(grid.clone());
        let sample_categorical = |w: &[f64], rng: &mut dyn RngCore| -> usize {
            let mut t = rand::Rng::gen::<f64>(rng);
            for (i, &x) in w.iter().enumerate() {
                if t < x {
                    return i;
                }
                t -= x;
            }
            w.len() - 1
        };
        for _ in 0..n_synth {
            let len_bucket = sample_categorical(&f_len, rng);
            let len = Self::sample_len(len_bucket, rng);
            let mut cell = grid.unflat(sample_categorical(&f_start, rng));
            hist.add_cell(cell);
            for _ in 1..len {
                let dist = &dir_dist[grid.flat(cell)];
                // Mask directions leaving the grid.
                let mut w = [0.0f64; 9];
                let mut total = 0.0;
                for (k, &(dx, dy)) in DIRS.iter().enumerate() {
                    let (nx, ny) = (cell.ix as i64 + dx, cell.iy as i64 + dy);
                    if nx >= 0 && ny >= 0 && nx < d as i64 && ny < d as i64 {
                        w[k] = dist[k];
                        total += w[k];
                    }
                }
                if total <= 0.0 {
                    break;
                }
                let mut t = rng.gen::<f64>() * total;
                let mut pick = 0;
                for (k, &wk) in w.iter().enumerate() {
                    if t < wk {
                        pick = k;
                        break;
                    }
                    t -= wk;
                }
                let (dx, dy) = DIRS[pick];
                cell = CellIndex::new((cell.ix as i64 + dx) as u32, (cell.iy as i64 + dy) as u32);
                hist.add_cell(cell);
            }
        }
        hist.normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traj::sample_workload;
    use dam_geo::{BoundingBox, Point};
    use rand::SeedableRng;

    #[test]
    fn len_buckets_cover_range() {
        assert_eq!(LdpTrace::len_bucket(2), 0);
        assert_eq!(LdpTrace::len_bucket(3), 0);
        assert_eq!(LdpTrace::len_bucket(4), 1);
        assert_eq!(LdpTrace::len_bucket(200), 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(190);
        for bucket in 0..8 {
            for _ in 0..50 {
                let l = LdpTrace::sample_len(bucket, &mut rng);
                assert_eq!(LdpTrace::len_bucket(l), bucket, "len {l} bucket {bucket}");
            }
        }
    }

    #[test]
    fn estimate_is_valid_distribution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(191);
        let base: Vec<Point> =
            (0..2000).map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let fine = Grid2D::new(BoundingBox::unit(), 30);
        let trajs = sample_workload(&base, &fine, 100, (2, 50), &mut rng);
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let est = LdpTrace::new(1.5).estimate_distribution(&trajs, &grid, &mut rng);
        assert!((est.total() - 1.0).abs() < 1e-9);
        assert!(est.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn concentrated_walks_stay_concentrated() {
        // Trajectories that never leave one corner: the synthetic cloud
        // must put most mass near that corner.
        let mut rng = rand::rngs::StdRng::seed_from_u64(192);
        let trajs: Vec<Trajectory> = (0..400)
            .map(|_| Trajectory { points: (0..10).map(|_| Point::new(0.05, 0.05)).collect() })
            .collect();
        let grid = Grid2D::new(BoundingBox::unit(), 4);
        let est = LdpTrace::new(4.0).estimate_distribution(&trajs, &grid, &mut rng);
        // Mass within the 2×2 corner block.
        let corner: f64 = [(0u32, 0u32), (0, 1), (1, 0), (1, 1)]
            .iter()
            .map(|&(x, y)| est.get(CellIndex::new(x, y)))
            .sum();
        assert!(corner > 0.5, "corner mass {corner}");
    }
}
