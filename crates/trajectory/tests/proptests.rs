//! Property-based tests of the trajectory substrate.

use dam_geo::rng::seeded;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_trajectory::traj::{flatten, sample_workload, Trajectory};
use proptest::prelude::*;

fn base_points(n: usize, seed: u64) -> Vec<Point> {
    use rand::Rng;
    let mut rng = seeded(seed);
    (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn workload_respects_shape_for_any_config(
        seed in 0u64..1000,
        n_trajs in 1usize..20,
        lo in 1usize..10,
        extra in 0usize..30,
        d in 4u32..40,
    ) {
        let pts = base_points(500, seed);
        let grid = Grid2D::new(BoundingBox::unit(), d);
        let mut rng = seeded(seed ^ 0xABCD);
        let trajs = sample_workload(&pts, &grid, n_trajs, (lo, lo + extra), &mut rng);
        prop_assert_eq!(trajs.len(), n_trajs);
        for t in &trajs {
            prop_assert!(t.len() >= lo && t.len() <= lo + extra);
            // Every step lands in an 8-neighbouring cell.
            for w in t.points.windows(2) {
                let a = grid.cell_of(w[0]);
                let b = grid.cell_of(w[1]);
                prop_assert!((a.ix as i64 - b.ix as i64).abs() <= 1);
                prop_assert!((a.iy as i64 - b.iy as i64).abs() <= 1);
            }
            // All points stay in the domain.
            for p in &t.points {
                prop_assert!(grid.bbox().contains(*p));
            }
        }
    }

    #[test]
    fn flatten_length_is_sum_of_lengths(lens in prop::collection::vec(1usize..30, 1..10)) {
        let trajs: Vec<Trajectory> = lens
            .iter()
            .map(|&l| Trajectory {
                points: (0..l).map(|k| Point::new(k as f64, 0.0)).collect(),
            })
            .collect();
        let total: usize = lens.iter().sum();
        prop_assert_eq!(flatten(&trajs).len(), total);
    }

    #[test]
    fn workload_is_deterministic_in_the_seed(seed in 0u64..500) {
        let pts = base_points(300, 9);
        let grid = Grid2D::new(BoundingBox::unit(), 12);
        let run = |s: u64| {
            let mut rng = seeded(s);
            sample_workload(&pts, &grid, 5, (2, 10), &mut rng)
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
