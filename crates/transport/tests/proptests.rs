//! Property-based tests of the optimal-transport solvers.

use dam_geo::Point;
use dam_transport::exact::solve_exact;
use dam_transport::grid::{grid_sinkhorn_cost, SinkhornParams};
use dam_transport::w1d::{wasserstein_1d, wasserstein_1d_pow};
use proptest::prelude::*;

fn masses(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, n).prop_map(|v| {
        let s: f64 = v.iter().sum();
        v.into_iter().map(|x| x / s).collect()
    })
}

fn points(n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_plan_is_feasible_and_nonnegative(
        a in masses(7),
        b in masses(7),
        pa in points(7),
        pb in points(7),
    ) {
        let plan = solve_exact(&a, &b, |i, j| pa[i].dist_sq(pb[j])).unwrap();
        prop_assert!(plan.cost >= -1e-12);
        let mut rows = [0.0; 7];
        let mut cols = [0.0; 7];
        for &(i, j, f) in &plan.flows {
            prop_assert!(f >= 0.0);
            rows[i] += f;
            cols[j] += f;
        }
        for i in 0..7 {
            prop_assert!((rows[i] - a[i]).abs() < 1e-6, "row {i}");
            prop_assert!((cols[i] - b[i]).abs() < 1e-6, "col {i}");
        }
    }

    #[test]
    fn exact_cost_below_any_product_coupling(
        a in masses(6),
        b in masses(6),
        pa in points(6),
        pb in points(6),
    ) {
        // The independent coupling a⊗b is feasible, so its cost upper
        // bounds the optimum.
        let cost = |i: usize, j: usize| pa[i].dist_sq(pb[j]);
        let opt = solve_exact(&a, &b, cost).unwrap().cost;
        let mut product = 0.0;
        for i in 0..6 {
            for j in 0..6 {
                product += a[i] * b[j] * cost(i, j);
            }
        }
        prop_assert!(opt <= product + 1e-9, "optimum {opt} above product {product}");
    }

    #[test]
    fn exact_matches_1d_solver_on_collinear_supports(
        a in masses(8),
        b in masses(8),
        xs in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::new(x, 0.0)).collect();
        let plan = solve_exact(&a, &b, |i, j| pts[i].dist_sq(pts[j])).unwrap();
        let wa: Vec<(f64, f64)> = xs.iter().zip(&a).map(|(&x, &m)| (x, m)).collect();
        let wb: Vec<(f64, f64)> = xs.iter().zip(&b).map(|(&x, &m)| (x, m)).collect();
        let w1d = wasserstein_1d_pow(&wa, &wb, 2);
        prop_assert!((plan.cost - w1d).abs() < 1e-6, "2d {} vs 1d {}", plan.cost, w1d);
    }

    /// Delta masses: with singleton supports the coupling is forced, so
    /// every solver must return the squared cell distance exactly (up to
    /// rounding noise).
    #[test]
    fn grid_sinkhorn_delta_masses_are_exact(
        sx in 0u32..9, sy in 0u32..9, tx in 0u32..9, ty in 0u32..9,
    ) {
        let d = 9usize;
        let mut a = vec![0.0; d * d];
        let mut b = vec![0.0; d * d];
        a[(sy as usize) * d + sx as usize] = 1.0;
        b[(ty as usize) * d + tx as usize] = 1.0;
        let want = (f64::from(sx) - f64::from(tx)).powi(2)
            + (f64::from(sy) - f64::from(ty)).powi(2);
        let got = grid_sinkhorn_cost(&a, &b, d, SinkhornParams::default()).unwrap();
        prop_assert!((got - want).abs() <= 1e-6 * want.max(1.0), "got {got} want {want}");
    }

    #[test]
    fn w1d_scales_linearly_under_dilation(
        a in masses(5),
        b in masses(5),
        xs in prop::collection::vec(-3.0f64..3.0, 5),
        scale in 0.1f64..4.0,
    ) {
        let wa: Vec<(f64, f64)> = xs.iter().zip(&a).map(|(&x, &m)| (x, m)).collect();
        let wb: Vec<(f64, f64)> = xs.iter().zip(&b).map(|(&x, &m)| (x, m)).collect();
        let base = wasserstein_1d(&wa, &wb, 1);
        let sa: Vec<(f64, f64)> = wa.iter().map(|&(x, m)| (x * scale, m)).collect();
        let sb: Vec<(f64, f64)> = wb.iter().map(|&(x, m)| (x * scale, m)).collect();
        let scaled = wasserstein_1d(&sa, &sb, 1);
        prop_assert!((scaled - base * scale).abs() < 1e-9 * (1.0 + scale));
    }

    #[test]
    fn w1d_order_relation(
        a in masses(6),
        b in masses(6),
        xs in prop::collection::vec(-3.0f64..3.0, 6),
    ) {
        // Jensen: W1 <= W2 for the same coupling geometry.
        let wa: Vec<(f64, f64)> = xs.iter().zip(&a).map(|(&x, &m)| (x, m)).collect();
        let wb: Vec<(f64, f64)> = xs.iter().zip(&b).map(|(&x, &m)| (x, m)).collect();
        let w1 = wasserstein_1d(&wa, &wb, 1);
        let w2 = wasserstein_1d(&wa, &wb, 2);
        prop_assert!(w1 <= w2 + 1e-9, "W1 {w1} > W2 {w2}");
    }
}
