//! Property-based tests of the optimal-transport substrate: metric axioms,
//! solver agreement, and the sliced-Wasserstein inequality the paper's
//! optimization rests on.

use proptest::prelude::*;
use spatial_ldp::geo::{BoundingBox, Grid2D, Histogram2D};
use spatial_ldp::transport::metrics::{w2, w2_grid_sinkhorn};
use spatial_ldp::transport::sliced::sliced_wasserstein;
use spatial_ldp::transport::w1d::wasserstein_1d_pow;
use spatial_ldp::transport::SinkhornParams;

fn hist_strategy(d: u32) -> impl Strategy<Value = Histogram2D> {
    let n = (d * d) as usize;
    prop::collection::vec(0.0f64..1.0, n).prop_filter_map("needs positive mass", move |v| {
        let total: f64 = v.iter().sum();
        if total < 1e-6 {
            return None;
        }
        Some(Histogram2D::from_values(Grid2D::new(BoundingBox::unit(), d), v).normalized())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn w2_identity_axiom(h in hist_strategy(4)) {
        let w = w2(&h, &h).unwrap();
        prop_assert!(w < 1e-4, "W2(h, h) = {w}");
    }

    #[test]
    fn w2_symmetry(a in hist_strategy(4), b in hist_strategy(4)) {
        let ab = w2(&a, &b).unwrap();
        let ba = w2(&b, &a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-6, "W2 asymmetric: {ab} vs {ba}");
    }

    #[test]
    fn w2_triangle_inequality(
        a in hist_strategy(3),
        b in hist_strategy(3),
        c in hist_strategy(3),
    ) {
        let ab = w2(&a, &b).unwrap();
        let bc = w2(&b, &c).unwrap();
        let ac = w2(&a, &c).unwrap();
        prop_assert!(ac <= ab + bc + 1e-6, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn sinkhorn_upper_bounds_exact(a in hist_strategy(4), b in hist_strategy(4)) {
        let exact = w2(&a, &b).unwrap();
        let approx = w2_grid_sinkhorn(&a, &b, SinkhornParams::default()).unwrap();
        // Rounded Sinkhorn coupling is feasible => cost at least optimal.
        prop_assert!(approx >= exact - 1e-6, "sinkhorn {approx} below exact {exact}");
        // And with default regularisation it is close.
        prop_assert!(approx <= exact * 1.2 + 0.05, "sinkhorn {approx} far above exact {exact}");
    }

    #[test]
    fn sliced_w2_lower_bounds_w2(a in hist_strategy(4), b in hist_strategy(4)) {
        // Projections are 1-Lipschitz, so each 1-D distance (and hence the
        // sliced average) is at most the 2-D distance. Sliced works in
        // data units on the unit square, W2 here in cell units: rescale.
        let sw = sliced_wasserstein(&a, &b, 2, 24) * 4.0; // d = 4 cells per unit
        let w = w2(&a, &b).unwrap();
        prop_assert!(sw <= w + 1e-6, "SW2 {sw} exceeds W2 {w}");
    }

    #[test]
    fn w1d_matches_cdf_formula(
        mass_a in prop::collection::vec(0.01f64..1.0, 6),
        mass_b in prop::collection::vec(0.01f64..1.0, 6),
    ) {
        // On a line with unit spacing, W1 = sum |CDF_a - CDF_b|.
        let pa: Vec<(f64, f64)> = mass_a.iter().enumerate().map(|(i, &m)| (i as f64, m)).collect();
        let pb: Vec<(f64, f64)> = mass_b.iter().enumerate().map(|(i, &m)| (i as f64, m)).collect();
        let w = wasserstein_1d_pow(&pa, &pb, 1);
        let (ta, tb): (f64, f64) = (mass_a.iter().sum(), mass_b.iter().sum());
        let mut ca = 0.0;
        let mut cb = 0.0;
        let mut expect = 0.0;
        for i in 0..5 {
            ca += mass_a[i] / ta;
            cb += mass_b[i] / tb;
            expect += (ca - cb).abs();
        }
        prop_assert!((w - expect).abs() < 1e-9, "w1d {w} vs cdf {expect}");
    }

    #[test]
    fn w2_detects_translations_proportionally(shift in 1u32..3) {
        // Moving a delta by k cells moves W2 by exactly k.
        let g = Grid2D::new(BoundingBox::unit(), 8);
        let mut a = Histogram2D::zeros(g.clone());
        let mut b = Histogram2D::zeros(g);
        a.add_cell(spatial_ldp::geo::CellIndex::new(1, 1));
        b.add_cell(spatial_ldp::geo::CellIndex::new(1 + shift, 1));
        let w = w2(&a, &b).unwrap();
        prop_assert!((w - shift as f64).abs() < 1e-6);
    }
}
