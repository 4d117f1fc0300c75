//! Property-based tests of the 1-D frequency oracles.

#![allow(
    clippy::disallowed_methods,
    reason = "property tests seed ad-hoc RNG streams from the generated seed"
)]

use dam_fo::alias::AliasTable;
use dam_fo::em::{expectation_maximization, Channel, EmParams, EmWorkspace};
use dam_fo::{Grr, Oue, SquareWave};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grr_probabilities_normalise(k in 2usize..200, eps in 0.1f64..10.0) {
        let g = Grr::new(k, eps);
        prop_assert!((g.p() + (k as f64 - 1.0) * g.q() - 1.0).abs() < 1e-9);
        prop_assert!((g.p() / g.q() - eps.exp()).abs() / eps.exp() < 1e-9);
    }

    #[test]
    fn sw_matrix_columns_sum_to_one(eps in 0.2f64..9.0, n in 1usize..24) {
        let sw = SquareWave::new(eps);
        let m = sw.transition_matrix(n);
        for i in 0..n {
            let col: f64 = (0..m.n_out).map(|o| m.at(o, i)).sum();
            prop_assert!((col - 1.0).abs() < 1e-8, "col {i} sums to {col}");
        }
    }

    #[test]
    fn sw_matrix_respects_ldp(eps in 0.2f64..6.0, n in 2usize..16) {
        let sw = SquareWave::new(eps);
        let m = sw.transition_matrix(n);
        let bound = eps.exp() * (1.0 + 1e-9);
        for o in 0..m.n_out {
            let col: Vec<f64> = (0..n).map(|i| m.at(o, i)).collect();
            let mx = col.iter().cloned().fold(0.0f64, f64::max);
            let mn = col.iter().cloned().fold(f64::INFINITY, f64::min);
            if mn > 1e-300 {
                prop_assert!(mx / mn <= bound, "ratio {} at output {o}", mx / mn);
            }
        }
    }

    #[test]
    fn sw_reports_in_range(eps in 0.2f64..9.0, v in 0.0f64..1.0, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sw = SquareWave::new(eps);
        let r = sw.perturb(v, &mut rng);
        prop_assert!(r >= -sw.b() - 1e-12 && r <= 1.0 + sw.b() + 1e-12);
    }

    #[test]
    fn oue_estimates_are_shift_scale_of_support(k in 2usize..64, eps in 0.2f64..6.0) {
        let o = Oue::new(k, eps);
        // estimate() is affine in support counts; check the fixed points:
        // support = n*q  -> estimate 0; support = n*0.5 -> estimate 1.
        let n = 1000usize;
        let zero = o.estimate(&vec![n as f64 * o.q(); k], n);
        let one = o.estimate(&vec![n as f64 * 0.5; k], n);
        for i in 0..k {
            prop_assert!(zero[i].abs() < 1e-9);
            prop_assert!((one[i] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn alias_table_never_samples_zero_weight(
        weights in prop::collection::vec(0.0f64..10.0, 1..40),
        seed in 0u64..500,
    ) {
        use rand::SeedableRng;
        prop_assume!(weights.iter().sum::<f64>() > 1e-9);
        let t = AliasTable::new(&weights);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let i = t.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight outcome {i}");
        }
    }

    #[test]
    fn em_output_is_a_distribution(
        keep in 0.2f64..0.95,
        counts in prop::collection::vec(0.0f64..100.0, 5),
    ) {
        prop_assume!(counts.iter().sum::<f64>() > 0.0);
        let n = 5;
        let leak = (1.0 - keep) / (n - 1) as f64;
        let mut data = vec![leak; n * n];
        for i in 0..n {
            data[i * n + i] = keep;
        }
        let ch = Channel::new(n, n, data);
        let f = expectation_maximization(&ch, &counts, None, None, EmParams::default(), &mut EmWorkspace::new())
            .estimate;
        prop_assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(f.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
    }

    #[test]
    fn em_likelihood_never_decreases(
        counts in prop::collection::vec(1.0f64..50.0, 4),
    ) {
        // Run EM step by step and track the observed-data log-likelihood.
        let n = 4;
        let keep = 0.6;
        let leak = (1.0 - keep) / 3.0;
        let mut data = vec![leak; n * n];
        for i in 0..n {
            data[i * n + i] = keep;
        }
        let ch = Channel::new(n, n, data);
        let ll = |f: &[f64]| -> f64 {
            let mut acc = 0.0;
            for o in 0..n {
                let mut p = 0.0;
                for i in 0..n {
                    p += ch.at(o, i) * f[i];
                }
                acc += counts[o] * p.max(1e-300).ln();
            }
            acc
        };
        let mut prev = ll(&[0.25; 4]);
        for iters in [1usize, 2, 4, 8, 16] {
            let f = expectation_maximization(
                &ch,
                &counts,
                None,
                None,
                EmParams { max_iters: iters, rel_tol: 0.0, gain_tol: 0.0 },
                &mut EmWorkspace::new(),
            )
            .estimate;
            let cur = ll(&f);
            prop_assert!(cur + 1e-6 >= prev, "likelihood fell: {prev} -> {cur} at {iters}");
            prev = cur;
        }
    }
}
