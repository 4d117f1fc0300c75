//! Property-based tests of the baseline mechanisms.

use dam_baselines::subset::{inclusion_probabilities, LogEsp};
use dam_baselines::SemGeoI;
use dam_geo::rng::seeded;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sem_subset_size_is_always_legal(eps in 0.05f64..20.0, d in 1u32..25) {
        let n = (d * d) as usize;
        let k = SemGeoI::new(eps).resolve_k(n);
        prop_assert!(k >= 1);
        prop_assert!(k <= (n - 1).max(1), "k = {k} for n = {n}");
        // Monotonicity: more budget never grows the subset.
        let k2 = SemGeoI::new(eps * 2.0).resolve_k(n);
        prop_assert!(k2 <= k, "k grew with eps: {k} -> {k2}");
    }

    #[test]
    fn inclusion_probabilities_sum_to_k_for_random_weights(
        lw in prop::collection::vec(-4.0f64..2.0, 4..40),
        k_frac in 0.1f64..0.9,
    ) {
        let n = lw.len();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let pi = inclusion_probabilities(&lw, k);
        let total: f64 = pi.iter().sum();
        prop_assert!((total - k as f64).abs() < 1e-6, "Σπ = {total} vs k = {k}");
        prop_assert!(pi.iter().all(|p| (0.0..=1.0 + 1e-12).contains(p)));
    }

    #[test]
    fn sampled_subsets_have_exact_size(
        lw in prop::collection::vec(-3.0f64..1.0, 5..25),
        k_frac in 0.1f64..0.9,
        seed in 0u64..200,
    ) {
        let n = lw.len();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let esp = LogEsp::backward(&lw, k);
        let mut rng = seeded(seed);
        for _ in 0..8 {
            let s = esp.sample(&lw, &mut rng);
            prop_assert_eq!(s.len(), k);
            // Indices are strictly increasing and in range.
            for w in s.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            prop_assert!(s.iter().all(|&u| u < n));
        }
    }

    #[test]
    fn esp_normaliser_is_log_concave_in_k(
        lw in prop::collection::vec(-2.0f64..2.0, 6..20),
    ) {
        // Newton's inequality: e_k² ≥ e_{k−1}·e_{k+1} for real positive
        // weights — a strong correctness check on the DP recurrence.
        let n = lw.len();
        let esp = LogEsp::backward(&lw, n);
        for k in 1..n - 1 {
            let lhs = 2.0 * esp.at(0, k);
            let rhs = esp.at(0, k - 1) + esp.at(0, k + 1);
            prop_assert!(lhs >= rhs - 1e-9, "Newton violated at k = {k}");
        }
    }
}
