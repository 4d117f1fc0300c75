//! Walker's alias method for O(1) categorical sampling.
//!
//! `GridAreaResponse` must draw one noisy cell per user from a fixed
//! categorical distribution over output cells; with hundreds of thousands
//! of users per experiment, O(1) sampling after O(k) setup matters (this is
//! the `O(g)` response cost in the paper's complexity analysis §VI-B).

use rand::Rng;

/// A pre-built alias table over `k` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (not necessarily
    /// normalised).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total = compensated_sum(weights);
        assert!(total > 0.0, "weights must not all be zero");
        let k = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * k as f64 / total).collect();
        let mut alias = vec![0usize; k];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Anything left over is numerically 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true after construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Slot `i` of the table: its coin threshold `prob` and its alias
    /// outcome. [`AliasTable::sample`] returns `i` when its coin is below
    /// `prob` and the alias otherwise, so a sampler that needs its own slot
    /// layout (one that stores the outcomes pre-decoded, say) can copy the
    /// table out through this and make exactly the same draws.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn slot(&self, i: usize) -> (f64, usize) {
        (self.prob[i], self.alias[i])
    }

    /// Draws one outcome index in O(1), spending a single `u64` draw.
    /// With `x = r/2⁶⁴ ∈ [0,1)`, the 128-bit product `r·k` splits into
    /// `⌊x·k⌋` (high word: the slot, bias-free range reduction) and the
    /// fractional part `x·k − ⌊x·k⌋` (low word: the coin), which is an
    /// evenly spaced grid over `[0,1)` *conditioned on the slot* — unlike
    /// reusing raw low bits of `r`, which correlate with the slot and
    /// skew the accept probability once `k` approaches 2¹¹. Halving the
    /// RNG traffic matters because every simulated user pays exactly one
    /// `sample` call per report.
    #[inline]
    pub fn sample(&self, rng: &mut (impl Rng + ?Sized)) -> usize {
        let r = rng.next_u64();
        let k = self.prob.len();
        let wide = r as u128 * k as u128;
        let i = (wide >> 64) as usize;
        // Top 53 bits of the fractional word, mapped to [0, 1).
        let coin = ((wide as u64) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if coin < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// `Σ weights` with Neumaier's compensation, within about one rounding of
/// the exact sum. The slots left over when the table is built are set to
/// exactly 1, so they absorb whatever `k·Σw/total` misses `k` by: with a
/// plain sum that miss grows with `k` (about `k·2⁻⁵³`), and all of it
/// lands on one outcome, whose mass is only about `1/k`.
fn compensated_sum(weights: &[f64]) -> f64 {
    let (mut sum, mut lost) = (0.0f64, 0.0f64);
    for &w in weights {
        let t = sum + w;
        lost += if sum.abs() >= w.abs() { (sum - t) + w } else { (w - t) + sum };
        sum = t;
    }
    sum + lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn empirical_frequencies_match_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let weights = [1.0, 5.0, 0.0, 2.0, 2.0];
        let t = AliasTable::new(&weights);
        let n = 500_000;
        let mut counts = vec![0.0; weights.len()];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1.0;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] / n as f64;
            assert!((got - expect).abs() < 0.005, "outcome {i}: {got} vs {expect}");
        }
        assert_eq!(counts[2], 0.0, "zero-weight outcome must never be drawn");
    }

    #[test]
    fn every_outcome_keeps_its_weight_when_the_plain_sum_rounds() {
        // A zero-weight outcome every third slot, the rest 0.1: the zeros
        // alias into the 0.1s, and a plain sum of the 0.1s misses its
        // exact value by far more than one rounding.
        let weights: Vec<f64> = (0..3000).map(|i| if i % 3 == 0 { 0.0 } else { 0.1 }).collect();
        let t = AliasTable::new(&weights);
        let k = t.len() as f64;
        let mut mass = vec![0.0f64; t.len()];
        for i in 0..t.len() {
            let (p, a) = t.slot(i);
            mass[i] += p / k;
            mass[a] += (1.0 - p) / k;
        }
        // 2000 outcomes of 0.1 make the total 200: each carries 1/2000.
        let unit = 1.0 / 2000.0;
        for (i, (&m, &w)) in mass.iter().zip(&weights).enumerate() {
            let want = w / 0.1 * unit;
            assert!((m - want).abs() <= 1e-13 * unit, "outcome {i}: {m:e} vs {want:e}");
        }
    }

    #[test]
    fn single_outcome() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let t = AliasTable::new(&[3.0]);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn uniform_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let t = AliasTable::new(&[1.0; 7]);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            seen[t.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn large_table_frequencies_are_unbiased() {
        // Regression for the one-draw sampler: with k = 4096 (a d = 64
        // grid, as the trajectory mechanisms build) a coin reusing raw
        // low bits of the slot draw is grossly biased, because the slot
        // conditions those bits; the fractional-part coin must stay
        // unbiased. Alternating weights 1 and 3 → class masses 1/4, 3/4.
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let k = 4096;
        let weights: Vec<f64> = (0..k).map(|i| if i % 2 == 0 { 1.0 } else { 3.0 }).collect();
        let t = AliasTable::new(&weights);
        let n = 400_000;
        let mut odd = 0.0f64;
        for _ in 0..n {
            odd += (t.sample(&mut rng) % 2) as f64;
        }
        let got = odd / n as f64;
        assert!((got - 0.75).abs() < 0.005, "odd-class mass {got} vs 0.75");
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn rejects_zero_total() {
        AliasTable::new(&[0.0, 0.0]);
    }
}
