//! Order statistics with a sample-count guard.
//!
//! A percentile is only reported when at least [`MIN_TAIL`] samples lie
//! beyond it: p90 needs 100 samples, p99 needs 1000. Below that the tail
//! is one or two unlucky samples, and the number would not repeat.

/// Samples that must lie past a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// `p` outside `[0, 1)`.
    BadQuantile(f64),
    /// Fewer samples than the percentile needs.
    TooFewSamples { p: f64, have: usize, need: usize },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::BadQuantile(p) => write!(f, "quantile {p} outside [0, 1)"),
            StatsError::TooFewSamples { p, have, need } => {
                write!(f, "p{} needs {need} samples, have {have}", p * 100.0)
            }
        }
    }
}

/// Samples needed so that [`MIN_TAIL`] of them lie past quantile `p`.
pub fn samples_needed(p: f64) -> usize {
    // The epsilon absorbs the rounding in `1 - p` (1 - 0.9 is not 0.1).
    (MIN_TAIL as f64 / (1.0 - p) - 1e-9).ceil() as usize
}

/// Nearest-rank quantile `p` of `samples`, refused when fewer than
/// [`samples_needed`]`(p)` samples are given.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if !(0.0..1.0).contains(&p) {
        return Err(StatsError::BadQuantile(p));
    }
    let need = samples_needed(p);
    if samples.len() < need {
        return Err(StatsError::TooFewSamples { p, have: samples.len(), need });
    }
    Ok(nearest_rank(samples, p))
}

/// Median of a non-empty sample (no tail requirement: used for set-up
/// repetitions and per-layer medians).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    nearest_rank(samples, 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.9),
            Err(StatsError::TooFewSamples { p: 0.9, have: 99, need: 100 })
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
    }

    #[test]
    fn p99_needs_one_thousand_samples() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(matches!(percentile(&xs, 0.99), Err(StatsError::TooFewSamples { need: 1000, .. })));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Ok(990.0));
    }

    #[test]
    fn median_is_order_free_and_refuses_nothing() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(percentile(&[1.0; 20], 0.5), Ok(1.0));
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        assert!(matches!(percentile(&[1.0; 2000], 1.0), Err(StatsError::BadQuantile(_))));
    }
}
