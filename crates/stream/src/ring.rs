//! The sliding window as a ring over the count tree's last `window`
//! epoch leaves. [`StreamingEstimator`](crate::StreamingEstimator) keeps no planes of its own: its
//! `window_counts` plane adds each new epoch and subtracts the leaf
//! `window` epochs back. These tests pin the ring contract on that plane
//! — the incremental sum equals a rescan of the held leaves bit for bit,
//! a full window drops exactly its oldest epoch, and a window the stream
//! has not yet filled sums every epoch it holds.

#[cfg(test)]
mod tests {
    use crate::estimator::{StreamConfig, StreamingEstimator};
    use dam_core::validate::IngestSummary;
    use dam_core::DamConfig;
    use dam_geo::{BoundingBox, Grid2D};

    fn estimator(window: usize) -> StreamingEstimator {
        let dam = DamConfig { b_hat: Some(1), ..DamConfig::dam(2.0) }.with_threads(Some(1));
        StreamingEstimator::new(
            Grid2D::new(BoundingBox::unit(), 3),
            StreamConfig::new(dam, window, 5),
        )
    }

    fn plane(epoch: usize, n_cells: usize) -> Vec<f64> {
        (0..n_cells).map(|c| ((epoch * 13 + c * 3) % 7) as f64).collect()
    }

    /// A plane holding `value` in cell `cell` and zero elsewhere.
    fn one_hot(cell: usize, value: f64, n_cells: usize) -> Vec<f64> {
        let mut p = vec![0.0; n_cells];
        p[cell] = value;
        p
    }

    /// Rescan of the tree leaves the window holds.
    fn recompute(s: &StreamingEstimator) -> Vec<f64> {
        let t1 = s.epochs();
        let t0 = t1.saturating_sub(s.config().window);
        let mut out = vec![0.0; s.window_counts().len()];
        for t in t0..t1 {
            for (acc, &v) in out.iter_mut().zip(s.tree().epoch_plane(t).unwrap()) {
                *acc += v;
            }
        }
        out
    }

    #[test]
    fn incremental_sum_matches_recompute_bit_for_bit() {
        let mut s = estimator(4);
        let n_cells = s.window_counts().len();
        for e in 0..11 {
            s.ingest_epoch_plane(&plane(e, n_cells), &IngestSummary::default());
            let bits: Vec<u64> = recompute(&s).iter().map(|v| v.to_bits()).collect();
            let inc: Vec<u64> = s.window_counts().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, inc, "epoch {e}");
        }
    }

    #[test]
    fn eviction_drops_exactly_the_oldest_epoch() {
        let mut s = estimator(2);
        let n_cells = s.window_counts().len();
        s.ingest_epoch_plane(&one_hot(0, 1.0, n_cells), &IngestSummary::default());
        s.ingest_epoch_plane(&one_hot(1, 2.0, n_cells), &IngestSummary::default());
        s.ingest_epoch_plane(&one_hot(2, 4.0, n_cells), &IngestSummary::default());
        assert_eq!(&s.window_counts()[..3], &[0.0, 2.0, 4.0]);
        assert!(s.window_counts()[3..].iter().all(|&v| v == 0.0));
        assert!(!s.estimate_window().health.partial_window);
    }

    #[test]
    fn partial_window_sums_all_held_planes() {
        let mut s = estimator(5);
        let n_cells = s.window_counts().len();
        s.ingest_epoch_plane(&vec![1.0; n_cells], &IngestSummary::default());
        s.ingest_epoch_plane(&vec![2.0; n_cells], &IngestSummary::default());
        assert_eq!(s.window_counts(), &vec![3.0; n_cells][..]);
        assert!(s.estimate_window().health.partial_window);
    }
}
