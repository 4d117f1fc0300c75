//! The retained epochs. Sliding the window sum needs only the new plane
//! and the one `window` epochs back, so [`EpochRing`] holds nothing older:
//! retention memory and checkpoints stop growing once the window fills.

/// The last `min(len, window)` epoch planes of a stream in one buffer of
/// `window` planes, allocated once; epoch `t` overwrites slot `t % window`.
#[derive(Debug, Clone)]
pub struct EpochRing {
    n_cells: usize,
    window: usize,
    /// Epochs ingested: the stream head.
    len: usize,
    /// Planes held, `≤ window`: epochs `[len − held, len)`.
    held: usize,
    planes: Vec<f64>,
}

impl EpochRing {
    /// A ring of `window` planes of `n_cells` cells whose next epoch is
    /// `head`, holding no plane yet (`head > 0` resumes a restored stream).
    pub(crate) fn new(n_cells: usize, window: usize, head: usize) -> Self {
        assert!(n_cells > 0 && window > 0, "a ring holds at least one plane of one cell");
        Self { n_cells, window, len: head, held: 0, planes: vec![0.0; window * n_cells] }
    }

    /// Epochs ingested so far (held or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first epoch.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells per plane.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Epoch `t`'s count plane while the ring still holds it — one of
    /// the last `min(len, window)` epochs — else `None`.
    #[inline]
    pub fn epoch_plane(&self, t: usize) -> Option<&[f64]> {
        if t >= self.len || self.len - t > self.held {
            return None;
        }
        let at = t % self.window * self.n_cells;
        Some(&self.planes[at..at + self.n_cells])
    }

    /// The held planes, oldest first.
    pub fn held_planes(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (self.len - self.held..self.len).filter_map(move |t| self.epoch_plane(t))
    }

    /// Stores `plane` as epoch `len()`, in the slot of epoch `len − window`.
    pub(crate) fn push(&mut self, plane: &[f64]) {
        assert_eq!(plane.len(), self.n_cells, "plane does not match ring width");
        let at = self.len % self.window * self.n_cells;
        self.planes[at..at + self.n_cells].copy_from_slice(plane);
        self.len += 1;
        self.held = (self.held + 1).min(self.window);
    }
}

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

    /// Rescan of the planes the ring holds.
    fn recompute(s: &StreamingEstimator) -> Vec<f64> {
        let mut out = vec![0.0; s.window_counts().len()];
        for plane in s.tree().held_planes() {
            for (acc, &v) in out.iter_mut().zip(plane) {
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
        assert!(s.tree().epoch_plane(0).is_none() && s.tree().epoch_plane(3).is_none());
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
