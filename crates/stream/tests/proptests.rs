//! Property tests for the estimator's sliding window: the window sum
//! slid over the epoch ring must match a from-scratch rescan bit for bit
//! (whole-number counts make every sum exact f64 integer arithmetic),
//! and a restore from only the planes the ring holds must rebuild it.

use dam_core::{DamConfig, IngestSummary};
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D};
use dam_stream::{PipelineHealth, StreamConfig, StreamingEstimator};
use proptest::prelude::*;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A small single-threaded streaming pipeline with a `window`-epoch window.
fn estimator(window: usize) -> StreamingEstimator {
    let dam = DamConfig { b_hat: Some(1), ..DamConfig::dam(2.0) }.with_threads(Some(1));
    StreamingEstimator::new(Grid2D::new(BoundingBox::unit(), 3), StreamConfig::new(dam, window, 5))
}

/// Ingests one epoch into `s` — missed when `fate == 0`, else a
/// whole-number plane keyed by `salt` — and returns the plane it holds.
fn ingest(s: &mut StreamingEstimator, salt: u64, fate: u32) -> Vec<f64> {
    let n_cells = s.window_counts().len();
    if fate == 0 {
        s.ingest_missed_epoch();
        return vec![0.0; n_cells];
    }
    let plane: Vec<f64> = (0..n_cells).map(|c| (splitmix64(salt ^ c as u64) % 50) as f64).collect();
    s.ingest_epoch_plane(&plane, &IngestSummary::default());
    plane
}

/// Naive reference: sum epoch planes `[t0, t1)` cell by cell.
fn naive_window(planes: &[Vec<f64>], t0: usize, t1: usize, n_cells: usize) -> Vec<f64> {
    let mut acc = vec![0.0; n_cells];
    for plane in &planes[t0..t1] {
        for (a, &v) in acc.iter_mut().zip(plane) {
            *a += v;
        }
    }
    acc
}

proptest! {
    #[test]
    fn ring_incremental_sum_is_bit_identical_to_rescan(
        window_len in 1usize..8,
        epochs in prop::collection::vec((0u64..u64::MAX, 0u32..4), 1..24),
    ) {
        // Whole-number planes through `ingest_epoch_plane`, with roughly
        // one epoch in four missed: after every epoch the incremental
        // window must equal a naive rescan of the last `window_len` planes.
        let mut s = estimator(window_len);
        let n_cells = s.window_counts().len();
        let mut planes: Vec<Vec<f64>> = Vec::new();
        for (salt, fate) in epochs {
            planes.push(ingest(&mut s, salt, fate));
            let t = planes.len();
            let t0 = t.saturating_sub(window_len);
            prop_assert_eq!(
                bits(s.window_counts()),
                bits(&naive_window(&planes, t0, t, n_cells)),
                "epoch {}",
                t
            );
        }
    }

    #[test]
    fn restore_from_held_planes_rebuilds_the_window(
        window_len in 1usize..6,
        epochs in prop::collection::vec((0u64..u64::MAX, 0u32..4), 2..24),
    ) {
        // A checkpoint holds only the ring's planes and the health record
        // naming the head: restored from them and fed the same next epoch,
        // a stream must hold the live one's window bit for bit.
        let (history, next) = epochs.split_at(epochs.len() - 1);
        let mut live = estimator(window_len);
        history.iter().for_each(|&(salt, fate)| drop(ingest(&mut live, salt, fate)));
        let held: Vec<Vec<f64>> = live.tree().held_planes().map(<[f64]>::to_vec).collect();
        let mut restored = estimator(window_len);
        restored.restore(&held, live.reports(), live.health(), None);
        for s in [&mut live, &mut restored] {
            ingest(s, next[0].0, next[0].1);
        }
        prop_assert_eq!(restored.epochs(), live.epochs());
        prop_assert_eq!(bits(restored.window_counts()), bits(live.window_counts()));
    }
}

#[test]
fn fractional_tampered_planes_slide_as_add_new_minus_old() {
    // Tampering can leave fractional cells, where float addition is not
    // associative: once the window is full the update must be
    // `acc += new - old` — the expression every replay of the stream
    // evaluates — not `acc += new; acc -= old`.
    let cells = [[0.1, 0.1, 0.1], [0.2, 0.1, 1.1], [0.3, 0.7, 0.2]];
    let mut s = estimator(2);
    for epoch_cells in cells {
        s.ingest_epoch_with(&[], |_, plane| plane[..3].copy_from_slice(&epoch_cells));
    }
    let incremental: Vec<f64> =
        (0..3).map(|c| (cells[0][c] + cells[1][c]) + (cells[2][c] - cells[0][c])).collect();
    let split: Vec<f64> =
        (0..3).map(|c| (cells[0][c] + cells[1][c]) + cells[2][c] - cells[0][c]).collect();
    assert_eq!(bits(&s.window_counts()[..3]), bits(&incremental));
    // The chosen values tell the two orders apart in every cell.
    assert!(incremental.iter().zip(&split).all(|(a, b)| a.to_bits() != b.to_bits()));

    // Restoring from all three planes replays the same arithmetic.
    let zeros = vec![0.0; s.window_counts().len() - 3];
    let planes: Vec<Vec<f64>> = cells.iter().map(|c| [&c[..], &zeros].concat()).collect();
    let mut restored = estimator(2);
    restored.restore(&planes, 0, PipelineHealth::default(), None);
    assert_eq!(bits(restored.window_counts()), bits(s.window_counts()));
}
