//! Property tests for the continual-counting tree and the estimator's
//! sliding window: noise-free dyadic queries must match a naive
//! accumulator **exactly** (whole-number counts make every sum exact f64
//! integer arithmetic), and the window sum slid off the tree's leaves
//! must match both the tree's window query and a from-scratch rescan bit
//! for bit.

use dam_core::{DamConfig, IngestSummary};
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D};
use dam_stream::{CountTree, PipelineHealth, StreamConfig, StreamingEstimator};
use proptest::prelude::*;

fn prefix(tree: &CountTree, t: usize) -> Vec<f64> {
    let mut out = vec![0.0; tree.n_cells()];
    tree.try_prefix_into(t, &mut out).unwrap();
    out
}

fn window(tree: &CountTree, t0: usize, t1: usize) -> Vec<f64> {
    let mut out = vec![0.0; tree.n_cells()];
    tree.try_window_into(t0, t1, &mut out).unwrap();
    out
}

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

/// Strategy: a stream of small whole-number count planes.
fn plane_stream() -> impl Strategy<Value = (usize, Vec<Vec<f64>>)> {
    (1usize..12, 1usize..24).prop_flat_map(|(n_cells, epochs)| {
        let plane = prop::collection::vec(0u32..50, n_cells..n_cells + 1)
            .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>());
        (Just(n_cells), prop::collection::vec(plane, epochs..epochs + 1))
    })
}

proptest! {
    #[test]
    fn exact_prefix_matches_naive_accumulator(stream in plane_stream()) {
        let (n_cells, planes) = stream;
        let mut tree = CountTree::exact(n_cells);
        for plane in &planes {
            tree.append(plane);
        }
        for t in 0..=planes.len() {
            prop_assert_eq!(prefix(&tree, t), naive_window(&planes, 0, t, n_cells));
        }
    }

    #[test]
    fn exact_window_matches_naive_accumulator(
        stream in plane_stream(),
        bounds in (0usize..=24, 0usize..=24),
    ) {
        let (n_cells, planes) = stream;
        let mut tree = CountTree::exact(n_cells);
        for plane in &planes {
            tree.append(plane);
        }
        let t0 = bounds.0.min(planes.len());
        let t1 = bounds.1.min(planes.len());
        let (t0, t1) = (t0.min(t1), t0.max(t1));
        prop_assert_eq!(window(&tree, t0, t1), naive_window(&planes, t0, t1, n_cells));
    }

    #[test]
    fn prefix_reads_at_most_log_t_nodes(t in 0usize..100_000) {
        let bound = if t == 0 { 0 } else { t.ilog2() as usize + 1 };
        prop_assert!(CountTree::prefix_nodes(t) <= bound);
    }

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
    fn ring_window_equals_tree_window(
        window_len in 1usize..6,
        epochs in prop::collection::vec((0u64..u64::MAX, 0u32..4), 1..24),
    ) {
        // Two independent routes to the same sliding window — the
        // incremental sum and the tree's dyadic decomposition — must
        // agree exactly on whole-number planes after every epoch.
        let mut s = estimator(window_len);
        for (e, (salt, fate)) in epochs.into_iter().enumerate() {
            ingest(&mut s, salt, fate);
            let t = e + 1;
            let t0 = t.saturating_sub(window_len);
            prop_assert_eq!(
                bits(s.window_counts()),
                bits(&window(s.tree(), t0, t)),
                "epoch {}",
                t
            );
        }
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

    // Restoring from the tree's leaves replays the same arithmetic.
    let leaves: Vec<Vec<f64>> = (0..3).map(|t| s.tree().epoch_plane(t).unwrap().to_vec()).collect();
    let mut restored = estimator(2);
    restored.restore(&leaves, 0, PipelineHealth::default(), None);
    assert_eq!(bits(restored.window_counts()), bits(s.window_counts()));
}
