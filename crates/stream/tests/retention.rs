//! Retention is bounded: a million-epoch stream holds exactly `window`
//! planes, and this test binary's peak resident set stays far below the
//! ~191 MiB that keeping every epoch's 25-cell plane would take.

use dam_core::{DamConfig, IngestSummary};
use dam_geo::{BoundingBox, Grid2D};
use dam_stream::{StreamConfig, StreamingEstimator};

#[test]
fn a_million_epochs_hold_exactly_the_window() {
    const WINDOW: usize = 6;
    let dam = DamConfig { b_hat: Some(1), ..DamConfig::dam(2.0) }.with_threads(Some(1));
    let grid = Grid2D::new(BoundingBox::unit(), 3);
    let mut s = StreamingEstimator::new(grid, StreamConfig::new(dam, WINDOW, 5));
    let mut plane = vec![0.0; s.window_counts().len()];
    for e in 0..1_000_000 {
        plane[e % 25] = (e % 7) as f64;
        s.ingest_epoch_plane(&plane, &IngestSummary::default());
        let t = e + 1;
        if [WINDOW, 1_000, 1_000_000].contains(&t) {
            assert_eq!(s.tree().held_planes().count(), WINDOW, "epoch {t}");
            assert!(s.tree().epoch_plane(t - WINDOW).is_some(), "epoch {t}");
            assert!(t == WINDOW || s.tree().epoch_plane(t - WINDOW - 1).is_none(), "epoch {t}");
        }
    }
    assert_eq!(s.tree().len(), 1_000_000);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix(" kB"));
    let kib: u64 = peak.map_or(0, |v| v.trim().parse().unwrap());
    assert!(kib < 96 * 1024, "peak resident set {kib} KiB");
}
