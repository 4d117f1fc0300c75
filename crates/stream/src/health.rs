//! Pipeline health: the running fault/degradation telemetry of a
//! streaming deployment.
//!
//! A long-running estimator cannot treat malformed input as fatal — the
//! stream keeps coming — but it also must not degrade *silently*: an
//! operator looking at a heatmap needs to know whether it was computed
//! from a full window of validated reports or from half a window with a
//! third of the reports quarantined and the EM solver re-seeded twice.
//! [`PipelineHealth`] is that record. The estimator keeps a running copy
//! (everything since construction) and stamps a snapshot onto every
//! [`crate::WindowEstimate`], so each published estimate carries the
//! state of the pipeline that produced it.

use dam_core::validate::IngestSummary;
use dam_obs::{Plane, Registry};

/// Registry metric names of the health counters — the deterministic
/// plane's health subset. Since PR 10, [`PipelineHealth`] is a *view*
/// materialised from these ([`PipelineHealth::from_registry`]); the
/// estimator's handles are the single source of truth.
pub mod names {
    /// Reports presented to validated ingest.
    pub const REPORTS_SEEN: &str = "ingest_reports_seen";
    /// Reports quarantined (never ingested).
    pub const REPORTS_QUARANTINED: &str = "ingest_reports_quarantined";
    /// Reports clamped onto the domain boundary.
    pub const REPORTS_CLAMPED: &str = "ingest_reports_clamped";
    /// Epochs that ingested a report batch.
    pub const EPOCHS_INGESTED: &str = "ingest_epochs";
    /// Epochs recorded as missed.
    pub const EPOCHS_MISSED: &str = "ingest_epochs_missed";
    /// Count-plane cells zeroed at ingest.
    pub const SANITIZED_CELLS: &str = "ingest_sanitized_cells";
    /// EM divergence re-seeds across all windows.
    pub const EM_RESEEDS: &str = "em_reseeds";
    /// Windows degraded to uniform.
    pub const DEGENERATE_WINDOWS: &str = "em_degenerate_windows";
    /// Node planes missing at quorum close, summed over epochs.
    pub const NODES_MISSED: &str = "cluster_nodes_missed";
    /// 1.0 while the most recent estimate was partial, else 0.0.
    pub const PARTIAL_WINDOW: &str = "window_partial";
}

/// Running fault/degradation telemetry of one streaming pipeline.
///
/// Counters accumulate over the estimator's lifetime; `partial_window`
/// describes the *most recent* estimate. A fully healthy pipeline
/// satisfies [`PipelineHealth::is_clean`] forever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineHealth {
    /// Validated-ingest accounting: reports seen / quarantined / clamped
    /// across every epoch so far.
    pub ingest: IngestSummary,
    /// Epochs that ingested a report batch (possibly empty after
    /// quarantine).
    pub epochs_ingested: usize,
    /// Epochs recorded as missed ([`crate::StreamingEstimator::ingest_missed_epoch`]):
    /// the collector delivered nothing, and a zero plane holds the
    /// window's place so time stays aligned.
    pub epochs_missed: usize,
    /// Count-plane cells zeroed at ingest because they were non-finite or
    /// negative (only a tampered/corrupted plane can trip this — the
    /// in-process randomizer emits whole numbers).
    pub sanitized_cells: usize,
    /// EM divergence re-seeds across all window estimates.
    pub em_reseeds: usize,
    /// Window estimates degraded to uniform because the (sanitized)
    /// window held no observations.
    pub degenerate_windows: usize,
    /// Multi-node deployments: per-epoch node planes that never arrived
    /// before the coordinator's quorum close (summed over epochs — two
    /// nodes missing the same epoch count twice). The closed epoch's mass
    /// is rescaled by inverse coverage, so the estimate stays a
    /// distribution, but the evidence behind it is thinner than the
    /// node count suggests.
    pub nodes_missed: usize,
    /// The most recent estimate covered fewer epochs than the configured
    /// window (stream younger than the window length), **or** — in a
    /// multi-node deployment — at least one epoch in the window closed
    /// below full node coverage.
    pub partial_window: bool,
}

impl PipelineHealth {
    /// Materialises the health view from a pipeline's obs registry
    /// (all-zero for counters that were never registered).
    pub fn from_registry(reg: &Registry) -> Self {
        Self {
            ingest: IngestSummary {
                seen: reg.counter_value(names::REPORTS_SEEN),
                quarantined: reg.counter_value(names::REPORTS_QUARANTINED),
                clamped: reg.counter_value(names::REPORTS_CLAMPED),
            },
            epochs_ingested: reg.counter_value(names::EPOCHS_INGESTED) as usize,
            epochs_missed: reg.counter_value(names::EPOCHS_MISSED) as usize,
            sanitized_cells: reg.counter_value(names::SANITIZED_CELLS) as usize,
            em_reseeds: reg.counter_value(names::EM_RESEEDS) as usize,
            degenerate_windows: reg.counter_value(names::DEGENERATE_WINDOWS) as usize,
            nodes_missed: reg.counter_value(names::NODES_MISSED) as usize,
            partial_window: reg.gauge_value(names::PARTIAL_WINDOW) != 0.0,
        }
    }

    /// Writes this record wholesale into a registry's health counters —
    /// the checkpoint-restore path (sequential by contract, like
    /// [`dam_obs::Counter::store`]).
    pub fn store_into(&self, reg: &Registry) {
        let det = Plane::Deterministic;
        reg.counter(names::REPORTS_SEEN, det).store(self.ingest.seen);
        reg.counter(names::REPORTS_QUARANTINED, det).store(self.ingest.quarantined);
        reg.counter(names::REPORTS_CLAMPED, det).store(self.ingest.clamped);
        reg.counter(names::EPOCHS_INGESTED, det).store(self.epochs_ingested as u64);
        reg.counter(names::EPOCHS_MISSED, det).store(self.epochs_missed as u64);
        reg.counter(names::SANITIZED_CELLS, det).store(self.sanitized_cells as u64);
        reg.counter(names::EM_RESEEDS, det).store(self.em_reseeds as u64);
        reg.counter(names::DEGENERATE_WINDOWS, det).store(self.degenerate_windows as u64);
        reg.counter(names::NODES_MISSED, det).store(self.nodes_missed as u64);
        reg.gauge(names::PARTIAL_WINDOW, det).set(if self.partial_window { 1.0 } else { 0.0 });
    }

    /// `true` while nothing has ever been quarantined, sanitized,
    /// re-seeded, missed or truncated.
    pub fn is_clean(&self) -> bool {
        self.ingest.quarantined == 0
            && self.ingest.clamped == 0
            && self.epochs_missed == 0
            && self.sanitized_cells == 0
            && self.em_reseeds == 0
            && self.degenerate_windows == 0
            && self.nodes_missed == 0
            && !self.partial_window
    }

    /// One-line operator summary (the `fig_stream --inject` /
    /// `fig_cluster` footer). Every counter appears, zero or not —
    /// including `nodes_missed` — so the line's
    /// shape is stable for log scrapers; the exact format is pinned by a
    /// unit test.
    pub fn summary(&self) -> String {
        format!(
            "seen {} quarantined {} clamped {} | epochs {}+{} missed | sanitized {} | \
             em reseeds {} degenerate {} | nodes missed {}{}",
            self.ingest.seen,
            self.ingest.quarantined,
            self.ingest.clamped,
            self.epochs_ingested,
            self.epochs_missed,
            self.sanitized_cells,
            self.em_reseeds,
            self.degenerate_windows,
            self.nodes_missed,
            if self.partial_window { " | partial window" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_health_is_clean() {
        let h = PipelineHealth::default();
        assert!(h.is_clean());
        assert!(h.summary().contains("seen 0"));
    }

    #[test]
    fn any_fault_marks_dirty() {
        for h in [
            PipelineHealth {
                ingest: IngestSummary { seen: 5, quarantined: 1, clamped: 0 },
                ..PipelineHealth::default()
            },
            PipelineHealth { epochs_missed: 1, ..PipelineHealth::default() },
            PipelineHealth { sanitized_cells: 2, ..PipelineHealth::default() },
            PipelineHealth { em_reseeds: 1, ..PipelineHealth::default() },
            PipelineHealth { degenerate_windows: 1, ..PipelineHealth::default() },
            PipelineHealth { nodes_missed: 1, ..PipelineHealth::default() },
            PipelineHealth { partial_window: true, ..PipelineHealth::default() },
        ] {
            assert!(!h.is_clean(), "{h:?}");
        }
        // Growth alone (epochs, accepted reports) stays clean.
        let busy = PipelineHealth {
            ingest: IngestSummary { seen: 100, quarantined: 0, clamped: 0 },
            epochs_ingested: 10,
            ..PipelineHealth::default()
        };
        assert!(busy.is_clean());
    }

    #[test]
    fn summary_format_is_pinned() {
        // The full operator line, every counter populated — log scrapers
        // parse this shape, so changing it is a breaking change and must
        // show up here. `nodes missed` in particular is nonzero: a
        // counter at the end of the line is easy to drop without any test
        // noticing.
        let h = PipelineHealth {
            ingest: IngestSummary { seen: 120, quarantined: 4, clamped: 2 },
            epochs_ingested: 9,
            epochs_missed: 1,
            sanitized_cells: 3,
            em_reseeds: 2,
            degenerate_windows: 1,
            nodes_missed: 6,
            partial_window: true,
        };
        assert_eq!(
            h.summary(),
            "seen 120 quarantined 4 clamped 2 | epochs 9+1 missed | sanitized 3 | \
             em reseeds 2 degenerate 1 | nodes missed 6 | partial window"
        );
        // And the healthy line, for contrast (no trailing flag).
        assert_eq!(
            PipelineHealth::default().summary(),
            "seen 0 quarantined 0 clamped 0 | epochs 0+0 missed | sanitized 0 | \
             em reseeds 0 degenerate 0 | nodes missed 0"
        );
    }

    #[test]
    fn health_round_trips_through_a_registry() {
        let h = PipelineHealth {
            ingest: IngestSummary { seen: 120, quarantined: 4, clamped: 2 },
            epochs_ingested: 9,
            epochs_missed: 1,
            sanitized_cells: 3,
            em_reseeds: 2,
            degenerate_windows: 1,
            nodes_missed: 6,
            partial_window: true,
        };
        let reg = Registry::new();
        h.store_into(&reg);
        assert_eq!(PipelineHealth::from_registry(&reg), h);
        // A registry that never registered the names reads as default.
        assert_eq!(PipelineHealth::from_registry(&Registry::new()), PipelineHealth::default());
    }
}
