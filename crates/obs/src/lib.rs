//! # dam-obs — deterministic observability for the DAM workspace
//!
//! Every other crate answers "what did the pipeline compute"; this one
//! answers "what did it *do* along the way" — without ever perturbing
//! the computation it watches. The subsystem is split into two planes
//! with different determinism contracts:
//!
//! * the **deterministic plane** ([`Plane::Deterministic`]) — counts,
//!   iterations, retries, coverage. Counters are striped over
//!   per-worker atomic cells and merged in fixed cell order at snapshot
//!   time; because `u64` addition commutes exactly, a deterministic-plane
//!   snapshot is **bit-identical for any thread count** and is pinned by
//!   tests ([`MetricsSnapshot::deterministic_plane`]);
//! * the **timing plane** ([`Plane::Timing`]) — wall durations and
//!   ages. Explicitly excluded from determinism pins; under the default
//!   [`clock::LogicalClock`] every duration is zero, so a pipeline that
//!   never installs [`clock::WallClock`] stays reproducible even in its
//!   timing metrics.
//!
//! Wall time enters the workspace **only** through the [`clock::Clock`]
//! trait: `dam-obs::clock` holds the single reasoned `no-wall-clock`
//! lint allow, the harness installs [`clock::WallClock`] at its
//! boundary, and the `obs-clock-only` lint rule forbids raw `Instant`
//! everywhere else — including the harness crates themselves.
//!
//! [`Registry`] hands out cheap cloneable [`Counter`] / [`Gauge`] /
//! [`Histogram`] / [`Trace`] handles and records structured spans with
//! logical timestamps ([`span::LogicalStamp`]); [`MetricsSnapshot`]
//! exports JSON, Prometheus-style text exposition, and an aggregated
//! span tree (self/total time per phase).

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod span;

pub use clock::{Clock, LogicalClock, Stopwatch, WallClock};
pub use export::MetricsSnapshot;
pub use metrics::{Counter, Gauge, Histogram, Plane, Registry, Trace};
pub use span::{LogicalStamp, SpanGuard};

use std::sync::OnceLock;

/// The process-wide default registry, for leaf crates (e.g.
/// `dam-transport`) whose call sites have no pipeline registry to hand.
///
/// Starts with a [`LogicalClock`] and spans disabled; the harness
/// upgrades it (`set_clock(WallClock)`, `set_enabled(true)`) at its
/// boundary when real timing is wanted.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let r = Registry::new();
        r.set_enabled(false);
        r
    })
}
