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
//! trait: [`clock::WallClock`] holds the single reasoned
//! `#[expect(clippy::disallowed_types)]`, the harness installs it at its
//! boundary, and `clippy.toml` bans raw `Instant` and `SystemTime`
//! everywhere else — including the harness crates themselves.
//!
//! [`Registry`] hands out cheap cloneable [`Counter`] / [`Gauge`] /
//! [`Histogram`] / [`Trace`] handles and records structured spans with
//! logical timestamps ([`span::LogicalStamp`]); [`MetricsSnapshot`]
//! exports JSON, Prometheus-style text exposition, and an aggregated
//! span tree (self/total time per phase).
//!
//! There is no process-wide registry: each pipeline owns its [`Registry`]
//! and hands clones to the layers it instruments.

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "a unit test increments a counter from a raw thread to reach a second stripe; the library target is still checked without cfg(test)"
    )
)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod span;

pub use clock::{Clock, LogicalClock, Stopwatch, WallClock};
pub use export::MetricsSnapshot;
pub use metrics::{Counter, Gauge, Histogram, Plane, Registry, Trace};
pub use span::{LogicalStamp, SpanGuard};
