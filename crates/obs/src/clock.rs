//! The workspace's **only** legal wall-clock surface.
//!
//! Determinism is the workspace's core contract, and wall time is its
//! enemy: any code path whose *output* depends on elapsed time is
//! irreproducible by construction. The compromise is a trait boundary —
//! everything that wants a timestamp asks a [`Clock`], and only the
//! harness decides whether that clock is real. Two implementations:
//!
//! * [`WallClock`] — real monotonic nanoseconds. Constructed only at
//!   the harness boundary (fig binaries, bench drivers); its readings
//!   feed the **timing plane**, which is excluded from determinism
//!   pins.
//! * [`LogicalClock`] — a manually-advanced tick counter. The default
//!   everywhere: a pipeline that never advances it reports all-zero
//!   durations, bit-identically, forever.
//!
//! `clippy.toml` bans `Instant` and `SystemTime` in every crate, the
//! harness included. [`WallClock`]'s two `#[expect]`s are the one
//! sanctioned crossing.

use std::sync::atomic::{AtomicU64, Ordering};

/// A source of nanosecond timestamps on some timeline.
///
/// Implementations must be cheap and monotone non-decreasing. The
/// *meaning* of the timeline (wall or logical) is the
/// implementor's; consumers only ever subtract readings.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;
}

/// Real monotonic wall time. Harness boundary only.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "the Clock trait is the workspace's single sanctioned wall-time surface; every consumer goes through it"
)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A wall clock whose origin is the moment of construction.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the Clock trait is the workspace's single sanctioned wall-time surface; every consumer goes through it"
    )]
    pub fn new() -> Self {
        Self { origin: std::time::Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds overflow after ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually-advanced logical tick counter (the default clock).
///
/// `now_ns` returns whatever the counter holds; code that never calls
/// [`LogicalClock::advance`] sees a frozen timeline and therefore
/// all-zero durations — deterministic by construction.
#[derive(Debug, Default)]
pub struct LogicalClock {
    ticks: AtomicU64,
}

impl LogicalClock {
    /// A logical clock frozen at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the timeline by `n` ticks.
    pub fn advance(&self, n: u64) {
        self.ticks.fetch_add(n, Ordering::Relaxed);
    }
}

impl Clock for LogicalClock {
    fn now_ns(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// An elapsed-time measurement over any [`Clock`].
///
/// The harness's replacement for raw `Instant::now()` / `elapsed()`
/// pairs (which `clippy.toml` bans).
#[derive(Clone, Copy)]
pub struct Stopwatch<'a> {
    clock: &'a dyn Clock,
    start_ns: u64,
}

impl std::fmt::Debug for Stopwatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stopwatch").field("start_ns", &self.start_ns).finish()
    }
}

impl<'a> Stopwatch<'a> {
    /// Starts a stopwatch at the clock's current reading.
    pub fn start(clock: &'a dyn Clock) -> Self {
        Self { clock, start_ns: clock.now_ns() }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_is_frozen_until_advanced() {
        let c = LogicalClock::new();
        assert_eq!(c.now_ns(), 0);
        let sw = Stopwatch::start(&c);
        assert_eq!(sw.elapsed_ns(), 0);
        c.advance(7);
        assert_eq!(sw.elapsed_ns(), 7);
        assert_eq!(c.now_ns(), 7);
    }

    #[test]
    fn wall_clock_is_monotone_nondecreasing() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn stopwatch_converts_to_seconds() {
        let c = LogicalClock::new();
        let sw = Stopwatch::start(&c);
        c.advance(1_500_000_000);
        assert_eq!(sw.elapsed_secs(), 1.5);
    }
}
