//! Structured span tracing with logical timestamps.
//!
//! A span is opened with [`crate::Registry::span_at`] and closed when
//! its [`SpanGuard`] drops. Nesting is tracked per thread: a span
//! opened while another is active becomes its child, and the aggregate
//! keyed by the full `parent/child` path accumulates count, total
//! duration, and **self** duration (total minus time spent in child
//! spans) — the numbers a profile actually wants.
//!
//! Durations come from the owning registry's [`crate::Clock`]; under
//! the default `LogicalClock` they are all zero, so span *counts*
//! remain deterministic while span *times* live on the timing plane.
//! Logical coordinates (epoch, window, iteration) ride along in
//! [`LogicalStamp`] so a span is locatable on the pipeline's own
//! timeline even without wall time.

use crate::metrics::Registry;
use std::cell::RefCell;

/// Logical coordinates of a span on the pipeline's own timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogicalStamp {
    /// Stream epoch (0 when not applicable).
    pub epoch: u64,
    /// Sliding-window index (0 when not applicable).
    pub window: u64,
    /// Iteration within the phase (0 when not applicable).
    pub iteration: u64,
}

impl LogicalStamp {
    /// A stamp carrying only an epoch coordinate.
    pub fn epoch(epoch: u64) -> Self {
        Self { epoch, ..Self::default() }
    }
}

struct Frame {
    registry_key: usize,
    path: String,
    start_ns: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records into the registry when dropped.
///
/// Inert (no clock reads, no recording) when the registry has spans
/// disabled.
#[derive(Debug)]
pub struct SpanGuard {
    registry: Option<Registry>,
    stamp: LogicalStamp,
}

impl SpanGuard {
    pub(crate) fn open(registry: &Registry, name: &str, stamp: LogicalStamp) -> Self {
        if !registry.is_enabled() {
            return Self { registry: None, stamp };
        }
        let key = registry.key();
        let start_ns = registry.now_ns();
        STACK.with(|stack| {
            if let Ok(mut stack) = stack.try_borrow_mut() {
                let path = match stack.iter().rev().find(|f| f.registry_key == key) {
                    Some(parent) => format!("{}/{}", parent.path, name),
                    None => name.to_string(),
                };
                stack.push(Frame { registry_key: key, path, start_ns, child_ns: 0 });
            }
        });
        Self { registry: Some(registry.clone()), stamp }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(registry) = self.registry.take() else { return };
        let end_ns = registry.now_ns();
        let key = registry.key();
        let finished = STACK.with(|stack| {
            let Ok(mut stack) = stack.try_borrow_mut() else { return None };
            // Guards drop LIFO per thread; take the innermost frame of
            // this registry.
            let idx = stack.iter().rposition(|f| f.registry_key == key)?;
            let frame = stack.remove(idx);
            let dur_ns = end_ns.saturating_sub(frame.start_ns);
            // Charge this span's wall time to its parent's child total.
            if let Some(parent) = stack.iter_mut().rev().find(|f| f.registry_key == key) {
                parent.child_ns += dur_ns;
            }
            Some((frame.path, dur_ns, dur_ns.saturating_sub(frame.child_ns)))
        });
        if let Some((path, dur_ns, self_ns)) = finished {
            registry.record_span(&path, dur_ns, self_ns, self.stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use std::sync::Arc;

    #[test]
    fn nested_spans_aggregate_by_path_with_self_time() {
        let r = Registry::new();
        let clock = Arc::new(LogicalClock::new());
        r.set_clock(Arc::clone(&clock) as Arc<dyn crate::Clock>);
        {
            let _outer = r.span_at("publish", LogicalStamp::epoch(3));
            clock.advance(10);
            {
                let _inner = r.span("em");
                clock.advance(60);
            }
            clock.advance(30);
        }
        let snap = r.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["publish", "publish/em"]);
        let outer = &snap.spans[0];
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ns, 100);
        assert_eq!(outer.self_ns, 40); // 100 total minus 60 in the child
        assert_eq!(outer.last.epoch, 3);
        let inner = &snap.spans[1];
        assert_eq!(inner.total_ns, 60);
        assert_eq!(inner.self_ns, 60);
    }

    #[test]
    fn disabled_registry_records_no_spans() {
        let r = Registry::new();
        r.set_enabled(false);
        {
            let _s = r.span("ingest");
        }
        assert!(r.snapshot().spans.is_empty());
    }

    #[test]
    fn sibling_spans_share_one_aggregate() {
        let r = Registry::new();
        for _ in 0..3 {
            let _s = r.span("close_epoch");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].count, 3);
    }

    #[test]
    fn two_registries_nest_independently() {
        let a = Registry::new();
        let b = Registry::new();
        {
            let _sa = a.span("outer_a");
            let _sb = b.span("solo_b");
        }
        assert_eq!(a.snapshot().spans[0].path, "outer_a");
        // b's span must not have been parented under a's frame.
        assert_eq!(b.snapshot().spans[0].path, "solo_b");
    }
}
