//! The metrics registry: counters, gauges, log₂ histograms, and traces
//! behind cheap cloneable handles.
//!
//! ## Determinism contract
//!
//! Handles are registered once (name lookup under a lock) and then
//! recorded through lock-free atomics. [`Counter`] stripes its value
//! over [`STRIPES`] per-worker cells — each thread picks a home cell on
//! first use — and a snapshot merges the cells **in fixed cell order**.
//! Because `u64` addition commutes exactly, the merged value is
//! identical no matter how many threads recorded or how their writes
//! interleaved: the deterministic plane is bit-identical for any thread
//! count. [`Histogram`] buckets and [`Gauge`] cells are single atomics
//! (`u64` bucket adds commute the same way; gauges are last-wins and
//! only recorded from sequential driver code).
//!
//! [`Trace`] is the one order-sensitive instrument (an `f64` ring of
//! per-iteration residuals). It is deterministic because its writers are
//! sequential (the EM loop), not because writes commute — so traces are
//! wired only to single-writer sites.

use crate::clock::{Clock, LogicalClock};
use crate::export::{HistogramSnapshot, MetricsSnapshot, SpanAggregate};
use crate::span::{LogicalStamp, SpanGuard};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which determinism contract a metric lives under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Counts, iterations, retries — pinned bit-identical across
    /// thread counts.
    Deterministic,
    /// Wall durations and ages — explicitly excluded from determinism
    /// pins (all zero under the default [`LogicalClock`]).
    Timing,
}

impl Plane {
    /// Short label used in expositions (`det` / `timing`).
    pub fn label(self) -> &'static str {
        match self {
            Plane::Deterministic => "det",
            Plane::Timing => "timing",
        }
    }
}

/// Number of per-worker counter cells. More stripes than the runner's
/// worker cap keeps hot counters contention-free.
pub const STRIPES: usize = 16;

/// Log₂ histogram bucket count: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, bucket 64 the top of the u64 range.
pub const BUCKETS: usize = 65;

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static HOME_CELL: usize = NEXT_WORKER.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

fn home_cell() -> usize {
    HOME_CELL.with(|c| *c)
}

#[derive(Debug)]
struct CounterCore {
    name: String,
    plane: Plane,
    cells: [AtomicU64; STRIPES],
}

/// A monotone counter striped over per-worker cells.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    fn new(name: &str, plane: Plane) -> Self {
        Self(Arc::new(CounterCore {
            name: name.to_string(),
            plane,
            cells: [const { AtomicU64::new(0) }; STRIPES],
        }))
    }

    /// Adds `n` to this worker's cell (lock-free, commutative).
    pub fn add(&self, n: u64) {
        self.0.cells[home_cell()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds one and returns this worker's cell as it was before: a
    /// per-worker sequence number (workers beyond [`STRIPES`] share
    /// cells, so theirs interleave), for deterministic 1-in-k sampling
    /// without a second thread-local.
    pub fn incr_seq(&self) -> u64 {
        self.0.cells[home_cell()].fetch_add(1, Ordering::Relaxed)
    }

    /// Merges the cells in fixed order: the deterministic total.
    pub fn value(&self) -> u64 {
        let mut total = 0u64;
        for cell in &self.0.cells {
            total = total.wrapping_add(cell.load(Ordering::Relaxed));
        }
        total
    }

    /// Resets the counter to an absolute value.
    ///
    /// Restore-path only (checkpoint recovery): callers must be
    /// sequential — a concurrent `add` may be lost.
    pub fn store(&self, v: u64) {
        for cell in self.0.cells.iter().skip(1) {
            cell.store(0, Ordering::Relaxed);
        }
        self.0.cells[0].store(v, Ordering::Relaxed);
    }

    /// The registered metric name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

#[derive(Debug)]
struct GaugeCore {
    name: String,
    plane: Plane,
    bits: AtomicU64,
}

/// A last-wins `f64` gauge. Deterministic only when recorded from
/// sequential driver code (which is how the pipelines use it).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    fn new(name: &str, plane: Plane) -> Self {
        Self(Arc::new(GaugeCore {
            name: name.to_string(),
            plane,
            bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The last value set (0.0 initially).
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }

    /// The registered metric name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

#[derive(Debug)]
struct HistogramCore {
    name: String,
    plane: Plane,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucket histogram over `u64` samples (latencies in ns,
/// iteration counts, node counts).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// The log₂ bucket index for a sample.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    fn new(name: &str, plane: Plane) -> Self {
        Self(Arc::new(HistogramCore {
            name: name.to_string(),
            plane,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one sample (lock-free, commutative).
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The registered metric name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot { count: self.count(), sum: self.sum(), buckets }
    }
}

#[derive(Debug)]
struct TraceCore {
    name: String,
    cap: usize,
    ring: Mutex<VecDeque<f64>>,
}

/// A bounded ring of `f64` samples in push order (e.g. the EM loop's
/// per-iteration log-likelihood gain residuals).
///
/// Order-sensitive: deterministic only under sequential writers.
#[derive(Debug, Clone)]
pub struct Trace(Arc<TraceCore>);

impl Trace {
    fn new(name: &str, cap: usize) -> Self {
        Self(Arc::new(TraceCore {
            name: name.to_string(),
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }))
    }

    /// Appends a sample, evicting the oldest past capacity.
    pub fn push(&self, v: f64) {
        let mut ring = self.0.ring.lock();
        if ring.len() == self.0.cap {
            ring.pop_front();
        }
        ring.push_back(v);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> Vec<f64> {
        self.0.ring.lock().iter().copied().collect()
    }

    /// The registered metric name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

/// One span path's aggregate, updated on every guard drop.
#[derive(Debug)]
pub(crate) struct SpanSlot {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub last: LogicalStamp,
}

#[derive(Debug, Default)]
struct Instruments {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
    traces: Vec<Trace>,
}

struct Inner {
    enabled: AtomicBool,
    clock: Mutex<Arc<dyn Clock>>,
    instruments: Mutex<Instruments>,
    spans: Mutex<Vec<SpanSlot>>,
}

/// The handle-granting registry. Cloning shares the underlying store.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry on a frozen [`LogicalClock`], spans enabled.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                clock: Mutex::new(Arc::new(LogicalClock::new())),
                instruments: Mutex::new(Instruments::default()),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Installs a clock; subsequent [`Registry::now_ns`] readings and
    /// span durations use it.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *self.inner.clock.lock() = clock;
    }

    /// The current clock reading (timing-plane inputs only).
    pub fn now_ns(&self) -> u64 {
        let clock = Arc::clone(&self.inner.clock.lock());
        clock.now_ns()
    }

    /// Enables or disables span recording. Counters, gauges,
    /// histograms, and traces record regardless — they are part of the
    /// pipeline's health surface.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether span recording is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// An opaque identity for span-stack bookkeeping: two clones of the
    /// same registry share it.
    pub(crate) fn key(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Registers (or retrieves) a deterministic- or timing-plane
    /// counter by name.
    pub fn counter(&self, name: &str, plane: Plane) -> Counter {
        let mut inst = self.inner.instruments.lock();
        if let Some(c) = inst.counters.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let c = Counter::new(name, plane);
        inst.counters.push(c.clone());
        c
    }

    /// Registers (or retrieves) a gauge by name.
    pub fn gauge(&self, name: &str, plane: Plane) -> Gauge {
        let mut inst = self.inner.instruments.lock();
        if let Some(g) = inst.gauges.iter().find(|g| g.name() == name) {
            return g.clone();
        }
        let g = Gauge::new(name, plane);
        inst.gauges.push(g.clone());
        g
    }

    /// Registers (or retrieves) a log₂ histogram by name.
    pub fn histogram(&self, name: &str, plane: Plane) -> Histogram {
        let mut inst = self.inner.instruments.lock();
        if let Some(h) = inst.histograms.iter().find(|h| h.name() == name) {
            return h.clone();
        }
        let h = Histogram::new(name, plane);
        inst.histograms.push(h.clone());
        h
    }

    /// Registers (or retrieves) a bounded trace by name.
    pub fn trace(&self, name: &str, cap: usize) -> Trace {
        let mut inst = self.inner.instruments.lock();
        if let Some(t) = inst.traces.iter().find(|t| t.name() == name) {
            return t.clone();
        }
        let t = Trace::new(name, cap);
        inst.traces.push(t.clone());
        t
    }

    /// The merged value of a counter, 0 if never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        let inst = self.inner.instruments.lock();
        inst.counters.iter().find(|c| c.name() == name).map(|c| c.value()).unwrap_or(0)
    }

    /// The last value of a gauge, 0.0 if never registered.
    pub fn gauge_value(&self, name: &str) -> f64 {
        let inst = self.inner.instruments.lock();
        inst.gauges.iter().find(|g| g.name() == name).map(|g| g.value()).unwrap_or(0.0)
    }

    /// Opens a span with a default (all-zero) logical stamp.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_at(name, LogicalStamp::default())
    }

    /// Opens a span stamped with logical coordinates. Inert (no
    /// recording, no clock reads) while the registry is disabled.
    pub fn span_at(&self, name: &str, stamp: LogicalStamp) -> SpanGuard {
        SpanGuard::open(self, name, stamp)
    }

    pub(crate) fn record_span(&self, path: &str, dur_ns: u64, self_ns: u64, stamp: LogicalStamp) {
        let mut spans = self.inner.spans.lock();
        if let Some(slot) = spans.iter_mut().find(|s| s.path == path) {
            slot.count += 1;
            slot.total_ns += dur_ns;
            slot.self_ns += self_ns;
            slot.last = stamp;
        } else {
            spans.push(SpanSlot {
                path: path.to_string(),
                count: 1,
                total_ns: dur_ns,
                self_ns,
                last: stamp,
            });
        }
    }

    /// A point-in-time snapshot: every instrument, merged in
    /// deterministic order and sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inst = self.inner.instruments.lock();
        let mut counters: Vec<(String, Plane, u64)> =
            inst.counters.iter().map(|c| (c.name().to_string(), c.0.plane, c.value())).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, Plane, f64)> =
            inst.gauges.iter().map(|g| (g.name().to_string(), g.0.plane, g.value())).collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, Plane, HistogramSnapshot)> = inst
            .histograms
            .iter()
            .map(|h| (h.name().to_string(), h.0.plane, h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut traces: Vec<(String, Vec<f64>)> =
            inst.traces.iter().map(|t| (t.name().to_string(), t.samples())).collect();
        traces.sort_by(|a, b| a.0.cmp(&b.0));
        drop(inst);

        let spans_guard = self.inner.spans.lock();
        let mut spans: Vec<SpanAggregate> = spans_guard
            .iter()
            .map(|s| SpanAggregate {
                path: s.path.clone(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.self_ns,
                last: s.last,
            })
            .collect();
        drop(spans_guard);
        spans.sort_by(|a, b| a.path.cmp(&b.path));

        MetricsSnapshot { counters, gauges, histograms, traces, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_cells_deterministically() {
        let r = Registry::new();
        let c = r.counter("reports_seen", Plane::Deterministic);
        c.add(3);
        c.incr();
        assert_eq!(c.value(), 4);
        assert_eq!(r.counter_value("reports_seen"), 4);
        // Same name returns the same underlying counter.
        let c2 = r.counter("reports_seen", Plane::Deterministic);
        c2.add(1);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn incr_seq_numbers_this_workers_increments() {
        let r = Registry::new();
        let c = r.counter("q", Plane::Deterministic);
        let seq: Vec<u64> = (0..4).map(|_| c.incr_seq()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3]);
        // Another worker starts from zero on its own cell, or continues
        // this one's if the test binary's workers have wrapped round
        // STRIPES onto it; the merged value counts both either way.
        let other = r.counter("q", Plane::Deterministic);
        let first = std::thread::spawn(move || other.incr_seq()).join().unwrap();
        assert!(first == 0 || first == 4, "foreign sequence {first}");
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn counter_store_resets_all_cells() {
        let r = Registry::new();
        let c = r.counter("x", Plane::Deterministic);
        c.add(10);
        c.store(3);
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let r = Registry::new();
        let h = r.histogram("lat", Plane::Timing);
        for v in [0u64, 1, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 104);
        let snap = r.snapshot();
        let (_, _, hs) = &snap.histograms[0];
        assert_eq!(hs.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4);
    }

    #[test]
    fn trace_evicts_oldest_past_capacity() {
        let r = Registry::new();
        let t = r.trace("ll_gain", 3);
        for i in 0..5 {
            t.push(i as f64);
        }
        assert_eq!(t.samples(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn gauge_is_last_wins() {
        let r = Registry::new();
        let g = r.gauge("partial", Plane::Deterministic);
        assert_eq!(g.value(), 0.0);
        g.set(1.0);
        g.set(0.5);
        assert_eq!(g.value(), 0.5);
        assert_eq!(r.gauge_value("partial"), 0.5);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("zeta", Plane::Deterministic);
        r.counter("alpha", Plane::Deterministic);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn registry_clones_share_state() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("c", Plane::Deterministic).add(2);
        assert_eq!(r2.counter_value("c"), 2);
        assert_eq!(r.key(), r2.key());
    }
}
