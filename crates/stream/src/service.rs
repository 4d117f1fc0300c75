//! Serve-while-ingesting query service over the streaming estimator,
//! and the snapshot publisher it shares with `dam_cluster::Coordinator`.
//!
//! [`Publisher`] owns the one snapshot cell. It serves the uniform
//! epoch-0 [`Snapshot`] until the first publish; each publish freezes a
//! window estimate, its [`Pyramid`] (so large ranges read a
//! boundary-proportional node cover instead of O(cells)) and the
//! [`PipelineHealth`] into an immutable epoch-versioned snapshot, swaps
//! it in under a brief write lock, bumps the publisher's sequence
//! number and records the publish telemetry. The publisher keeps the
//! replaced snapshot until the next publish, which releases it after
//! the write guard.
//!
//! Reads write nothing shared. Each reader thread caches one
//! `(publisher id, sequence number, Arc<Snapshot>)`: the last publisher
//! it read. A read revalidates it with one `Acquire` load of the
//! sequence number and borrows the cached snapshot; only the thread's
//! first read after a publish, or its first read of another publisher,
//! takes the read guard to clone the current snapshot into the cache.
//! The publisher keeps the snapshot it replaced until the next publish,
//! so a reader that has read since the last publish never frees a
//! snapshot on a query. A thread idle across two or more publishes, or
//! one that switches publishers (a dropped one's included), may free
//! the stale snapshot its refresh drops. A thread holds at most one
//! cached snapshot, alive until its next refresh or its exit. A
//! thread's epochs never decrease, and a thread that has synchronized
//! with a publish's return (a join, a barrier, a channel) reads that
//! snapshot or a later one.
//!
//! [`QueryService`] runs **one writer and wait-free-in-practice readers**:
//!
//! * ingest (`ingest_epoch` / `ingest_missed_epoch`) serializes on a
//!   `Mutex<StreamingEstimator>`; the epoch is ingested and the window
//!   re-estimated *outside* any reader-visible state, then published;
//! * `point`, `range`, `heatmap` (an O(side²) copy) and `epoch` answer
//!   from the thread's cached snapshot, holding no lock; the writer's
//!   swap waits only for the cache refreshes in flight when it asks;
//! * `snapshot` clones the cached `Arc`, also without the lock.
//!
//! Readers therefore never observe a half-built estimate: every answer
//! is computed against exactly one published epoch boundary. Because the
//! estimator itself is bit-identical for any thread count (sharded
//! deterministic report streams, deterministic EM), the published
//! snapshots — and hence all query answers — are **bit-identical for
//! any thread count and any ingest/query interleaving** within an
//! epoch; only *which* epoch a racing query observes can vary, never
//! the value answered for a given epoch. `crates/stream/tests/service.rs`
//! pins both properties.
//!
//! What a query records: one increment of its kind's striped counter
//! (`service_queries_{point,range,heatmap}`) and, for a range, its
//! cover size on the striped `range_cover_nodes_total` (mean cover =
//! that counter over `service_queries_range`). A thread that owns its
//! counter cell adds with a plain load and store (see `dam_obs`'s
//! metrics docs), so a query on such a thread makes no atomic
//! read-modify-write at all. Latency is sampled: the query whose count
//! on its thread's cell is a multiple of 64 (a private `const`) reads
//! the registry clock around its answer and records into the
//! timing-plane `service_query_*_ns` histogram; the rest read no clock.
//! Snapshot age is computed only when asked, by
//! [`QueryService::snapshot_age_ns`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::estimator::{StreamConfig, StreamingEstimator, WindowEstimate};
use crate::health::PipelineHealth;
use dam_core::Pyramid;
use dam_geo::{Grid2D, Histogram2D, Point};
use dam_obs::{Counter, Gauge, Histogram as ObsHistogram, LogicalStamp, Plane, Registry};
use parking_lot::{Mutex, RwLock};

/// One query in this many, per worker and query kind, is timed into
/// the latency histograms.
const LATENCY_STRIDE: u64 = 64;

/// One immutable epoch-versioned view of the stream: everything a query
/// needs, frozen at a window close.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// How many epochs had been ingested when this snapshot was
    /// published (0 = the pre-ingest uniform snapshot).
    pub epoch: usize,
    /// The normalized sliding-window estimate.
    pub estimate: Histogram2D,
    /// The estimate's aggregate pyramid (exact: every node is the sum
    /// of its children, built by [`Pyramid::from_plane`]).
    pub pyramid: Pyramid,
    /// EM iterations the window took (0 for the initial snapshot).
    pub em_iters: usize,
    /// Whether the window warm-started from the previous estimate.
    pub warm: bool,
    /// Pipeline health as of this snapshot.
    pub health: PipelineHealth,
}

impl Snapshot {
    /// The snapshot of `epoch`: the window estimate and its pyramid.
    fn of(epoch: usize, window: WindowEstimate) -> Self {
        let d = window.histogram.grid().d();
        Self {
            epoch,
            pyramid: Pyramid::from_plane(window.histogram.values(), d),
            estimate: window.histogram,
            em_iters: window.em_iters,
            warm: window.warm,
            health: window.health,
        }
    }
}

/// Source of [`Publisher`] ids: never reused, so a reader cache entry
/// can never be mistaken for a later publisher's.
static NEXT_PUBLISHER: AtomicU64 = AtomicU64::new(0);

/// The published snapshot, and the one it replaced.
struct Published {
    current: Arc<Snapshot>,
    /// Kept until the next publish, so a reader cache that drops it on
    /// refresh never frees it.
    replaced: Option<Arc<Snapshot>>,
}

/// A reader thread's copy of the last publisher's snapshot it read.
struct Cached {
    publisher: u64,
    seq: u64,
    snapshot: Arc<Snapshot>,
}

thread_local! {
    static READER_CACHE: RefCell<Option<Cached>> = const { RefCell::new(None) };
}

/// Owner of the published-snapshot cell: builds, swaps and instruments
/// every snapshot readers see, and serves them through each reader
/// thread's cache (see the [module docs](self)).
pub struct Publisher {
    id: u64,
    /// Publishes so far; bumped under the write guard after each swap.
    seq: AtomicU64,
    cell: RwLock<Published>,
    obs: Registry,
    snapshot_epoch: Gauge,
    publish_ns: ObsHistogram,
    last_publish_ns: AtomicU64,
}

impl Publisher {
    /// A publisher serving the uniform (non-informative) snapshot at
    /// epoch 0 over `grid`, recording into `obs`.
    pub fn new(grid: &Grid2D, obs: Registry) -> Self {
        let n = grid.n_cells();
        let uniform = WindowEstimate {
            histogram: Histogram2D::from_values(grid.clone(), vec![1.0 / n as f64; n]),
            em_iters: 0,
            warm: false,
            health: PipelineHealth::default(),
        };
        let initial = Snapshot::of(0, uniform);
        // Every snapshot of one grid has the same pyramid shape.
        let nodes: usize = initial.pyramid.levels().iter().map(|lv| lv.values().len()).sum();
        obs.gauge("pyramid_nodes", Plane::Deterministic).set(nodes as f64);
        Self {
            id: NEXT_PUBLISHER.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
            cell: RwLock::new(Published { current: Arc::new(initial), replaced: None }),
            snapshot_epoch: obs.gauge("service_snapshot_epoch", Plane::Deterministic),
            publish_ns: obs.histogram("service_publish_ns", Plane::Timing),
            obs,
            last_publish_ns: AtomicU64::new(0),
        }
    }

    /// Publishes what `window` returns as the snapshot of `epoch`. The
    /// `publish` span and `service_publish_ns` cover the `window` call
    /// too, so a caller that re-estimates inside it times its EM run.
    pub fn publish(&self, epoch: usize, window: impl FnOnce() -> WindowEstimate) -> Arc<Snapshot> {
        let _span = self.obs.span_at("publish", LogicalStamp::epoch(epoch as u64));
        let t0 = self.obs.now_ns();
        let snapshot = Arc::new(Snapshot::of(epoch, window()));
        let released = {
            let mut cell = self.cell.write();
            let replaced = std::mem::replace(&mut cell.current, Arc::clone(&snapshot));
            // Under the guard, so a refresh reads a sequence number and
            // the snapshot it names together.
            self.seq.fetch_add(1, Ordering::Release);
            cell.replaced.replace(replaced)
        };
        // The snapshot before the replaced one is released after the
        // write guard, so readers never wait on its deallocation.
        drop(released);
        let now = self.obs.now_ns();
        self.publish_ns.record(now.saturating_sub(t0));
        self.snapshot_epoch.set(epoch as f64);
        self.last_publish_ns.store(now, Ordering::Relaxed);
        snapshot
    }

    /// The sequence number and current snapshot, read together under
    /// the read guard: a reader cache's refresh.
    fn load(&self) -> (u64, Arc<Snapshot>) {
        let cell = self.cell.read();
        (self.seq.load(Ordering::Relaxed), Arc::clone(&cell.current))
    }

    /// Loads the sequence number and current snapshot into this
    /// thread's cache, replacing its entry. The snapshot that entry held
    /// drops after the read guard.
    #[cold]
    #[inline(never)]
    fn refresh<'a>(&self, cache: &'a mut Option<Cached>) -> &'a Cached {
        let (seq, snapshot) = self.load();
        cache.insert(Cached { publisher: self.id, seq, snapshot })
    }

    /// Runs `f` on this thread's cached current snapshot, refreshing
    /// the cache first if a publish has landed since it was filled or
    /// it holds another publisher's.
    #[inline]
    fn with_current<T>(&self, f: impl FnOnce(&Arc<Snapshot>) -> T) -> T {
        let seq = self.seq.load(Ordering::Acquire);
        READER_CACHE.with(|cache| match cache.try_borrow_mut() {
            Ok(mut cache) => match &*cache {
                Some(c) if c.publisher == self.id && c.seq == seq => f(&c.snapshot),
                _ => f(&self.refresh(&mut cache).snapshot),
            },
            // A read nested in another read's `f` finds the cache
            // borrowed and reads under the guard instead.
            Err(_) => f(&self.cell.read().current),
        })
    }

    /// The current snapshot: a clone of this thread's cached `Arc`,
    /// taken without the lock.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.with_current(Arc::clone)
    }

    /// Runs `f` on the current snapshot, borrowed from this thread's
    /// cache: no lock is held, and the read writes no shared memory
    /// unless a publish has landed since this thread last read, or its
    /// last read was of another publisher.
    #[inline]
    pub fn read<T>(&self, f: impl FnOnce(&Snapshot) -> T) -> T {
        self.with_current(|s| f(s))
    }

    /// Registry-clock time since the current snapshot was published.
    pub fn age_ns(&self) -> u64 {
        self.obs.now_ns().saturating_sub(self.last_publish_ns.load(Ordering::Relaxed))
    }
}

/// The service's registered obs handles: per-query counters and sampled
/// latency histograms, snapshot age, range-cover accounting.
struct ServiceObs {
    queries_point: Counter,
    queries_range: Counter,
    queries_heatmap: Counter,
    query_point_ns: ObsHistogram,
    query_range_ns: ObsHistogram,
    query_heatmap_ns: ObsHistogram,
    snapshot_age_ns: Gauge,
    range_cover_nodes_total: Counter,
}

impl ServiceObs {
    fn register(reg: &Registry) -> Self {
        let det = Plane::Deterministic;
        let timing = Plane::Timing;
        Self {
            queries_point: reg.counter("service_queries_point", det),
            queries_range: reg.counter("service_queries_range", det),
            queries_heatmap: reg.counter("service_queries_heatmap", det),
            query_point_ns: reg.histogram("service_query_point_ns", timing),
            query_range_ns: reg.histogram("service_query_range_ns", timing),
            query_heatmap_ns: reg.histogram("service_query_heatmap_ns", timing),
            snapshot_age_ns: reg.gauge("service_snapshot_age_ns", timing),
            range_cover_nodes_total: reg.counter("range_cover_nodes_total", det),
        }
    }
}

/// A long-lived serve-while-ingesting facade over one
/// [`StreamingEstimator`]: ingest epochs from one thread while any
/// number of query threads read the latest published snapshot.
pub struct QueryService {
    estimator: Mutex<StreamingEstimator>,
    publisher: Publisher,
    obs: Registry,
    so: ServiceObs,
}

impl QueryService {
    /// Builds the service with the estimator's grid and configuration.
    /// Until the first epoch closes, queries answer from the uniform
    /// (non-informative) snapshot at epoch 0. The service and the inner
    /// estimator record into one registry.
    pub fn new(grid: Grid2D, config: StreamConfig) -> Self {
        let obs = Registry::new();
        Self {
            publisher: Publisher::new(&grid, obs.clone()),
            so: ServiceObs::register(&obs),
            estimator: Mutex::new(StreamingEstimator::with_registry(grid, config, obs.clone())),
            obs,
        }
    }

    /// The service's obs registry (shared with the inner estimator).
    #[inline]
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Ingests one epoch of reports, re-estimates the sliding window,
    /// and atomically publishes the new snapshot. Returns the epoch
    /// index just ingested (the estimator's convention). Queries keep
    /// answering from the previous snapshot until the swap.
    pub fn ingest_epoch(&self, points: &[Point]) -> usize {
        let mut est = self.estimator.lock();
        let epoch = est.ingest_epoch(points);
        self.publisher.publish(est.epochs(), || est.estimate_window());
        epoch
    }

    /// Advances the stream over an epoch with no reports (upstream
    /// outage): the window slides, the estimate degrades gracefully, and
    /// a fresh snapshot is still published. Returns the epoch index.
    pub fn ingest_missed_epoch(&self) -> usize {
        let mut est = self.estimator.lock();
        let epoch = est.ingest_missed_epoch();
        self.publisher.publish(est.epochs(), || est.estimate_window());
        epoch
    }

    /// Timing-plane freshness: how long ago (on the registry's clock)
    /// the current snapshot was published. Computed here, at scrape
    /// time, and recorded into the `service_snapshot_age_ns` gauge —
    /// queries never touch it.
    pub fn snapshot_age_ns(&self) -> u64 {
        let age = self.publisher.age_ns();
        self.so.snapshot_age_ns.set(age as f64);
        age
    }

    /// The latest published snapshot (cheap: clones this thread's
    /// cached `Arc`, without the lock).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.publisher.snapshot()
    }

    /// Epoch of the latest published snapshot.
    pub fn epoch(&self) -> usize {
        self.publisher.read(|s| s.epoch)
    }

    /// Counts one query on `count` and runs it, timing it into `latency`
    /// if it is its worker's [`LATENCY_STRIDE`]-th.
    #[inline]
    fn query<T>(&self, count: &Counter, latency: &ObsHistogram, answer: impl FnOnce() -> T) -> T {
        if !count.incr_seq().is_multiple_of(LATENCY_STRIDE) {
            return answer();
        }
        let t0 = self.obs.now_ns();
        let out = answer();
        latency.record(self.obs.now_ns().saturating_sub(t0));
        out
    }

    /// Point query: the estimated mass of cell `(ix, iy)`, read from
    /// this thread's cached snapshot.
    pub fn point(&self, ix: u32, iy: u32) -> f64 {
        self.query(&self.so.queries_point, &self.so.query_point_ns, || {
            self.publisher.read(|s| s.pyramid.cell(ix, iy))
        })
    }

    /// Range query: estimated mass of the inclusive cell rectangle,
    /// answered by the cached snapshot pyramid's minimal node cover
    /// (the cover size is added to `range_cover_nodes_total`).
    pub fn range(&self, x0: u32, y0: u32, x1: u32, y1: u32) -> f64 {
        let (v, nodes) = self.query(&self.so.queries_range, &self.so.query_range_ns, || {
            self.publisher.read(|s| s.pyramid.range_sum_counted(x0, y0, x1, y1))
        });
        self.so.range_cover_nodes_total.add(nodes as u64);
        v
    }

    /// Heatmap query: the `side × side` aggregate plane (row-major) from
    /// the snapshot pyramid, or `None` if `side` is not one of its
    /// dyadic levels. Edge-clamped nodes of a non-power-of-two grid hold
    /// their clamped mass (zero past the edge). The copy reads the
    /// cached snapshot, holding no lock.
    pub fn heatmap(&self, side: u32) -> Option<Vec<f64>> {
        self.query(&self.so.queries_heatmap, &self.so.query_heatmap_ns, || {
            self.publisher.read(|s| s.pyramid.level_for_side(side).map(|lv| lv.values().to_vec()))
        })
    }

    /// Pipeline health of the latest snapshot.
    pub fn health(&self) -> PipelineHealth {
        self.publisher.read(|s| s.health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::StreamConfig;
    use dam_core::DamConfig;
    use dam_geo::BoundingBox;

    fn service(d: u32) -> QueryService {
        let grid = Grid2D::new(BoundingBox::unit(), d);
        QueryService::new(grid, StreamConfig::new(DamConfig::dam(2.0), 3, 99))
    }

    #[test]
    fn initial_snapshot_is_uniform_epoch_zero() {
        let svc = service(6);
        assert_eq!(svc.epoch(), 0);
        assert!((svc.range(0, 0, 5, 5) - 1.0).abs() < 1e-9);
        assert!((svc.point(2, 3) - 1.0 / 36.0).abs() < 1e-12);
        assert!(svc.health().is_clean());
    }

    #[test]
    fn ingest_publishes_new_epochs_and_heatmaps() {
        let svc = service(8);
        let pts: Vec<Point> =
            (0..2000).map(|i| Point::new(0.1 + (i % 7) as f64 * 0.01, 0.2)).collect();
        assert_eq!(svc.ingest_epoch(&pts), 0); // first epoch index
        assert_eq!(svc.epoch(), 1);
        assert_eq!(svc.snapshot().health.ingest.seen, 2000);
        let snap = svc.snapshot();
        assert!((snap.pyramid.range_sum(0, 0, 7, 7) - 1.0).abs() < 1e-9);
        // Heatmaps at every dyadic side; total mass preserved.
        for side in [1u32, 2, 4, 8] {
            let hm = svc.heatmap(side).expect("dyadic level");
            assert_eq!(hm.len(), (side * side) as usize);
            assert!((hm.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(svc.heatmap(3).is_none());
        // Missed epochs still publish.
        svc.ingest_missed_epoch();
        assert_eq!(svc.epoch(), 2);
    }

    #[test]
    fn a_read_nested_in_a_read_falls_back_to_the_guard() {
        let svc = service(4);
        let pts: Vec<Point> = (0..500).map(|i| Point::new(0.3, (i % 9) as f64 * 0.1)).collect();
        svc.ingest_epoch(&pts);
        // The outer read holds this thread's cache borrowed, so an inner
        // one reads under its publisher's guard instead.
        let other = service(4);
        let (outer, inner) = svc.publisher.read(|s| (s.epoch, other.publisher.read(|o| o.epoch)));
        assert_eq!((outer, inner), (1, 0));
        assert_eq!(svc.publisher.read(|s| svc.publisher.snapshot().epoch + s.epoch), 2);
    }
}
