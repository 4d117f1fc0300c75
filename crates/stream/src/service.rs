//! Serve-while-ingesting query service over the streaming estimator,
//! and the snapshot publisher it shares with `dam_cluster::Coordinator`.
//!
//! [`Publisher`] owns the one snapshot cell. It serves the uniform
//! epoch-0 [`Snapshot`] until the first publish; each publish freezes a
//! window estimate, its [`Pyramid`] (so large ranges read a
//! boundary-proportional node cover instead of O(cells)) and the
//! [`PipelineHealth`] into an immutable epoch-versioned snapshot, swaps
//! it in under a brief write lock (the replaced one is released after
//! the guard) and records the publish telemetry.
//!
//! [`QueryService`] runs **one writer and wait-free-in-practice readers**:
//!
//! * ingest (`ingest_epoch` / `ingest_missed_epoch`) serializes on a
//!   `Mutex<StreamingEstimator>`; the epoch is ingested and the window
//!   re-estimated *outside* any reader-visible state, then published;
//! * `point` and `range` answer under the publisher's read guard, which
//!   saves the two shared reference-count updates of an `Arc` clone and
//!   drop; a cover walk takes at most a few hundred nanoseconds, so the
//!   writer's swap waits for at most the point and range queries in
//!   flight when it asks;
//! * `heatmap` (an O(side²) copy) and `snapshot` clone the `Arc` under
//!   the read guard and work on that immutable snapshot unlocked.
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
//! (`service_queries_{point,range,heatmap}`, the worker's own cell) and,
//! for a range, its cover size on the striped `range_cover_nodes_total`
//! (mean cover = that counter over `service_queries_range`). Latency is
//! sampled: the query whose count on its worker's cell is a multiple of
//! 64 (a private `const`) reads the registry clock around its answer and
//! records into the timing-plane `service_query_*_ns` histogram; the
//! rest read no clock. Snapshot age is computed only when asked, by
//! [`QueryService::snapshot_age_ns`].

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

/// Owner of the published-snapshot cell: builds, swaps and instruments
/// every snapshot readers see (see the [module docs](self)).
pub struct Publisher {
    cell: RwLock<Arc<Snapshot>>,
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
            cell: RwLock::new(Arc::new(initial)),
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
        // The replaced snapshot is released after the write guard, so
        // readers never wait on its deallocation.
        let replaced = std::mem::replace(&mut *self.cell.write(), Arc::clone(&snapshot));
        drop(replaced);
        let now = self.obs.now_ns();
        self.publish_ns.record(now.saturating_sub(t0));
        self.snapshot_epoch.set(epoch as f64);
        self.last_publish_ns.store(now, Ordering::Relaxed);
        snapshot
    }

    /// The current snapshot, by `Arc` clone under the read guard.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.cell.read())
    }

    /// Runs `f` on the current snapshot under the read guard; the
    /// writer's next swap waits for it, so keep `f` short.
    #[inline]
    pub fn read<T>(&self, f: impl FnOnce(&Snapshot) -> T) -> T {
        f(&self.cell.read())
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

    /// The latest published snapshot (cheap: clones an `Arc` under a
    /// read lock).
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

    /// Point query: the estimated mass of cell `(ix, iy)`, read under
    /// the snapshot read guard.
    pub fn point(&self, ix: u32, iy: u32) -> f64 {
        self.query(&self.so.queries_point, &self.so.query_point_ns, || {
            self.publisher.read(|s| s.pyramid.cell(ix, iy))
        })
    }

    /// Range query: estimated mass of the inclusive cell rectangle,
    /// answered under the read guard by the snapshot pyramid's minimal
    /// node cover (the cover size is added to `range_cover_nodes_total`).
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
    /// their clamped mass (zero past the edge). The copy runs on a
    /// cloned snapshot, outside the read guard.
    pub fn heatmap(&self, side: u32) -> Option<Vec<f64>> {
        self.query(&self.so.queries_heatmap, &self.so.query_heatmap_ns, || {
            self.snapshot().pyramid.level_for_side(side).map(|lv| lv.values().to_vec())
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
}
