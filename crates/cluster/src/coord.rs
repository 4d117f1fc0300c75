//! The coordinator: retry/backoff plane collection, quorum window
//! close, and the crash-recoverable glue onto `dam-stream`'s
//! warm-started EM, publishing through the same [`dam_stream::Publisher`]
//! (and so recording the same publish instruments) as the query service.
//!
//! # Determinism
//!
//! The collect loop runs on a **simulated clock**: ticks advance only by
//! the deterministic backoff schedule (`base_backoff << attempt`), the
//! transport gates deliveries on ticks, and no wall time decides
//! anything. Two runs of the same cluster configuration and fault plan
//! are therefore bit-identical — including every published estimate,
//! pyramid, and health record — for any thread count. The simulated
//! clock drives the transport only: the registry's timing instruments
//! (spans, `service_publish_ns`) read whatever [`dam_obs::Clock`] the
//! harness installs on it — frozen at zero by default, wall time in
//! `fig_cluster`.
//!
//! # Quorum close and inverse-coverage rescale
//!
//! An epoch closes when at least `quorum` of the K node planes arrived
//! (below quorum, the epoch is recorded missed and a zero plane slides
//! the window). When `arrived < K`, the merged plane is rescaled by
//! inverse coverage so the epoch's expected mass matches a full-coverage
//! epoch — and the rescale is **quantized** (`(v·K/arrived).round()`):
//! counts stay whole numbers, which keeps every downstream structure
//! (window-sum increments, restores from a checkpoint's planes, WAL
//! replay) in exact integer `f64` arithmetic — the property all the
//! bit-identity guarantees in this crate rest on. The thinner evidence is recorded
//! as [`dam_stream::PipelineHealth::nodes_missed`] and flagged via
//! `partial_window` while any under-covered epoch remains in the
//! window.
//!
//! # Crash recovery
//!
//! With a [`CheckpointStore`] attached, every close appends a
//! [`WalEntry`] and every `checkpoint_every` epochs a full
//! [`CheckpointState`] of the live window's planes is written
//! (truncating the WAL). Recovery checks the checkpoint against what the
//! restore relies on (plane count, stream head, whole-number planes),
//! restores it, republishes the last snapshot through the publisher
//! (the estimator's warm state *is* the last published estimate — no
//! EM re-run, which would advance the warm chain), then replays WAL
//! entries re-running the window estimate for each, reproducing the
//! uncrashed run's state bit-for-bit. The recovery tests sweep a kill
//! at **every** epoch boundary at 1 and 4 threads.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::checkpoint::{CheckpointError, CheckpointState, CheckpointStore, WalEntry};
use crate::node::{AggregatorNode, NodePlane};
use crate::transport::SimTransport;
use dam_core::validate::{sanitize_counts, IngestSummary};
use dam_fault::NodeFaultPlan;
use dam_geo::{Grid2D, Histogram2D, Point};
use dam_obs::{Counter, Histogram, LogicalStamp, Plane, Registry};
use dam_stream::{Publisher, Snapshot, StreamConfig, StreamingEstimator, WindowEstimate};

/// Cluster topology and collection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Aggregator nodes (K).
    pub nodes: usize,
    /// Minimum node planes required to close an epoch with data; below
    /// this the epoch is recorded missed. `1 ..= nodes`.
    pub quorum: usize,
    /// Simulated-clock ticks before the first retry; doubles each
    /// attempt (`base_backoff << attempt`).
    pub base_backoff: u64,
    /// Poll attempts per epoch before giving up on missing nodes.
    pub max_attempts: u32,
    /// Seed of the shard→node ownership draws
    /// ([`crate::partition::shard_owner`]).
    pub partition_seed: u64,
}

impl ClusterConfig {
    /// A K-node cluster with majority quorum and the default backoff
    /// schedule (4 attempts at ticks +0, +1, +3, +7 — enough to ride out
    /// the default delivery-delay bound).
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster has at least one node");
        Self { nodes, quorum: nodes / 2 + 1, base_backoff: 1, max_attempts: 4, partition_seed: 17 }
    }

    /// Same, with an explicit quorum.
    pub fn with_quorum(nodes: usize, quorum: usize) -> Self {
        let mut cfg = Self::new(nodes);
        assert!((1..=nodes).contains(&quorum), "quorum {quorum} outside 1..={nodes}");
        cfg.quorum = quorum;
        cfg
    }
}

/// Collection statistics the coordinator accumulates (persisted through
/// checkpoints alongside the health record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Epochs closed (with data or missed).
    pub epochs_closed: u64,
    /// Deliveries dropped by sequence-id dedup (duplicates and stale
    /// replays of earlier epochs).
    pub dup_dropped: u64,
    /// Retry attempts spent waiting on missing planes.
    pub retries: u64,
}

/// Coordinator-plane instruments, registered on the estimator's shared
/// registry so one snapshot covers collection and estimation together.
/// Everything here is whole-tick or whole-count arithmetic on the
/// simulated timeline, so all of it lives in the deterministic plane.
struct CoordObs {
    /// Transport polls issued (one per node per attempt).
    polls: Counter,
    /// Retry attempts spent waiting on missing planes (mirrors
    /// [`CoordStats::retries`]).
    retries: Counter,
    /// Simulated-clock ticks spent inside backoff waits.
    backoff_ticks: Counter,
    /// Deliveries dropped by sequence-id dedup (mirrors
    /// [`CoordStats::dup_dropped`]).
    dup_dropped: Counter,
    /// Epochs closed, with data or missed (mirrors
    /// [`CoordStats::epochs_closed`]).
    epochs_closed: Counter,
    /// Epochs closed below quorum.
    epochs_missed: Counter,
    /// Arrived-node count per close — the quorum coverage distribution.
    quorum_coverage: Histogram,
    /// WAL entries appended.
    wal_entries: Counter,
    /// Bytes appended to the WAL (headers included).
    wal_bytes: Counter,
    /// Bytes written as full checkpoints.
    checkpoint_bytes: Counter,
}

impl CoordObs {
    fn register(reg: &Registry) -> Self {
        Self {
            polls: reg.counter("coord_polls", Plane::Deterministic),
            retries: reg.counter("coord_retries", Plane::Deterministic),
            backoff_ticks: reg.counter("coord_backoff_ticks", Plane::Deterministic),
            dup_dropped: reg.counter("coord_dup_dropped", Plane::Deterministic),
            epochs_closed: reg.counter("coord_epochs_closed", Plane::Deterministic),
            epochs_missed: reg.counter("coord_epochs_missed", Plane::Deterministic),
            quorum_coverage: reg.histogram("coord_quorum_coverage", Plane::Deterministic),
            wal_entries: reg.counter("coord_wal_entries", Plane::Deterministic),
            wal_bytes: reg.counter("coord_wal_bytes", Plane::Deterministic),
            checkpoint_bytes: reg.counter("coord_checkpoint_bytes", Plane::Deterministic),
        }
    }
}

/// What one epoch close produced.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The epoch closed.
    pub epoch: usize,
    /// Node planes that arrived in time.
    pub arrived: usize,
    /// Closed below quorum (epoch recorded missed).
    pub missed: bool,
    /// The snapshot published by this close.
    pub snapshot: Arc<Snapshot>,
}

/// The cluster coordinator: collects node planes, closes epochs, owns
/// the warm-started streaming estimator, publishes snapshots, and
/// (optionally) persists a checkpoint + WAL for crash recovery.
pub struct Coordinator {
    cluster: ClusterConfig,
    grid: Grid2D,
    est: StreamingEstimator,
    publisher: Publisher,
    /// Simulated tick the transport gates deliveries on.
    clock: u64,
    /// Arrived-node counts of the epochs in the live window (oldest
    /// first) — decides the multi-node reading of `partial_window`.
    coverage: VecDeque<usize>,
    stats: CoordStats,
    store: Option<CheckpointStore>,
    checkpoint_every: usize,
    obs: CoordObs,
}

impl Coordinator {
    /// A coordinator with no persistence.
    pub fn new(grid: Grid2D, stream: StreamConfig, cluster: ClusterConfig) -> Self {
        assert!(
            (1..=cluster.nodes).contains(&cluster.quorum),
            "quorum {} outside 1..={}",
            cluster.quorum,
            cluster.nodes
        );
        assert!(cluster.max_attempts > 0, "at least one poll attempt");
        let est = StreamingEstimator::new(grid.clone(), stream);
        let obs = CoordObs::register(est.obs());
        Self {
            cluster,
            publisher: Publisher::new(&grid, est.obs().clone()),
            est,
            grid,
            clock: 0,
            coverage: VecDeque::new(),
            stats: CoordStats::default(),
            store: None,
            checkpoint_every: 0,
            obs,
        }
    }

    /// A coordinator persisting to `store` (full checkpoint every
    /// `checkpoint_every` closed epochs, WAL entry every close). If the
    /// store already holds state — a previous coordinator died — this
    /// **recovers**: checkpoint restore, last-snapshot republish, WAL
    /// replay. The recovered coordinator's subsequent estimates are
    /// bit-identical to an uncrashed run's.
    pub fn with_store(
        grid: Grid2D,
        stream: StreamConfig,
        cluster: ClusterConfig,
        store: CheckpointStore,
        checkpoint_every: usize,
    ) -> Result<Self, CheckpointError> {
        assert!(checkpoint_every > 0, "checkpoint cadence must be positive");
        let mut coord = Self::new(grid, stream, cluster);
        coord.checkpoint_every = checkpoint_every;
        let checkpoint = store.read_checkpoint()?;
        let wal = store.read_wal()?;
        coord.store = Some(store);
        if let Some(state) = checkpoint {
            coord.restore_checkpoint(state)?;
        }
        for entry in wal {
            coord.replay_wal_entry(entry)?;
        }
        Ok(coord)
    }

    fn restore_checkpoint(&mut self, state: CheckpointState) -> Result<(), CheckpointError> {
        let corrupt = |detail: String| Err(CheckpointError::Corrupt { detail });
        let n = self.est.client().kernel().n_out();
        if state.n_cells != n {
            return corrupt(format!("checkpoint plane width {} != pipeline {n}", state.n_cells));
        }
        if let Some(bad) = state.planes.iter().position(|p| p.len() != n) {
            let len = state.planes[bad].len();
            return corrupt(format!("checkpoint plane {bad} has {len} cells, want {n}"));
        }
        // The estimator restores the planes as the last epochs before the
        // head its health counters name; the window sum it rebuilds from
        // them is exact only for whole counts below 2⁵³ (NaN fails too).
        let h = &state.health;
        let Some(head) = h.epochs_ingested.checked_add(h.epochs_missed) else {
            return corrupt("epoch counters overflow".into());
        };
        let head = head.max(state.planes.len());
        if head as u64 != state.stats.epochs_closed {
            let closed = state.stats.epochs_closed;
            return corrupt(format!("stream head {head} != {closed} epochs closed"));
        }
        let want = head.min(self.est.config().window);
        if state.planes.len() != want {
            let got = state.planes.len();
            return corrupt(format!("{got} planes for a head of {head}, want {want}"));
        }
        let whole = |v: f64| (0.0..9_007_199_254_740_992.0).contains(&v) && v.fract() == 0.0;
        if let Some(&v) = state.planes.iter().flatten().find(|&&v| !whole(v)) {
            return corrupt(format!("a plane holds {v}, not a whole count below 2^53"));
        }
        if let Some(w) = &state.warm {
            if w.len() != self.grid.n_cells() {
                let cells = self.grid.n_cells();
                return corrupt(format!("warm state has {} cells, grid has {cells}", w.len()));
            }
        }
        self.est.restore(&state.planes, state.reports, state.health, state.warm);
        self.clock = state.clock;
        self.coverage = state.coverage.into_iter().collect();
        self.stats = state.stats;
        // Re-seat the stats-backed counters so the registry agrees with
        // the recovered stats (poll/backoff/byte counters are not
        // persisted and restart from zero — they describe *this*
        // process's work, not the crashed one's).
        self.obs.epochs_closed.store(self.stats.epochs_closed);
        self.obs.dup_dropped.store(self.stats.dup_dropped);
        self.obs.retries.store(self.stats.retries);
        if self.est.epochs() > 0 {
            // The warm state IS the last published estimate (the
            // estimator stores each window's raw result as the next warm
            // seed), so the snapshot republishes without touching EM.
            let values = self
                .est
                .warm_state()
                .ok_or_else(|| CheckpointError::Corrupt {
                    detail: "closed epochs but no stored estimate".into(),
                })?
                .to_vec();
            self.publisher.publish(self.est.epochs(), || WindowEstimate {
                histogram: Histogram2D::from_values(self.grid.clone(), values),
                em_iters: state.snapshot_em_iters as usize,
                warm: state.snapshot_warm,
                health: self.est.health(),
            });
        }
        Ok(())
    }

    fn replay_wal_entry(&mut self, entry: WalEntry) -> Result<(), CheckpointError> {
        let expected = self.est.epochs() as u64;
        if entry.epoch < expected {
            // Already covered by the checkpoint (WAL written before it).
            return Ok(());
        }
        if entry.epoch > expected {
            return Err(CheckpointError::Corrupt {
                detail: format!("wal skips from epoch {expected} to {}", entry.epoch),
            });
        }
        let n = self.est.client().kernel().n_out();
        if entry.plane.len() != n {
            return Err(CheckpointError::Corrupt {
                detail: format!("wal plane has {} cells, want {n}", entry.plane.len()),
            });
        }
        self.stats.dup_dropped += entry.dup_delta;
        self.stats.retries += entry.retries_delta;
        self.obs.dup_dropped.add(entry.dup_delta);
        self.obs.retries.add(entry.retries_delta);
        self.apply_close(
            entry.missed,
            entry.arrived,
            entry.nodes_missed_delta,
            entry.sanitized_delta,
            &entry.plane,
            &entry.summary,
        );
        self.clock = entry.clock_after;
        Ok(())
    }

    /// The epoch the next close will produce.
    #[inline]
    pub fn next_epoch(&self) -> usize {
        self.est.epochs()
    }

    /// Collection statistics so far.
    #[inline]
    pub fn stats(&self) -> &CoordStats {
        &self.stats
    }

    /// The underlying streaming estimator (window counts, health, the
    /// retained epoch planes).
    #[inline]
    pub fn estimator(&self) -> &StreamingEstimator {
        &self.est
    }

    /// The latest published snapshot (cheap `Arc` clone under a read
    /// lock — same publisher, and so the same serve-while-ingesting
    /// contract, as `dam_stream::QueryService`).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.publisher.snapshot()
    }

    /// Collects epoch planes from `transport` under the retry/backoff
    /// schedule, closes the epoch (quorum permitting), publishes the new
    /// snapshot, and persists the WAL entry / checkpoint when a store is
    /// attached. Returns what happened.
    pub fn close_epoch(
        &mut self,
        transport: &mut SimTransport,
    ) -> Result<EpochOutcome, CheckpointError> {
        let epoch = self.est.epochs();
        let span = self.est.obs().span_at("close_epoch", LogicalStamp::epoch(epoch as u64));
        let k = self.cluster.nodes;
        let mut slots: Vec<Option<NodePlane>> = (0..k).map(|_| None).collect();
        let mut arrived = 0usize;
        let mut dup_delta = 0u64;
        let mut retries_delta = 0u64;
        let mut attempt = 0u32;
        loop {
            self.obs.polls.add(k as u64);
            for node in 0..k {
                for plane in transport.poll(node, self.clock) {
                    // Dedup by `(node, epoch)` sequence id: replays of
                    // this epoch hit a filled slot, stale replays of an
                    // earlier epoch carry a different id. Either way the
                    // delivery is dropped and counted.
                    let from = plane.node;
                    let fresh = plane.epoch == epoch
                        && from < k
                        && plane.seq == NodePlane::sequence_id(from, plane.epoch)
                        && slots[from].is_none();
                    if fresh {
                        slots[from] = Some(plane);
                        arrived += 1;
                    } else {
                        dup_delta += 1;
                    }
                }
            }
            attempt += 1;
            if arrived == k || attempt >= self.cluster.max_attempts {
                break;
            }
            let wait = self.cluster.base_backoff << (attempt - 1);
            self.clock += wait;
            self.obs.backoff_ticks.add(wait);
            retries_delta += 1;
        }
        // The close itself takes a tick, so consecutive epochs occupy
        // distinct clock ranges even when every plane arrives instantly.
        self.clock += 1;

        let missed = arrived < self.cluster.quorum;
        let nodes_missed_delta = k - arrived;
        let n = self.est.client().kernel().n_out();
        let mut plane = vec![0.0; n];
        let mut summary = IngestSummary::default();
        let mut sanitized_delta = 0usize;
        if !missed {
            // Sanitize each arrived plane (corrupted deliveries), then
            // merge in node order — whole-number sums are order-exact,
            // but a fixed order keeps the code auditable.
            for slot in slots.iter_mut().flatten() {
                sanitized_delta += sanitize_counts(&mut slot.counts);
                summary.merge(&slot.summary);
                for (acc, &v) in plane.iter_mut().zip(&slot.counts) {
                    *acc += v;
                }
            }
            if arrived < k {
                // Quantized inverse-coverage rescale: missing nodes'
                // expected mass is restored while counts stay whole, so
                // every downstream structure stays in exact integer
                // arithmetic (rounding error is O(1) per cell, far below
                // the sampling noise of a missing node).
                let scale = k as f64 / arrived as f64;
                for v in plane.iter_mut() {
                    *v = (*v * scale).round();
                }
            }
        }
        self.stats.dup_dropped += dup_delta;
        self.stats.retries += retries_delta;
        self.obs.dup_dropped.add(dup_delta);
        self.obs.retries.add(retries_delta);
        let snapshot = self.apply_close(
            missed,
            arrived,
            nodes_missed_delta,
            sanitized_delta,
            &plane,
            &summary,
        );
        if let Some(store) = &self.store {
            let appended = store.append_wal(&WalEntry {
                epoch: epoch as u64,
                missed,
                arrived,
                nodes_missed_delta,
                sanitized_delta,
                dup_delta,
                retries_delta,
                clock_after: self.clock,
                summary,
                plane,
            })?;
            self.obs.wal_entries.incr();
            self.obs.wal_bytes.add(appended);
            if self.checkpoint_every > 0 && self.est.epochs().is_multiple_of(self.checkpoint_every)
            {
                let state = self.state_snapshot(&snapshot);
                let written = store.write_checkpoint(&state)?;
                self.obs.checkpoint_bytes.add(written);
            }
        }
        drop(span);
        Ok(EpochOutcome { epoch, arrived, missed, snapshot })
    }

    /// The state transition of one close — shared verbatim between the
    /// live path and WAL replay, which is what makes replay reproduce
    /// the uncrashed run exactly. Returns the published snapshot.
    fn apply_close(
        &mut self,
        missed: bool,
        arrived: usize,
        nodes_missed_delta: usize,
        sanitized_delta: usize,
        plane: &[f64],
        summary: &IngestSummary,
    ) -> Arc<Snapshot> {
        self.est.note_nodes_missed(nodes_missed_delta);
        self.est.note_sanitized_cells(sanitized_delta);
        if missed {
            self.est.ingest_missed_epoch();
        } else {
            self.est.ingest_epoch_plane(plane, summary);
        }
        self.coverage.push_back(arrived);
        while self.coverage.len() > self.est.config().window {
            self.coverage.pop_front();
        }
        let mut win = self.est.estimate_window();
        if self.coverage.iter().any(|&c| c < self.cluster.nodes) {
            // The multi-node reading of a partial window: some epoch in
            // the window closed below full node coverage.
            self.est.set_partial_window(true);
            win.health.partial_window = true;
        }
        self.stats.epochs_closed += 1;
        self.obs.epochs_closed.incr();
        if missed {
            self.obs.epochs_missed.incr();
        }
        self.obs.quorum_coverage.record(arrived as u64);
        self.publisher.publish(self.est.epochs(), || win)
    }

    fn state_snapshot(&self, last: &Snapshot) -> CheckpointState {
        CheckpointState {
            n_cells: self.est.client().kernel().n_out(),
            planes: self.est.tree().held_planes().map(<[f64]>::to_vec).collect(),
            reports: self.est.reports(),
            clock: self.clock,
            health: self.est.health(),
            stats: self.stats,
            coverage: self.coverage.iter().copied().collect(),
            warm: self.est.warm_state().map(<[f64]>::to_vec),
            snapshot_em_iters: last.em_iters as u64,
            snapshot_warm: last.warm,
        }
    }
}

/// A whole in-process cluster: K aggregator nodes, the simulated
/// transport, and the coordinator — the harness `fig_cluster`, the
/// benches, and the chaos/recovery tests drive.
pub struct Cluster {
    nodes: Vec<AggregatorNode>,
    transport: SimTransport,
    coordinator: Coordinator,
    stream_seed: u64,
}

impl Cluster {
    /// Builds a K-node cluster over `grid` with no persistence.
    pub fn new(
        grid: Grid2D,
        stream: StreamConfig,
        cluster: ClusterConfig,
        plan: NodeFaultPlan,
    ) -> Self {
        let coordinator = Coordinator::new(grid.clone(), stream, cluster);
        Self::assemble(grid, stream, cluster, plan, coordinator)
    }

    /// Builds (or **recovers**, if the store holds state) a persistent
    /// cluster — see [`Coordinator::with_store`].
    pub fn with_store(
        grid: Grid2D,
        stream: StreamConfig,
        cluster: ClusterConfig,
        plan: NodeFaultPlan,
        store: CheckpointStore,
        checkpoint_every: usize,
    ) -> Result<Self, CheckpointError> {
        let coordinator =
            Coordinator::with_store(grid.clone(), stream, cluster, store, checkpoint_every)?;
        Ok(Self::assemble(grid, stream, cluster, plan, coordinator))
    }

    fn assemble(
        grid: Grid2D,
        stream: StreamConfig,
        cluster: ClusterConfig,
        plan: NodeFaultPlan,
        coordinator: Coordinator,
    ) -> Self {
        let nodes = (0..cluster.nodes)
            .map(|node| {
                AggregatorNode::new(
                    grid.clone(),
                    &stream.dam,
                    stream.policy,
                    node,
                    cluster.nodes,
                    cluster.partition_seed,
                )
            })
            .collect();
        Self {
            nodes,
            transport: SimTransport::new(cluster.nodes, plan),
            coordinator,
            stream_seed: stream.seed,
        }
    }

    /// The coordinator (snapshots, health, stats, estimator).
    #[inline]
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Forces node `node` down/up at the transport
    /// ([`SimTransport::force_outage`]).
    pub fn force_outage(&mut self, node: usize, down: bool) {
        self.transport.force_outage(node, down);
    }

    /// Runs one full epoch: every up node ingests its partition of
    /// `points` under the epoch's report seed (the same seed a
    /// single-node reference uses — mergeability), the transport stages
    /// the planes with the plan's faults, and the coordinator collects
    /// and closes.
    pub fn ingest_epoch(&mut self, points: &[Point]) -> Result<EpochOutcome, CheckpointError> {
        let epoch = self.coordinator.next_epoch();
        let seed = StreamingEstimator::epoch_seed(self.stream_seed, epoch);
        let planes = (0..self.nodes.len())
            .map(|node| {
                if self.transport.node_down(node, epoch) {
                    None
                } else {
                    Some(self.nodes[node].ingest_epoch(epoch, seed, points))
                }
            })
            .collect();
        self.transport.begin_epoch(epoch, planes);
        self.coordinator.close_epoch(&mut self.transport)
    }
}
