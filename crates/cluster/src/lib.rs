//! # dam-cluster — fault-tolerant multi-node aggregation
//!
//! Count planes are linear: K aggregators each randomizing a disjoint
//! partition of an epoch's reports produce planes whose cell-wise sum is
//! **bit-identical** to one aggregator ingesting the union (whole-number
//! `f64` sums are order-exact). That makes distribution *possible*; this
//! crate makes it *survivable* — the failures that come with K machines
//! instead of one:
//!
//! * [`partition`] — the deterministic shard→node ownership function:
//!   reports partition by SplitMix64 draws keyed
//!   `(partition seed, epoch, shard)`, so every node knows its share of
//!   every epoch without coordination and the union of shares is exactly
//!   the single-node batch (the mergeability proptests pin the
//!   linearity);
//! * [`node`] — [`node::AggregatorNode`]: per-node sharded validated
//!   ingest over the partition (`dam_core`'s
//!   `report_batch_validated_partition_in`), emitting a
//!   [`node::NodePlane`] with a `(node, epoch)` sequence id;
//! * [`transport`] — the [`transport::PlaneTransport`] delivery seam and
//!   its deterministic in-process simulation
//!   ([`transport::SimTransport`]): node crashes, delayed / duplicated /
//!   corrupted deliveries, all drawn from `dam_fault::NodeFaultPlan`'s
//!   pure `(seed, family, node, epoch)` streams;
//! * [`coord`] — the [`coord::Coordinator`]: collects per-epoch planes
//!   with a simulated-clock retry/backoff loop (bit-identical runs — no
//!   wall time anywhere), deduplicates replays by sequence id, sanitizes
//!   corrupted planes, closes the epoch at a configurable **quorum**
//!   (missing-node mass rescaled by quantized inverse coverage, recorded
//!   as `PipelineHealth::nodes_missed` + `partial_window`), and feeds
//!   the merged plane into the warm-started EM + snapshot swap of
//!   `dam-stream`;
//! * [`checkpoint`] — coordinator crash recovery: a plain versioned
//!   binary [`checkpoint::CheckpointState`] (the live window's epoch
//!   planes, health, EM warm state, clock — bounded in size however long
//!   the stream runs) plus an epoch-plane WAL, such that a coordinator
//!   killed at **any** epoch boundary restores and produces
//!   bit-identical subsequent window estimates, pyramids and health
//!   records (the recovery tests sweep every kill point at 1 and 4
//!   threads).
//!
//! `cargo run --release -p dam-eval --bin fig_cluster` drives the
//! K ∈ {1, 4, 8} evaluation under injected node faults;
//! `python3 perfbench/run.py --workload durable-cluster --trace 1`
//! measures node ingest, window close, checkpoint write/read and
//! recovery (`cluster.node.ns_per_report`, `cluster.close_ms`,
//! `cluster.checkpoint_*`, `cluster.recover.*`).

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod coord;
pub mod node;
pub mod partition;
pub mod transport;

pub use checkpoint::{CheckpointError, CheckpointState, CheckpointStore, WalEntry};
pub use coord::{Cluster, ClusterConfig, CoordStats, Coordinator, EpochOutcome};
pub use node::{AggregatorNode, NodePlane};
pub use partition::shard_owner;
pub use transport::{PlaneTransport, SimTransport};
