//! # dam-fault — deterministic fault injection for the streaming pipeline
//!
//! Every layer of the estimation stack (sharded ingest, sliding-window
//! aggregation, EM post-processing) is bit-reproducible for any thread
//! count. A chaos run has to keep that property, or a failure seen once
//! under `--threads 8` can never be replayed under a debugger at
//! `--threads 1`. This crate therefore draws **every** fault decision
//! from pure SplitMix64 streams keyed on the fault's identity — `(plan
//! seed, fault family, epoch, index)` — the same stream-splitting
//! discipline as `dam_geo::rng::shard_rng`: no shared RNG state, no
//! dependence on evaluation order, and therefore the exact same faults
//! whether the pipeline runs on one worker or sixteen.
//!
//! [`FaultPlan`] describes a chaos scenario and injects it:
//!
//! * **report corruption** ([`FaultPlan::corrupt_points`]) — a configured
//!   fraction of each epoch's points is replaced by out-of-domain
//!   coordinates, `NaN`/`∞` coordinates, or duplicated reports (replay);
//! * **epoch faults** ([`FaultPlan::epoch_fate`]) — whole epochs dropped
//!   (collector outage) or delayed one epoch (late batch delivery);
//! * **response poisoning** ([`FaultPlan::poison_counts`]) — applied to
//!   the aggregated count plane every pipeline ingests: whole-number
//!   counts migrate between cells, each originally-reported cell
//!   flipping to a uniformly drawn other cell at a configured rate;
//! * **non-finite injection** ([`FaultPlan::inject_nonfinite`]) —
//!   `NaN`/`∞` values written into count planes, modelling a corrupted
//!   aggregation substrate;
//! * **node faults** ([`NodeFaultPlan`]) — the cluster-level family for
//!   multi-node deployments (`dam-cluster`): aggregator crashes lasting
//!   a configured number of epochs and delayed / duplicated / corrupted
//!   plane deliveries, every decision keyed `(seed, family, node,
//!   epoch)`. Coordinator crashes are not a plan key: the recovery tests
//!   and `fig_cluster` kill the coordinator where they choose.
//!
//! [`FaultPlan::deliver`] (epoch fate, then report corruption) and
//! [`FaultPlan::tamper`] (poisoning, then non-finite cells) bundle the
//! report-stream families into the two calls a streaming driver makes
//! per epoch; `fig_stream --inject` and the chaos tests both drive the
//! pipeline through them.
//!
//! Plans round-trip through a compact text spec
//! ([`FaultPlan::parse`] / [`FaultPlan::spec`]) so a chaos run is fully
//! described by one CLI flag: `fig_stream --inject
//! 'seed=7,corrupt=0.01,drop=0.1'` reproduces bit-for-bit anywhere.
//!
//! The crate depends only on `dam-geo`; the chaos tests under `tests/`
//! drive the full `dam-stream` pipeline against injected faults and pin
//! thread-count determinism, finiteness, and the bounded accuracy gap at
//! low corruption rates.

pub mod node;
pub mod plan;

pub use node::NodeFaultPlan;
pub use plan::{EpochFate, FaultPlan, PlanParseError};
