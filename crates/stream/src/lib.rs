//! # dam-stream — continual-observation spatial estimation
//!
//! Every other pipeline in the workspace is one-shot: collect reports,
//! run EM, print a figure. This crate is the **streaming** layer the
//! paper's motivating workloads (POI heatmaps, epidemic tracking) really
//! need — timestamped reports arrive in *epochs* and a sliding-window
//! estimate is available at all times:
//!
//! * [`estimator`] — the [`estimator::StreamingEstimator`] facade wrapping
//!   `dam_core::DamConfig`: epochs ingest through the deterministic
//!   sharded report pipeline (bit-identical for any thread count), the
//!   sliding-window sum slides over an [`EpochRing`] of the last `window`
//!   epoch planes (add the new epoch plane, subtract the one `W` epochs
//!   back — exact for whole-number counts; nothing older is kept, so
//!   memory is bounded however long the stream runs), and each window's
//!   EM **warm-starts** from the previous window's estimate via a
//!   long-lived operator + workspace and stops on evidence, reached by
//!   SQUAREM-accelerated EM in ~11 map evaluations in steady state at
//!   d = 64 instead of a cold run's 150. All SAM variants ride it
//!   unchanged;
//! * [`service`] — the serve-while-ingesting [`service::QueryService`]:
//!   one writer ingests epochs while any number of query threads answer
//!   point/range/heatmap queries from an immutable epoch-versioned
//!   snapshot (window estimate + its `dam_core::Pyramid` + health),
//!   swapped atomically at each window close by the
//!   [`service::Publisher`] the cluster coordinator publishes through
//!   too — answers are bit-identical for any thread count and any
//!   ingest/query interleaving.
//!
//! `cargo run --release -p dam-eval --bin fig_stream` drives the
//! moving-foci evaluation. The end-to-end benchmark (`perfbench/`, run
//! with `--trace 1`) reports this crate's per-layer costs: ingest
//! ns/report (`core.ingest.ns_per_report`), warm EM map evaluations per
//! window (`em.iters_per_window`) and retention (`stream.retain.*`).

#![forbid(unsafe_code)]

pub mod estimator;
pub mod health;
mod ring;
pub mod service;

pub use estimator::{StreamConfig, StreamingEstimator, WindowEstimate};
pub use health::PipelineHealth;
pub use ring::EpochRing;
pub use service::{Publisher, QueryService, Snapshot};
