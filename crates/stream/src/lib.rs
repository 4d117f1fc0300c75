//! # dam-stream — continual-observation spatial estimation
//!
//! Every other pipeline in the workspace is one-shot: collect reports,
//! run EM, print a figure. This crate is the **streaming** layer the
//! paper's motivating workloads (POI heatmaps, epidemic tracking) really
//! need — timestamped reports arrive in *epochs* and a sliding-window
//! estimate is available at all times:
//!
//! * [`tree`] — binary-tree **continual counting** over count planes
//!   (Chan–Shi–Song dyadic intervals): any prefix or window of the report
//!   stream costs O(log T) plane reads, and the optional central-DP mode
//!   pays only an O(log T) noise-variance factor per node
//!   ([`tree::CountTree`]);
//! * [`estimator`] — the [`estimator::StreamingEstimator`] facade wrapping
//!   `dam_core::DamConfig`: epochs ingest through the deterministic
//!   sharded report pipeline (bit-identical for any thread count), the
//!   sliding-window sum slides off the tree's leaves (add the new epoch
//!   plane, subtract the one `W` epochs back — exact for whole-number
//!   counts), and each window's EM **warm-starts** from the previous
//!   window's estimate via a long-lived operator + workspace, converging
//!   in a few iterations in steady state instead of a cold run's
//!   hundreds. All SAM variants and EM backends ride it unchanged;
//! * [`service`] — the serve-while-ingesting [`service::QueryService`]:
//!   one writer ingests epochs while any number of query threads answer
//!   point/range/heatmap queries from an immutable epoch-versioned
//!   snapshot (window estimate + its `dam_core::Pyramid` + health),
//!   swapped atomically at each window close — answers are bit-identical
//!   for any thread count and any ingest/query interleaving.
//!
//! `cargo run --release -p dam-eval --bin fig_stream` drives the
//! moving-foci evaluation; `cargo bench -p dam-bench --bench streaming`
//! regenerates `BENCH_stream.json` (ingest throughput, warm-vs-cold EM
//! iteration ratio, O(log T) window-query scaling).

#![forbid(unsafe_code)]

pub mod estimator;
pub mod health;
mod ring;
pub mod service;
pub mod tree;

pub use estimator::{StreamConfig, StreamingEstimator, WindowEstimate};
pub use health::{PipelineHealth, StreamError};
pub use service::{QueryService, Snapshot};
pub use tree::CountTree;
