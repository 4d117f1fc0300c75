//! # dam-range — private spatial range queries
//!
//! The paper closes its related-work discussion with the claim that DAM
//! "can combine with the methods of HIO, HDG and AHEAD to further improve
//! the accuracy in private range query". This crate substantiates that
//! claim:
//!
//! * [`query`] — axis-aligned range queries and a selectivity-controlled
//!   workload generator;
//! * [`hierarchy`] — a from-scratch hierarchical interval oracle in the
//!   HIO \[9\] style, rebuilt on the shared [`dam_core::Pyramid`]: each
//!   user reports one uniformly chosen quadtree level through OUE with
//!   the full budget, Hay-style constrained inference reconciles the
//!   independent level estimates into one consistent pyramid, and range
//!   queries are answered by the minimal node cover (the pre-consistency
//!   raw-levels walk stays available as an ablation);
//! * [`answer`] — answering ranges directly from any
//!   [`dam_geo::Histogram2D`] estimate (DAM, MDSW, CFO, …), so every
//!   mechanism in the workspace doubles as a range-query engine — with a
//!   pyramid-backed [`RangeIndex`] for repeated queries against one
//!   estimate.
//!
//! The `range_queries` binary in `dam-eval` compares DAM-backed answering
//! against the hierarchical baseline across selectivities.

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod answer;
pub mod hierarchy;
pub mod query;

pub use answer::{answer_from_histogram, RangeIndex};
pub use hierarchy::{HierarchicalOracle, HIO_NAME};
pub use query::{random_queries, RangeQuery};
