//! # dam-transport — discrete optimal transport
//!
//! The paper measures estimation quality with the 2-D Wasserstein distance
//! (Definition 2 / Equation 17), computed exactly "using Linear Programming"
//! for small grids and approximately with "Sinkhorn's algorithm" for large
//! ones, and analyses mechanisms through the *sliced* Wasserstein distance
//! (Definitions 6–7). This crate provides all of those from scratch:
//!
//! * [`exact`] — the network simplex, an exact LP solver specialised to the
//!   OT polytope that prices arc costs from a closure, so no cost matrix is
//!   stored;
//! * [`grid`] — the paper's Sinkhorn for same-grid histograms: the
//!   squared-Euclidean Gibbs kernel factorizes per axis, so entropic
//!   iterations cost `O(d³)` on `O(d²)` state with no cost matrix — an
//!   entropic upper bound on `W₂` at `d = 64` (4096-cell supports) in
//!   under a second, serially on the caller's thread (the crate spawns
//!   no work of its own: the figure runner parallelises across W₂ jobs
//!   on the persistent pool instead);
//! * [`w1d`] — closed-form 1-D Wasserstein distances via quantile coupling;
//! * [`sliced`] — Radon projections of grid histograms and the sliced
//!   Wasserstein distance built on [`w1d`];
//! * [`metrics`] — the high-level `W₂` API used by the experiment harness:
//!   [`metrics::w2`]`(a, b)` runs the exact LP at every support size
//!   (about 0.94 s for a full-support d = 32 pair, `BENCH_w2.json`); a
//!   caller who accepts an entropic bias calls
//!   [`metrics::w2_grid_sinkhorn`] by name, the one place besides
//!   [`grid_sinkhorn_cost`] that takes [`SinkhornParams`].

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod exact;
pub mod grid;
pub mod metrics;
pub mod sliced;
pub mod w1d;

pub use exact::{solve_exact, TransportPlan};
pub use grid::{grid_sinkhorn_cost, SinkhornParams};
pub use metrics::{w2, w2_grid_sinkhorn};
