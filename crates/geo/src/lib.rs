//! # dam-geo — spatial primitives
//!
//! Foundational geometry shared by every crate in the `spatial-ldp`
//! workspace:
//!
//! * [`Point`] / [`BoundingBox`] — planar points and axis-aligned boxes;
//! * [`Grid2D`] — the bucketization of a square region into `d × d` cells
//!   (§VI of the paper), with point↔cell mapping and cell centers;
//! * [`Histogram2D`] — cell counts / normalized distributions over a grid;
//! * [`circle`] — exact circle–rectangle intersection predicates and areas,
//!   used by the Disk Area Mechanism's border handling;
//! * [`rng`] — deterministic seeding helpers so every experiment is
//!   reproducible.
//!
//! The paper this workspace reproduces is "Numerical Estimation of Spatial
//! Distributions under Differential Privacy" (ICDE 2025).

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod bbox;
pub mod circle;
pub mod grid;
pub mod hist;
pub mod point;
pub mod rng;

pub use bbox::BoundingBox;
pub use grid::{CellIndex, Grid2D};
pub use hist::Histogram2D;
pub use point::Point;
