//! # spatial-ldp — private spatial distribution estimation
//!
//! Umbrella crate for the reproduction of "Numerical Estimation of Spatial
//! Distributions under Differential Privacy" (ICDE 2025). It re-exports
//! every workspace crate so examples and downstream users need a single
//! dependency:
//!
//! ```
//! use spatial_ldp::core::{DamConfig, DamEstimator, SpatialEstimator};
//! use spatial_ldp::geo::{BoundingBox, Grid2D, Point};
//!
//! let points = vec![Point::new(0.2, 0.8); 1000];
//! let grid = Grid2D::new(BoundingBox::unit(), 8);
//! let mut rng = spatial_ldp::geo::rng::seeded(7);
//! let estimate = DamEstimator::new(DamConfig::dam(2.0)).estimate(&points, &grid, &mut rng);
//! assert!((estimate.total() - 1.0).abs() < 1e-9);
//! ```
//!
//! The workspace map and the committed benchmark baselines are in the
//! README; `ROADMAP.md` holds the per-change architecture notes and the
//! open items.

/// Baseline mechanisms (MDSW, SEM-Geo-I, CFO).
pub use dam_baselines as baselines;
/// Fault-tolerant multi-node aggregation (quorum close, checkpoints).
pub use dam_cluster as cluster;
/// The paper's mechanisms (SAM, DAM, HUEM) and pipeline.
pub use dam_core as core;
/// Dataset generators and region handling.
pub use dam_data as data;
/// Experiment harness.
pub use dam_eval as eval;
/// One-dimensional frequency oracles.
pub use dam_fo as fo;
/// Spatial primitives.
pub use dam_geo as geo;
/// Privacy accounting and Local Privacy calibration.
pub use dam_privacy as privacy;
/// Private range queries (DAM-backed + hierarchical oracle).
pub use dam_range as range;
/// Continual-observation streaming (sliding windows, warm-started EM).
pub use dam_stream as stream;
/// Trajectory mechanisms (LDPTrace, PivotTrace).
pub use dam_trajectory as trajectory;
/// Optimal transport and Wasserstein metrics.
pub use dam_transport as transport;
