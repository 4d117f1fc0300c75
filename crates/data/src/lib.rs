//! # dam-data — the evaluation datasets
//!
//! The paper evaluates on two real datasets (Chicago Crimes 2022, NYC
//! Green Taxi 2016 pickups) and three synthetic ones (correlated Normal,
//! skew Zipf, multi-center Normal). The real data portals are not
//! reachable from this environment, so [`city`] provides a seeded street-
//! grid *city simulator* that reproduces the structural property the paper
//! leans on (points concentrated on axis-aligned road segments plus
//! hotspots — the reason shrinkage beats non-shrinkage on "road network
//! data sets"), with Part A/B/C region sizes matching Table III. The
//! substitution keeps every experiment runnable offline and seeded; the
//! figures compare mechanisms against each other on identical points, so
//! what matters is that structure, not the real coordinates.
//!
//! * [`synthetic`] — Normal(µ, σ, ρ), SZipf and MNormal generators, and
//!   the streaming figures' drifting two-foci epochs;
//! * [`city`] — the street-grid simulator;
//! * [`catalog`] — the five named datasets with the paper's exact point
//!   counts and Part A/B/C extents (Table III).

#![forbid(unsafe_code)]

pub mod catalog;
pub mod city;
pub mod synthetic;

pub use catalog::{load, DatasetKind, DatasetPart, SpatialDataset};
