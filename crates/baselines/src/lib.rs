//! # dam-baselines — the paper's comparison mechanisms
//!
//! Every mechanism DAM is evaluated against in §VII, implemented from
//! scratch behind the same [`dam_core::SpatialEstimator`] interface:
//!
//! * [`mdsw`] — the Multi-dimensional Square Wave mechanism (Yang et al.
//!   \[10\]): per-dimension Square Wave + EMS, joint estimated as the product
//!   of marginals (which is exactly why it "only retains the ordinal
//!   relationship of the x- and y-coordinates" — the deficiency the paper
//!   exploits);
//! * [`sem`] — the Subset Exponential Mechanism under ε-Geo-I (Wang et al.
//!   \[12\]): k-subset reports with product weights
//!   `exp(−(ε/2k)·dis(u, v))`, sampled by conditional Poisson sampling and
//!   inverted by EM on Π/k (the inclusion-probability matrix over the
//!   subset size) through the shared driver, 200 maps;
//! * [`subset`] — the log-domain elementary-symmetric-polynomial machinery
//!   behind the subset sampler (exposed for reuse and property tests);
//! * [`cfo`] — the classical categorical frequency oracle on grid cells
//!   (Bucket+CFO of Table I), in GRR and OUE flavours, projected onto the
//!   simplex by [`dam_fo::clamp_normalize`].

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod cfo;
pub mod mdsw;
pub mod sem;
pub mod subset;

pub use cfo::{CfoEstimator, CfoFlavor};
pub use mdsw::Mdsw;
pub use sem::SemGeoI;
