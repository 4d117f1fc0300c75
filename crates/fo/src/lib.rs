//! # dam-fo — one-dimensional LDP frequency oracles
//!
//! The related-work section of the paper builds on a family of 1-D local
//! differential privacy primitives; the MDSW baseline and the trajectory
//! mechanisms are assembled from them. This crate implements each from
//! scratch:
//!
//! * [`grr`] — Generalized Random Response (the classic k-ary response and
//!   the basic Categorical Frequency Oracle of \[3\], \[7\]): CFO-GRR;
//! * [`oue`] — Optimized Unary Encoding (Wang et al. \[3\]): CFO-OUE,
//!   LDPTrace and the range oracle's levels;
//! * [`sw`] — the Square Wave mechanism of Li et al. \[6\], the 1-D ancestor
//!   of the paper's Disk Area Mechanism, with an exactly-integrated
//!   discrete transition matrix: MDSW;
//! * [`alias`] — Walker alias tables: DAM's report sampler and the
//!   trajectory mechanisms;
//! * [`em`] — operator-based Expectation-Maximisation with optional
//!   smoothing (the "EMS" of SW-EMS; the paper's 2-D PostProcess runs it
//!   without a smoother): EM is generic over the [`em::ChannelOp`] trait (`apply` +
//!   `accumulate_adjoint`, both threading an [`em::EmWorkspace`] with a
//!   reusable scratch plane), with the dense [`em::Channel`] as reference
//!   implementation and a structured operator (`dam-core`'s spectral
//!   `FftChannel`) as the fast path.
//!
//! Every estimate leaves through this crate once. The mechanisms that
//! deconvolve a channel run [`expectation_maximization`]: DAM, DAM-NS and
//! HUEM on the spectral operator, MDSW on its two Square Wave marginals,
//! and SEM-Geo-I on the dense `Π/k`. The unbiased oracles, whose
//! estimates can go negative, are projected onto the simplex by
//! [`clamp_normalize`]: CFO-GRR, CFO-OUE and LDPTrace.

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod alias;
pub mod em;
pub mod grr;
pub mod oue;
pub mod sw;

pub use em::{
    clamp_normalize, expectation_maximization, Channel, ChannelOp, EmHealth, EmParams, EmWorkspace,
};
pub use grr::Grr;
pub use oue::Oue;
pub use sw::SquareWave;
