//! # dam-fo — one-dimensional LDP frequency oracles
//!
//! The related-work section of the paper builds on a family of 1-D local
//! differential privacy primitives; the MDSW baseline and the trajectory
//! mechanisms are assembled from them. This crate implements each from
//! scratch:
//!
//! * [`grr`] — Generalized Random Response (the classic k-ary response and
//!   the basic Categorical Frequency Oracle of \[3\], \[7\]);
//! * [`oue`] — Optimized Unary Encoding (Wang et al. \[3\]);
//! * [`sw`] — the Square Wave mechanism of Li et al. \[6\], the 1-D ancestor
//!   of the paper's Disk Area Mechanism, with an exactly-integrated
//!   discrete transition matrix;
//! * [`em`] — operator-based Expectation-Maximisation with optional
//!   smoothing (the "EMS" of SW-EMS, also used by the paper's PostProcess
//!   step): EM is generic over the [`em::ChannelOp`] trait (`apply` +
//!   `accumulate_adjoint`, both threading an [`em::EmWorkspace`] of
//!   reusable scratch planes), with the dense [`em::Channel`] as reference
//!   implementation and a structured operator (`dam-core`'s spectral
//!   `FftChannel`) as the fast path.

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

pub use em::{expectation_maximization, Channel, ChannelOp, EmHealth, EmParams, EmWorkspace};
pub use grr::Grr;
pub use oue::Oue;
pub use sw::SquareWave;
