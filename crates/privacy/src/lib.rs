//! # dam-privacy — privacy accounting and cross-definition calibration
//!
//! DAM satisfies ε-LDP while SEM-Geo-I satisfies ε′-Geo-I; their budgets
//! are not directly comparable. §VII-B of the paper unifies them through
//! the *Local Privacy* (LP) metric of Shokri et al. \[17\] — the expected
//! distance between a Bayes adversary's location estimate and the true
//! location — and sets `ε′` so both mechanisms leak equally:
//! `LP_SEM(ε′) = LP_DAM(ε)`.
//!
//! This crate provides:
//!
//! * [`lp::local_privacy_exact`] — exact LP for any finite single-symbol
//!   channel (Equations 15–16 with a uniform prior and the Bayes attack);
//! * [`lp::lp_dam`] — exact LP of a [`dam_core::DiscreteKernel`];
//! * [`lp::lp_sem_monte_carlo`] — Monte-Carlo LP for SEM-Geo-I's
//!   subset-valued outputs (exact posteriors, sampled outputs);
//! * [`lp::calibrate_sem_epsilon`] — the bisection search used by the
//!   experiment harness;
//! * [`audit`] — numeric ε-LDP / ε-Geo-I ratio audits for any channel.

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod audit;
pub mod lp;

pub use audit::{geo_i_audit, ldp_audit};
pub use lp::{calibrate_sem_epsilon, local_privacy_exact, lp_dam, lp_sem_monte_carlo};
