//! # dam-trajectory — trajectory workloads and mechanisms (Appendix D)
//!
//! The paper's final experiment compares DAM against two locally private
//! *trajectory* mechanisms — LDPTrace \[29\] and PivotTrace \[30\] — on how
//! well the point distribution induced by synthesized/reconstructed
//! trajectories matches the true one (the seven-step protocol of
//! Appendix D). This crate provides:
//!
//! * [`traj`] — the trajectory type and the paper's workload sampler
//!   (1,000 trajectories of length 2–200, random-walked over a 300×300
//!   density grid);
//! * [`ldptrace`] — a faithful reproduction of LDPTrace's grid Markov
//!   model: OUE frequency oracles for start cells, lengths and
//!   neighbour transitions (ε/3 each), followed by random-walk synthesis;
//! * [`pivottrace`] — PivotTrace-style pivot perturbation: evenly spaced
//!   pivots, each randomized by a bounded exponential mechanism, with
//!   linear interpolation between perturbed pivots;
//! * [`mechanism`] — the [`mechanism::TrajectoryMechanism`] trait and the
//!   DAM adapter that treats every trajectory point as a user report.

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod ldptrace;
pub mod mechanism;
pub mod pivottrace;
pub mod traj;

pub use ldptrace::LdpTrace;
pub use mechanism::{DamOnPoints, TrajectoryMechanism};
pub use pivottrace::PivotTrace;
pub use traj::{sample_workload, Trajectory};
