//! # dam-core — the Disk Area Mechanism and friends
//!
//! This crate implements the primary contribution of "Numerical Estimation
//! of Spatial Distributions under Differential Privacy" (ICDE 2025):
//!
//! * [`sam`] — the continuous *Spatial Area Mechanism* family (§IV):
//!   wave-function mechanisms over the dilated square output domain,
//!   including the continuous [`sam::ContinuousDam`] (Definition 8) and
//!   [`sam::ContinuousHuem`] (Definition 5);
//! * [`radius`] — the optimal high-probability radius `b*` from the
//!   mutual-information bound of §V-C;
//! * [`grid`] — discrete disk geometry over the cell grid: classification
//!   of cells into pure-high / mixed / pure-low, the border *shrinkage* of
//!   Theorem VI.1 and the closed-form area counts of Theorems VI.2–VI.4;
//! * [`kernel`] — the discrete reporting kernels (`p̂`/`q̂` masses per
//!   output cell) for DAM, DAM-NS (no shrinkage), the exact-intersection
//!   reference kernel, and the ring-discretised HUEM of Appendix A;
//! * [`response`] — `GridAreaResponse` (Algorithm 2): O(1) per-user
//!   sampling of a noisy output cell;
//! * [`conv`] — the spectral EM operator [`conv::FftChannel`], built on
//!   the kernel's translation invariance: circular convolutions on a
//!   zero-padded `2^a·3^b` grid, O(n² log n) per iteration with the
//!   kernel spectrum cached, which opens grids (d ≥ 64) whose dense
//!   channel matrix would not fit — the committed `BENCH_em.json` records
//!   its cost across the d = 64 radius sweep;
//! * [`fft`] — the in-repo iterative mixed-radix (2·3) real 2-D FFT
//!   ([`fft::Fft2d`]): precomputed twiddle/digit-reversal plans whose
//!   stages run two per sweep over the data (radix-2² passes, and one
//!   radix-6 pass where a lone radix-2 stage meets a single radix-3 stage,
//!   with the bits of the stage-by-stage loop), one
//!   row-major half-spectrum whose column pass runs butterflies between
//!   whole rows, all-zero rows skipped; each convolution split across two
//!   cores from side 96 up (`stream-fft`'s grid), serial below;
//! * [`em2d`] — the 2-D smoother ([`em2d::smooth_2d`]) of the
//!   "PostProcess" step, which is plain EM on the spectral operator;
//! * [`pyramid`] — hierarchical estimate pyramids: dyadic aggregate
//!   levels over any count/estimate plane with Hay-style constrained
//!   inference (every node equals the sum of its children) and
//!   minimal-node-cover range sums, shared by `dam-range`'s oracle and
//!   `dam-stream`'s query service;
//! * [`estimator`] — the end-to-end pipeline (Algorithm 1) packaged as the
//!   [`estimator::SpatialEstimator`] trait implemented by every mechanism
//!   in the workspace, plus the client/aggregator split
//!   ([`estimator::DamClient`] / [`estimator::DamAggregator`]) mirroring
//!   the FO = ⟨T, E⟩ protocol.

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests seed ad-hoc RNG streams; the library target is still checked without cfg(test)"
    )
)]

pub mod conv;
pub mod em2d;
pub mod estimator;
pub mod fft;
pub mod grid;
pub mod kernel;
pub mod pyramid;
pub mod radius;
pub mod response;
pub mod sam;
pub mod shard;
pub mod validate;

pub use conv::FftChannel;
pub use estimator::{
    DamAggregator, DamClient, DamConfig, DamEstimator, SamVariant, SpatialEstimator,
};
pub use fft::Fft2d;
pub use grid::{CellClass, DiskGeometry, KernelKind};
pub use kernel::DiscreteKernel;
pub use pyramid::{NoisyLevel, Pyramid, PyramidLevel};
pub use radius::{mutual_information_bound, optimal_b};
pub use response::GridAreaResponse;
pub use validate::{IngestPolicy, IngestSummary};
