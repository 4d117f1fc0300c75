//! The PostProcess step of Algorithm 1: 2-D EM / EMS estimation.
//!
//! The analyst observes a histogram of noisy output cells and inverts the
//! known reporting channel with Expectation-Maximisation (reference \[6\]'s
//! estimator, which the paper adopts). The optional smoothing variant
//! ("EMS") convolves the estimate with a 3×3 binomial kernel between
//! iterations — the 2-D analogue of SW-EMS's `[1,2,1]/4`.

use crate::kernel::DiscreteKernel;
use dam_fo::em::{expectation_maximization, ChannelOp, EmHealth, EmParams, EmRun, EmWorkspace};
use dam_geo::{Grid2D, Histogram2D};

/// Post-processing flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostProcess {
    /// Plain EM (the paper's default for DAM).
    Em,
    /// EM with 3×3 binomial smoothing between iterations.
    Ems,
}

/// Which [`ChannelOp`] implementation EM runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmBackend {
    /// Pick [`EmBackend::Convolution`] or [`EmBackend::Fft`] from the
    /// measured `(d, b̂)` cost model in [`crate::tuning`] — the default
    /// for every SAM-family estimate.
    #[default]
    Auto,
    /// The O(n_out·b̂²) stencil operator ([`crate::conv::ConvChannel`]) —
    /// the small-radius workhorse.
    Convolution,
    /// The O(n_out·n_in) dense matrix — reference implementation, used
    /// for equivalence tests and backend benchmarks.
    Dense,
    /// The spectral operator ([`crate::conv::FftChannel`]): O(n² log n)
    /// per iteration on the zero-padded `2^a·3^b` grid — wins the
    /// large-radius regime (b̂ ≳ 8 at paper-scale grids).
    Fft,
}

impl EmBackend {
    /// Resolves [`EmBackend::Auto`] against the tuning cost model for a
    /// kernel shape; explicit choices pass through unchanged. Never
    /// returns `Auto`.
    pub fn resolve(self, d: u32, b_hat: u32) -> EmBackend {
        match self {
            EmBackend::Auto => {
                if crate::tuning::fft_beats_stencil(d, b_hat) {
                    EmBackend::Fft
                } else {
                    EmBackend::Convolution
                }
            }
            explicit => explicit,
        }
    }

    /// Every backend, in CLI-listing order.
    pub const ALL: [EmBackend; 4] =
        [EmBackend::Auto, EmBackend::Convolution, EmBackend::Dense, EmBackend::Fft];

    /// CLI label (`--em-backend` value).
    pub fn label(self) -> &'static str {
        match self {
            EmBackend::Auto => "auto",
            EmBackend::Convolution => "conv",
            EmBackend::Dense => "dense",
            EmBackend::Fft => "fft",
        }
    }

    /// Inverse of [`EmBackend::label`]; `None` for unknown names. The CLI
    /// parses through this so the flag can never drift from the enum.
    pub fn from_label(name: &str) -> Option<EmBackend> {
        EmBackend::ALL.into_iter().find(|b| b.label() == name)
    }
}

/// 3×3 binomial smoothing `[[1,2,1],[2,4,2],[1,2,1]]/16` over a `d × d`
/// row-major field, renormalising the kernel at the boundary.
pub fn smooth_2d(d: usize, f: &mut [f64]) {
    assert_eq!(f.len(), d * d, "field does not match grid size");
    if d < 2 {
        return;
    }
    let src = f.to_vec();
    let weight = |k: i64| -> f64 {
        match k {
            0 => 2.0,
            _ => 1.0,
        }
    };
    for y in 0..d as i64 {
        for x in 0..d as i64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for dy in -1..=1i64 {
                for dx in -1..=1i64 {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx < 0 || ny < 0 || nx >= d as i64 || ny >= d as i64 {
                        continue;
                    }
                    let w = weight(dx) * weight(dy);
                    num += w * src[(ny as usize) * d + nx as usize];
                    den += w;
                }
            }
            f[(y as usize) * d + x as usize] = num / den;
        }
    }
}

/// Everything one PostProcess run produced: the estimate, the iteration
/// accounting and the numerical-health record — including whether the
/// spectral backend had to be abandoned for the exact stencil.
#[derive(Debug, Clone)]
pub struct PostProcessOutcome {
    /// The estimated input distribution (sums to 1, always finite).
    pub histogram: Histogram2D,
    /// EM iterations executed (summed across a backend-fallback rerun).
    pub em_iters: usize,
    /// The (final) run hit `EmParams::max_iters` without a tolerance
    /// firing ([`EmRun::capped`]).
    pub em_capped: bool,
    /// What the solver repaired ([`EmHealth::is_clean`] on healthy runs).
    pub em_health: EmHealth,
    /// The FFT backend diverged and the run was redone on the exact
    /// stencil operator (see [`EmOperator::post_process`]).
    pub backend_fallback: bool,
}

/// A resolved EM operator: the one 2-D PostProcess entry.
///
/// Construct it per kernel/backend (resolving [`EmBackend::Auto`] and
/// building the channel — stencil offsets or the FFT plan + kernel
/// spectrum, the expensive setup), then call [`EmOperator::post_process`].
/// A one-shot caller builds one, runs it once without a warm start and
/// drops it:
///
/// ```text
/// EmOperator::new(&kernel, backend)
///     .post_process(counts, grid, post, params, None, &mut EmWorkspace::new())
/// ```
///
/// A *streaming* caller re-runs EM against the **same kernel** every
/// window, so it keeps the operator alive and calls
/// [`EmOperator::post_process`] per window with a shared [`EmWorkspace`]
/// and the previous window's estimate as the warm start.
pub struct EmOperator {
    channel: Box<dyn ChannelOp + Send + Sync>,
    /// Resolved backend actually in use (never [`EmBackend::Auto`]).
    resolved: EmBackend,
    /// The kernel, kept so a diverging FFT run can rebuild the exact
    /// stencil operator on demand (see [`EmOperator::post_process`]).
    kernel: DiscreteKernel,
    /// Lazily-built stencil fallback (only materialised after the first
    /// FFT divergence; reused for every later fallback).
    stencil_fallback: Option<Box<dyn ChannelOp + Send + Sync>>,
}

impl EmOperator {
    /// Resolves `backend` for the kernel shape and builds the channel once.
    pub fn new(kernel: &DiscreteKernel, backend: EmBackend) -> Self {
        let resolved = backend.resolve(kernel.d(), kernel.b_hat());
        let channel: Box<dyn ChannelOp + Send + Sync> = match resolved {
            EmBackend::Convolution => Box::new(kernel.conv_channel()),
            EmBackend::Dense => Box::new(kernel.channel()),
            EmBackend::Fft => Box::new(kernel.fft_channel()),
            EmBackend::Auto => unreachable!("resolve never returns Auto"),
        };
        Self { channel, resolved, kernel: kernel.clone(), stencil_fallback: None }
    }

    /// The backend the cost model resolved to.
    #[inline]
    pub fn resolved(&self) -> EmBackend {
        self.resolved
    }

    /// Runs PostProcess with an optional warm start, returning the
    /// estimate, the EM iteration count (the warm-vs-cold accounting the
    /// streaming layer reports) and the numerical-health record. `init`,
    /// when given, must be a distribution over the input grid (`d²`
    /// values); `ws` carries the operator scratch across windows so
    /// steady-state EM allocates nothing.
    ///
    /// **Graceful degradation.** The spectral operator is the one backend
    /// with a numerical failure mode of its own: its circular convolutions
    /// round through a full FFT/iFFT pass, so a pathological plane can
    /// drive the iteration non-finite where the exact stencil would not.
    /// When an FFT-backed run reports divergence re-seeds, the run is
    /// redone on a lazily-built [`crate::conv::ConvChannel`] (kept for
    /// subsequent windows) and the outcome records `backend_fallback` so
    /// the pipeline's health surface can expose the degraded-but-serving
    /// state. Iteration counts sum across the rerun.
    pub fn post_process(
        &mut self,
        noisy_counts: &[f64],
        input_grid: &Grid2D,
        post: PostProcess,
        params: EmParams,
        init: Option<&[f64]>,
        ws: &mut EmWorkspace,
    ) -> PostProcessOutcome {
        assert_eq!(noisy_counts.len(), self.kernel.n_out(), "counts do not match output grid");
        assert_eq!(input_grid.d(), self.kernel.d(), "kernel built for a different grid resolution");
        let d = self.kernel.d() as usize;
        let smoother = move |f: &mut [f64]| smooth_2d(d, f);
        let smoother: Option<&dyn Fn(&mut [f64])> = match post {
            PostProcess::Em => None,
            PostProcess::Ems => Some(&smoother),
        };
        let run = expectation_maximization(
            self.channel.as_ref(),
            noisy_counts,
            init,
            smoother,
            params,
            ws,
        );
        if run.health.reseeds == 0 || self.resolved != EmBackend::Fft {
            return PostProcessOutcome {
                histogram: Histogram2D::from_values(input_grid.clone(), run.estimate),
                em_iters: run.iters,
                em_capped: run.capped,
                em_health: run.health,
                backend_fallback: false,
            };
        }
        let stencil =
            self.stencil_fallback.get_or_insert_with(|| Box::new(self.kernel.conv_channel()));
        let EmRun { estimate, iters, capped, health } =
            expectation_maximization(stencil.as_ref(), noisy_counts, init, smoother, params, ws);
        let mut em_health = run.health;
        em_health.merge(&health);
        PostProcessOutcome {
            histogram: Histogram2D::from_values(input_grid.clone(), estimate),
            em_iters: run.iters + iters,
            em_capped: capped,
            em_health,
            backend_fallback: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::KernelKind;
    use crate::response::GridAreaResponse;
    use dam_geo::{BoundingBox, CellIndex};
    use rand::SeedableRng;

    fn one_shot(
        k: &DiscreteKernel,
        counts: &[f64],
        grid: &Grid2D,
        post: PostProcess,
    ) -> Histogram2D {
        EmOperator::new(k, EmBackend::Auto)
            .post_process(counts, grid, post, EmParams::default(), None, &mut EmWorkspace::new())
            .histogram
    }

    #[test]
    fn auto_resolves_to_stencil_small_radius_and_fft_large_radius() {
        // The acceptance anchors: stencil at b̂ = 4, FFT at b̂ = 32.
        assert_eq!(EmBackend::Auto.resolve(64, 4), EmBackend::Convolution);
        assert_eq!(EmBackend::Auto.resolve(64, 32), EmBackend::Fft);
        // Explicit backends pass through untouched.
        for explicit in [EmBackend::Convolution, EmBackend::Dense, EmBackend::Fft] {
            assert_eq!(explicit.resolve(64, 32), explicit);
        }
    }

    #[test]
    fn backend_labels_are_cli_values() {
        assert_eq!(EmBackend::Auto.label(), "auto");
        assert_eq!(EmBackend::Convolution.label(), "conv");
        assert_eq!(EmBackend::Dense.label(), "dense");
        assert_eq!(EmBackend::Fft.label(), "fft");
    }

    #[test]
    fn smoothing_conserves_mass() {
        let mut f = vec![0.0; 25];
        f[12] = 1.0;
        f[3] = 0.5;
        smooth_2d(5, &mut f);
        // Binomial smoothing with boundary renormalisation conserves mass
        // only approximately at edges; interior-heavy mass stays close.
        let total: f64 = f.iter().sum();
        assert!((total - 1.5).abs() < 0.15, "total {total}");
        assert!(f.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn smoothing_flattens_spikes() {
        let mut f = vec![0.0; 9];
        f[4] = 1.0;
        smooth_2d(3, &mut f);
        assert!(f[4] < 1.0);
        assert!(f[0] > 0.0);
        // Four-fold symmetry preserved.
        assert!((f[0] - f[8]).abs() < 1e-12);
        assert!((f[1] - f[7]).abs() < 1e-12);
    }

    #[test]
    fn em_recovers_concentrated_distribution() {
        // End-to-end: points concentrated in one cell, DAM randomisation,
        // EM recovery should put most mass back near that cell.
        let mut rng = rand::rngs::StdRng::seed_from_u64(80);
        let d = 5u32;
        let kernel = DiscreteKernel::dam(4.0, d, 1, KernelKind::Shrunken);
        let grid = Grid2D::new(BoundingBox::unit(), d);
        let resp = GridAreaResponse::new(kernel.clone());
        let truth = CellIndex::new(2, 2);
        let mut counts = vec![0.0; kernel.n_out()];
        for _ in 0..30_000 {
            let o = resp.respond(truth, &mut rng);
            counts[o.iy as usize * kernel.out_d() as usize + o.ix as usize] += 1.0;
        }
        let est = one_shot(&kernel, &counts, &grid, PostProcess::Em);
        let peak = est.get(truth);
        assert!(peak > 0.5, "estimated mass at the true cell is only {peak}");
        assert!((est.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ems_variant_also_recovers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let d = 4u32;
        let kernel = DiscreteKernel::dam(3.0, d, 1, KernelKind::Shrunken);
        let grid = Grid2D::new(BoundingBox::unit(), d);
        let resp = GridAreaResponse::new(kernel.clone());
        let mut counts = vec![0.0; kernel.n_out()];
        for i in 0..20_000u32 {
            // Two clusters: (0,0) and (3,3).
            let c = if i % 2 == 0 { CellIndex::new(0, 0) } else { CellIndex::new(3, 3) };
            let o = resp.respond(c, &mut rng);
            counts[o.iy as usize * kernel.out_d() as usize + o.ix as usize] += 1.0;
        }
        let est = one_shot(&kernel, &counts, &grid, PostProcess::Ems);
        let m00 = est.get(CellIndex::new(0, 0));
        let m33 = est.get(CellIndex::new(3, 3));
        // The smoothing fixpoint diffuses the corners substantially, but
        // both cluster cells must stay far above the uniform level (1/16)
        // and roughly symmetric.
        assert!(m00 > 0.125 && m33 > 0.125, "clusters lost: {m00}, {m33}");
        assert!((m00 - m33).abs() < 0.05, "asymmetric recovery: {m00} vs {m33}");
    }

    #[test]
    fn accelerated_em_reaches_the_plain_stop_in_half_the_maps() {
        // d = 20, ε = 3.5 DAM (the `fig_stream` default regime), 20k
        // reports from two foci. The plain loop would stop on the first
        // step gaining under the LR-test price; the accelerated driver
        // must reach that iterate's log-likelihood in at most half the
        // map evaluations.
        use crate::{DamClient, DamConfig};
        use dam_geo::Point;
        let grid = Grid2D::new(BoundingBox::unit(), 20);
        let client = DamClient::new(grid, &DamConfig::dam(3.5));
        let points: Vec<Point> = (0..20_000u64)
            .map(|i| {
                let u = |salt| dam_geo::rng::splitmix64(i ^ salt) as f64 / u64::MAX as f64;
                let (cx, cy) = if i % 3 == 0 { (0.25, 0.7) } else { (0.65, 0.35) };
                Point::new(cx + 0.2 * (u(0x51) - 0.5), cy + 0.2 * (u(0xA7) - 0.5))
            })
            .collect();
        let counts = client.report_batch(&points, 11, Some(1));
        let channel = client.kernel().conv_channel();
        let tol = EmParams::streaming().gain_tol;
        let run = |max_iters, gain_tol, ws: &mut EmWorkspace| {
            let params = EmParams { max_iters, rel_tol: 0.0, gain_tol };
            expectation_maximization(&channel, &counts, None, None, params, ws).estimate
        };
        let ll = |f: &[f64]| {
            let mut out = vec![0.0; counts.len()];
            channel.apply(f, &mut out, &mut EmWorkspace::new());
            counts.iter().zip(&out).filter(|(c, _)| **c > 0.0).map(|(c, p)| c * p.ln()).sum::<f64>()
        };
        // The plain loop's gains: step i + 2 gains `gains[i]`.
        let mut ws = EmWorkspace::new();
        let registry = dam_obs::Registry::new();
        ws.set_ll_trace(registry.trace("gain", 1024));
        let _ = run(400, 0.0, &mut ws);
        let gains = registry.trace("gain", 1024).samples();
        let plain_maps = 2 + gains.iter().position(|&g| g < tol).expect("plain EM stops");
        let target = ll(&run(plain_maps, 0.0, &mut EmWorkspace::new()));
        let fast = ll(&run(plain_maps / 2, 1e-9, &mut EmWorkspace::new()));
        assert!(
            fast >= target,
            "{} accelerated maps reach {fast}, plain EM {target} in {plain_maps}",
            plain_maps / 2
        );
    }
}
