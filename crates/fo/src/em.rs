//! Expectation-Maximisation post-processing ("PostProcess" in Algorithm 1).
//!
//! Given a known randomisation channel `M` (`P(output | input)`) and the
//! histogram of observed outputs, EM finds a maximum-likelihood input
//! distribution. Li et al. \[6\] add a smoothing step between iterations
//! ("EMS") that regularises the estimate towards ordinal smoothness; the
//! paper's PostProcess runs the same loop as plain EM on the 2-D grid
//! (the 2-D smoother, `dam-core`'s `smooth_2d`, seeds warm windows).
//!
//! # Operator-based EM
//!
//! [`expectation_maximization`] never touches matrix entries directly: it
//! is generic over [`ChannelOp`], which exposes the only two primitives EM
//! needs —
//!
//! * `apply` — the E-step product `M·f` (predicted output distribution);
//! * `accumulate_adjoint` — the M-step update `f ⊙ Mᵀw` for a weight
//!   vector `w` derived from the observed counts.
//!
//! The dense [`Channel`] is the reference implementation (O(n_out·n_in)
//! per iteration). Structured channels — notably the spectral
//! `FftChannel` in `dam-core` — implement
//! the same trait and drop straight into every EM call site, so the
//! estimator pipeline never materialises an `n_out × n_in` matrix.
//!
//! One EM map reaches the channel through one more call,
//! [`ChannelOp::em_step`]: the E-step, EM's per-cell sweep
//! ([`sweep_cell`]: the M-step weights and the log-likelihood terms) and
//! the M-step. Its default, [`em_step_in_sequence`], runs the two
//! primitives one after the other with the sweep between them, so an
//! operator that implements only `apply` and `accumulate_adjoint` gets
//! the classic loop. An operator may run the whole map as one unit of
//! work instead, with the same bits: `FftChannel` computes the sweep in
//! the E-step's read-back and feeds the weights straight into the
//! adjoint, all in one pool batch, on its caller alone or on every core.
//!
//! Every call takes an [`EmWorkspace`], whose reusable scratch plane a
//! structured operator uses as its per-call buffer (the FFT spectrum of
//! `FftChannel`). A caller keeps one workspace across its runs (the
//! streaming estimator keeps one for its lifetime), so steady-state
//! iterations allocate nothing; the dense channel needs no scratch and
//! ignores it.

/// Reusable scratch for [`ChannelOp`] primitives.
///
/// An operator asks for its scratch through [`EmWorkspace::plane`]; the
/// buffer is allocated on first use and reused verbatim on every later
/// call with the same size, which is what makes steady-state EM
/// iterations allocation-free. Plane contents are **not** cleared between
/// calls — whatever the previous call left behind is still there, and
/// callers must overwrite (or explicitly zero) everything they read.
#[derive(Debug, Default)]
pub struct EmWorkspace {
    plane: Vec<f64>,
    /// Plane handoffs the NaN canary found non-finite values in
    /// (debug builds; stays 0 in release).
    tainted_handoffs: usize,
    /// Stage label of the first tainted handoff.
    first_taint: Option<&'static str>,
    /// Log-likelihood gain sink, in nats: one sample per stop test (the
    /// quantity `EmParams::gain_tol` compares); wired by the streaming
    /// estimator.
    ll_trace: Option<dam_obs::Trace>,
    /// The two `n_in` planes an evidence run's SQUAREM cycle adds to the
    /// plain loop (`θ₂` and the extrapolated `θ′`), kept across runs so
    /// a warm run allocates exactly what a budget run does.
    extrapolation: [Vec<f64>; 2],
}

impl EmWorkspace {
    /// An empty workspace; the plane materialises on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows the scratch plane resized to `len`.
    ///
    /// Growing the plane past its capacity allocates (zero-filling the new
    /// tail); shrinking or matching the previous size is allocation-free,
    /// so a fixed-size caller pays for its buffer exactly once.
    pub fn plane(&mut self, len: usize) -> &mut [f64] {
        self.plane.resize(len, 0.0);
        &mut self.plane
    }

    /// Debug-gated NaN canary on a plane handoff between EM stages.
    ///
    /// Scans `buf` for non-finite values (debug builds only; free in
    /// release) and *records* taint — count plus the first offending
    /// stage label — without panicking, because a hostile channel
    /// producing NaN is a supported input: the EM loop's divergence
    /// guard reseeds and the run stays finite. The canary complements
    /// that guard by naming the stage the corruption *entered* at
    /// (`apply` vs `adjoint`), which the guard's post-hoc check cannot.
    pub fn audit_handoff(&mut self, stage: &'static str, buf: &[f64]) {
        if cfg!(debug_assertions) && buf.iter().any(|x| !x.is_finite()) {
            self.tainted_handoffs += 1;
            if self.first_taint.is_none() {
                self.first_taint = Some(stage);
            }
        }
    }

    /// How many handoffs the canary found tainted (0 in release builds).
    pub fn tainted_handoffs(&self) -> usize {
        self.tainted_handoffs
    }

    /// Stage label of the first tainted handoff, if any.
    pub fn first_taint(&self) -> Option<&'static str> {
        self.first_taint
    }

    /// Wires a [`dam_obs::Trace`] to receive the log-likelihood gain, in
    /// nats, of every stop test run through this workspace — exactly the
    /// value the [`EmParams::gain_tol`] stop compares, so the trace shows
    /// how close each run came to stopping. A budget run tests every map
    /// after its first; an evidence run tests once per three-map SQUAREM
    /// cycle (see [`expectation_maximization`]). Recording is sequential
    /// (the EM loop is single-threaded), so the trace is deterministic.
    pub fn set_ll_trace(&mut self, trace: dam_obs::Trace) {
        self.ll_trace = Some(trace);
    }
}

/// The two linear-algebra primitives EM needs from a reporting channel,
/// and the map step that runs them ([`ChannelOp::em_step`], provided).
///
/// Implementations must behave like a column-stochastic matrix `M` of
/// shape `n_out × n_in` (`Σ_o M[o,i] = 1` for every `i`), but are free to
/// represent it implicitly.
pub trait ChannelOp {
    /// Number of input symbols.
    fn n_in(&self) -> usize;

    /// Number of output symbols.
    fn n_out(&self) -> usize;

    /// E-step product: `out[o] = Σ_i M[o,i]·f[i]`.
    ///
    /// `f.len()` must be `n_in()`, `out.len()` must be `n_out()`. `ws`
    /// provides reusable scratch; implementations without scratch needs
    /// ignore it.
    fn apply(&self, f: &[f64], out: &mut [f64], ws: &mut EmWorkspace);

    /// M-step update: `f_new[i] = f[i] · Σ_o w[o]·M[o,i]`.
    ///
    /// `w.len()` must be `n_out()`; `f.len()` and `f_new.len()` must be
    /// `n_in()`. Entries of `w` may be zero (outputs with no observations
    /// contribute nothing). `ws` provides reusable scratch.
    fn accumulate_adjoint(&self, w: &[f64], f: &[f64], f_new: &mut [f64], ws: &mut EmWorkspace);

    /// One EM map's two products: the E-step `p = M·f`, the sweep of
    /// [`sweep_cell`] over `p` and the observed `counts` (`n_total` of
    /// them), and the M-step with the weights it yields. Writes the
    /// unnormalised update `f_new[i] = f[i]·Σ_o w[o]·M[o,i]` and returns
    /// the log-likelihood `ll(f) = Σ_o c_o·ln max(p_o, 1e-300)` over the
    /// observed outputs, summed in output order.
    ///
    /// `out` and `weights` are `n_out()` floats of scratch: on return
    /// `weights` holds the M-step weights and `out` is unspecified. The
    /// default is [`em_step_in_sequence`], which runs the NaN canary on
    /// both handoffs; an override, such as `dam-core`'s `FftChannel`, which
    /// runs every map as one pool batch, must give the same bits.
    #[allow(
        clippy::too_many_arguments,
        reason = "the estimate, the observations and three caller-owned planes the EM loop reuses; a struct would only rename them"
    )]
    fn em_step(
        &self,
        f: &[f64],
        counts: &[f64],
        n_total: f64,
        out: &mut [f64],
        weights: &mut [f64],
        f_new: &mut [f64],
        ws: &mut EmWorkspace,
    ) -> f64 {
        em_step_in_sequence(self, f, counts, n_total, out, weights, f_new, ws)
    }
}

/// EM's sweep over one output cell: from its observed count `c` and its
/// predicted probability `p` under `n_total` reports, the M-step weight
/// `c/N/p` (0 where `c = 0` or `p ≤ 0`) and the log-likelihood term
/// `c·ln max(p, 1e-300)` (0 where `c = 0`; counts are never negative).
///
/// `f64::max` returns its non-NaN operand, so a NaN prediction at an
/// observed cell gives the finite term `c·ln 1e-300` and a NaN weight,
/// and a prediction `p ≤ 0` gives that term and the weight 0. Only
/// `p = +∞` makes the term non-finite. The log-likelihood is the in-order
/// sum of the terms from `+0.0`; no term is `−0.0`, so the sum never is,
/// and the zero terms of unobserved cells leave its bits unchanged.
#[inline]
pub fn sweep_cell(c: f64, p: f64, n_total: f64) -> (f64, f64) {
    let term = if c > 0.0 { c * p.max(1e-300).ln() } else { 0.0 };
    let weight = if c == 0.0 || p <= 0.0 { 0.0 } else { c / n_total / p };
    (weight, term)
}

/// [`ChannelOp::em_step`]'s default: `apply` into `out`, the NaN canary
/// on `out` (`"apply"`), one [`sweep_cell`] pass over `out` that writes
/// `weights` and sums the log-likelihood, `accumulate_adjoint` into
/// `f_new`, and the canary on `f_new` (`"adjoint"`).
#[allow(
    clippy::too_many_arguments,
    reason = "the arguments of `ChannelOp::em_step`, whose default body this is"
)]
pub fn em_step_in_sequence<C: ChannelOp + ?Sized>(
    channel: &C,
    f: &[f64],
    counts: &[f64],
    n_total: f64,
    out: &mut [f64],
    weights: &mut [f64],
    f_new: &mut [f64],
    ws: &mut EmWorkspace,
) -> f64 {
    channel.apply(f, out, ws);
    ws.audit_handoff("apply", out);
    let mut ll = 0.0;
    for ((w, &c), &p) in weights.iter_mut().zip(counts).zip(out.iter()) {
        let (weight, term) = sweep_cell(c, p, n_total);
        *w = weight;
        ll += term;
    }
    channel.accumulate_adjoint(weights, f, f_new, ws);
    ws.audit_handoff("adjoint", f_new);
    ll
}

/// Dense channel matrix: `n_out × n_in`, column-stochastic
/// (`Σ_o at(o, i) = 1` for every input `i`).
///
/// This is the *reference* [`ChannelOp`]: exact but quadratic. Prefer a
/// structured operator (e.g. `dam-core`'s `FftChannel`) whenever the
/// channel has exploitable structure.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Number of output symbols.
    pub n_out: usize,
    /// Number of input symbols.
    pub n_in: usize,
    /// Row-major probabilities `data[o * n_in + i] = P(o | i)`.
    pub data: Vec<f64>,
}

impl Channel {
    /// Builds a channel from row-major values, checking the shape.
    ///
    /// Column-stochasticity is verified only in debug builds (the scan is
    /// O(n_out·n_in), which would double the cost of constructing large
    /// dense channels in release mode); call [`Channel::validate`] to
    /// check it explicitly.
    pub fn new(n_out: usize, n_in: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n_out * n_in, "channel data does not match shape");
        let channel = Self { n_out, n_in, data };
        #[cfg(debug_assertions)]
        channel.validate();
        channel
    }

    /// Panics unless every column sums to 1 (within 1e-6). O(n_out·n_in).
    pub fn validate(&self) {
        for i in 0..self.n_in {
            let col: f64 = (0..self.n_out).map(|o| self.data[o * self.n_in + i]).sum();
            assert!((col - 1.0).abs() < 1e-6, "channel column {i} sums to {col}, expected 1");
        }
    }

    /// `P(output o | input i)`.
    #[inline]
    pub fn at(&self, o: usize, i: usize) -> f64 {
        self.data[o * self.n_in + i]
    }
}

impl ChannelOp for Channel {
    #[inline]
    fn n_in(&self) -> usize {
        self.n_in
    }

    #[inline]
    fn n_out(&self) -> usize {
        self.n_out
    }

    fn apply(&self, f: &[f64], out: &mut [f64], _ws: &mut EmWorkspace) {
        debug_assert_eq!(f.len(), self.n_in);
        debug_assert_eq!(out.len(), self.n_out);
        for (o, out_o) in out.iter_mut().enumerate() {
            let row = &self.data[o * self.n_in..(o + 1) * self.n_in];
            *out_o = row.iter().zip(f).map(|(&m, &x)| m * x).sum();
        }
    }

    fn accumulate_adjoint(&self, w: &[f64], f: &[f64], f_new: &mut [f64], _ws: &mut EmWorkspace) {
        debug_assert_eq!(w.len(), self.n_out);
        debug_assert_eq!(f.len(), self.n_in);
        debug_assert_eq!(f_new.len(), self.n_in);
        f_new.fill(0.0);
        for (o, &wo) in w.iter().enumerate() {
            if wo == 0.0 {
                continue;
            }
            let row = &self.data[o * self.n_in..(o + 1) * self.n_in];
            for (acc, &m) in f_new.iter_mut().zip(row) {
                *acc += wo * m;
            }
        }
        for (acc, &fi) in f_new.iter_mut().zip(f) {
            *acc *= fi;
        }
    }
}

/// Convergence knobs for [`expectation_maximization`].
#[derive(Debug, Clone, Copy)]
pub struct EmParams {
    /// Hard cap on EM map evaluations (E-step + M-step, smoother
    /// included). Every map counts, SQUAREM's stabilizing map too, so an
    /// evidence run that reaches the cap has done no more work than a
    /// budget run of the same cap.
    pub max_iters: usize,
    /// Stop when the relative log-likelihood improvement falls below this.
    pub rel_tol: f64,
    /// Stop when one plain EM step gains less than this much
    /// log-likelihood, **in nats** (absolute, not per report; `0.0`
    /// disables the stop and, with it, the SQUAREM acceleration). The
    /// log-likelihood is `Σ_o c_o·ln (M·f)_o` over the raw counts, so the
    /// same relative improvement is worth more nats when there is more
    /// evidence: scaling the counts by `s` scales every gain by `s`, and
    /// the stop can only fire later. That is the point — a gain measured
    /// in nats can be priced like a model-selection penalty (see
    /// [`EmParams::streaming`]), while a per-report gain would stop a
    /// data-rich window exactly where it stops a data-poor one.
    pub gain_tol: f64,
}

impl Default for EmParams {
    fn default() -> Self {
        Self { max_iters: 1000, rel_tol: 1e-7, gain_tol: 0.0 }
    }
}

impl EmParams {
    /// Warm streaming-window defaults: stop on evidence, under a ceiling.
    ///
    /// EM for this deconvolution *overfits the privacy noise* as it
    /// approaches the ML optimum (Richardson–Lucy behaviour: error against
    /// the true distribution is U-shaped in the iteration count), so when
    /// to stop is the regularizer. A warm start from the previous window's
    /// already-regularized estimate only has one epoch's evidence to
    /// absorb, and `gain_tol: 1.92` stops it once one plain EM step buys
    /// less than **1.92 nats**: the likelihood-ratio test at 5% for one
    /// parameter (χ²₁,₀.₉₅ / 2). A positive `gain_tol` also switches the
    /// driver to SQUAREM, which reaches the stop in far fewer maps (see
    /// [`expectation_maximization`]).
    ///
    /// Measured on the end-to-end benchmark's `stream-fft` workload (d =
    /// 64, 20k reports per epoch, window 6, 100 scored epochs), seeds
    /// 1 / 2 / 7, accuracy relative to plain EM under the one-nat AIC stop
    /// (`window_tv` 0.11142 / 0.10828 / 0.10862, `window_w2` 3.7823 /
    /// 3.7728 / 3.7763 in 38.5 maps per window):
    ///
    /// | warm stop under SQUAREM | maps per window | `window_tv` | `window_w2` |
    /// |---|---|---|---|
    /// | AIC, 1 nat | 12.4 | +5.2 / +5.0 / +4.3% | −0.12 / −0.31 / −0.24% |
    /// | **LR test at 5%, 1.92 nats** | **11.0** | **−0.9 / +0.4 / 0.0%** | **+0.11 / −0.02 / −0.05%** |
    /// | BIC, ½·ln N = 5.85 nats (N = 120k) | 10.8 | −1.0 / +0.4 / 0.0% | +0.15 / +0.02 / −0.03% |
    ///
    /// An accelerated iterate stands farther along than the plain one whose
    /// gain the stop prices, so the same price stops later in the fit: AIC
    /// now runs past the TV minimum. BIC saves 2% of the maps at the LR
    /// test's accuracy, but its price grows with the window's report count
    /// (7.8 nats at a million reports per epoch), which one constant cannot
    /// carry. A χ² discrepancy stop cannot work here: χ²/n_out crosses 1
    /// by iteration 5 and then stays flat at 0.985–0.987 from iteration 10
    /// to 50, so it does not see the TV minimum near iteration 30.
    ///
    /// `max_iters: 50` stays as a ceiling no benchmark workload reaches:
    /// the million-report windows of `ingest-1m` and `durable-cluster`,
    /// which ran to it under plain EM, stop after ~21 maps. `rel_tol` is a
    /// numerical backstop.
    pub fn streaming() -> Self {
        Self { max_iters: 50, rel_tol: 1e-9, gain_tol: 1.92 }
    }
}

/// Numerical-health accounting of one EM run: what the solver had to
/// repair to keep producing a finite distribution.
///
/// A long-running pipeline cannot treat a corrupted count plane or a
/// diverged iteration as fatal — the stream keeps coming. Instead of
/// panicking (or silently returning `NaN` everywhere, which is worse),
/// [`expectation_maximization`] detects the degenerate cases,
/// recovers, and reports what happened here so the caller's health
/// surface can expose it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmHealth {
    /// Count-plane entries that were non-finite or negative and were
    /// zeroed before the run.
    pub sanitized_counts: usize,
    /// Warm-start entries that were non-finite or negative and were
    /// zeroed before the uniform blend.
    pub sanitized_init: usize,
    /// Times the iteration diverged to a non-finite estimate (or
    /// log-likelihood) and was re-seeded from the blend of the last good
    /// estimate with uniform.
    pub reseeds: usize,
    /// The (sanitized) counts summed to zero: there was nothing to fit,
    /// and the uniform distribution was returned without iterating.
    pub degenerate_input: bool,
}

impl EmHealth {
    /// `true` when the run needed no repair at all.
    #[inline]
    pub fn is_clean(&self) -> bool {
        *self == EmHealth::default()
    }
}

/// Outcome of one EM run: the estimate plus how many iterations it took —
/// the accounting a warm-started (streaming) caller needs to measure how
/// much a previous window's solution buys over the cold uniform start —
/// whether the iteration cap ended it, and the numerical-health record of
/// what the solver had to repair.
#[derive(Debug, Clone)]
pub struct EmRun {
    /// Estimated input distribution (sums to 1).
    pub estimate: Vec<f64>,
    /// EM map evaluations actually executed (≤ `EmParams::max_iters`),
    /// SQUAREM's stabilizing maps and diverged maps included.
    pub iters: usize,
    /// The run spent all `EmParams::max_iters` map evaluations without
    /// `rel_tol` or `gain_tol` firing: the cap, not the evidence, ended
    /// it. A stop that fires on the last allowed map is not a cap hit.
    pub capped: bool,
    /// What the solver repaired along the way ([`EmHealth::is_clean`] on
    /// every healthy run).
    pub health: EmHealth,
}

/// Zero-guard blend for warm starts: EM's multiplicative update can never
/// regrow an exactly-zero coordinate, so a warm start that inherits hard
/// zeros would be blind to mass moving into previously-empty cells. The
/// blend here is the *minimal* guard that keeps every coordinate alive;
/// callers tracking a **moving** distribution should mix their own, much
/// stronger uniform share into `init` before calling (growth from a tiny
/// floor is geometric, so a near-zero launch level makes EM crawl — see
/// `dam_stream`'s tracking blend).
const WARM_UNIFORM_MIX: f64 = 1e-6;

/// How many divergence re-seeds one run will attempt before giving up and
/// returning the sanitized best effort. Divergence here is pathological
/// (corrupted counts, a broken channel) — if blending back towards
/// uniform three times has not restored a finite iteration, more attempts
/// will not either.
const MAX_RESEEDS: usize = 3;

/// How many times one SQUAREM cycle halves its step's distance to the
/// plain two-step iterate (`α ← (α − 1)/2`) before taking that iterate
/// itself. Each try costs one O(n_in) pass, nothing against a map
/// evaluation.
const MAX_BACKOFFS: usize = 10;

/// Runs EM (optionally with a smoothing step — "EMS") and returns the
/// estimated input distribution (sums to 1) together with the iteration
/// count and the numerical-health record.
///
/// `counts[o]` is how many users reported output `o`. `smoother`, when
/// provided, is applied to the estimate after each M-step (it may leave the
/// vector un-normalised; EM renormalises). The channel may be any
/// [`ChannelOp`] — dense or structured. `ws` is threaded through every
/// map ([`ChannelOp::em_step`]), so repeated runs against same-shaped
/// channels reuse all scratch and steady-state iterations allocate
/// nothing; one-shot callers pass a fresh [`EmWorkspace::new`].
///
/// `init`, when provided, **warm-starts** the iteration from a previous
/// estimate (blended with a tiny uniform floor so exact zeros stay
/// recoverable) instead of the uniform distribution. A warm start near
/// the optimum converges under `params.rel_tol` in a handful of
/// iterations — the mechanism the sliding-window streaming estimator
/// relies on — and the returned [`EmRun::iters`] records exactly how many
/// it took, so callers can measure the warm-vs-cold ratio.
///
/// # Two loops, chosen by the stop
///
/// Write `F` for one EM map: E-step, weights, adjoint, normalize, then
/// the optional smoother.
///
/// * **Budget runs** (`gain_tol == 0`) iterate `θ ← F(θ)`. For them the
///   iteration count is the regularizer (EM overfits the privacy noise as
///   it nears the ML optimum), so this loop must not move.
/// * **Evidence runs** (`gain_tol > 0`) let the statistic decide where
///   the fit ends, so reaching it sooner changes only the cost. They run
///   squared extrapolation, SQUAREM's S3 scheme (Varadhan & Roland,
///   *Scand. J. Stat.* 2008): from `θ₀`, take `θ₁ = F(θ₀)` and
///   `θ₂ = F(θ₁)`; with `r = θ₁ − θ₀` and `v = θ₂ − θ₁ − r`, step
///   `α = −‖r‖/‖v‖` (at most −1) to `θ′ = θ₀ − 2αr + α²v`, and finish
///   with one stabilizing map `F(θ′)`. Multiplicative EM can never regrow
///   a zero cell, so `θ′` is never clipped: `α` backs off towards −1
///   (where `θ′ = θ₂`) until every cell positive in `θ₂` is positive in
///   `θ′` and none is negative. The stabilizing step's E-step yields
///   `ll(θ′)` for free; `F(θ′)` is kept only if `ll(θ′) ≥ ll(θ₁)`,
///   otherwise the next cycle starts from `θ₂`. The cycle's two extra
///   planes (`θ₂`, `θ′`) live in `ws`, so a warm run allocates exactly
///   what a budget run does.
///
/// Both loops stop on the gain of one plain EM step — `ll(θ_k) −
/// ll(θ_{k−1})`, which a cycle measures as `ll(θ₁) − ll(θ₀)` — compared
/// to `rel_tol` and `gain_tol`, and both count every map evaluation
/// against `max_iters` and in [`EmRun::iters`], so a capped evidence run
/// does no more work than a plain one.
///
/// The run never panics on degenerate numerics and never returns a
/// non-finite estimate; it repairs and records in [`EmRun::health`]:
///
/// * non-finite / negative **count** entries are zeroed before the run
///   (`sanitized_counts`);
/// * non-finite / negative **warm-start** entries are zeroed before the
///   uniform blend (`sanitized_init`);
/// * counts summing to zero return the uniform distribution without
///   iterating (`degenerate_input`) — there is nothing to fit;
/// * a map diverging to a non-finite estimate or log-likelihood (or to
///   finite entries whose sum overflows) re-seeds from
///   `½·(last good estimate) + ½·uniform` (`reseeds`) — the plain loop's
///   current iterate, a cycle's `θ₀` — up to `MAX_RESEEDS` (three) times;
///   after that the last good estimate is returned as the best effort.
pub fn expectation_maximization<C: ChannelOp + ?Sized>(
    channel: &C,
    counts: &[f64],
    init: Option<&[f64]>,
    smoother: Option<&dyn Fn(&mut [f64])>,
    params: EmParams,
    ws: &mut EmWorkspace,
) -> EmRun {
    assert_eq!(counts.len(), channel.n_out(), "counts do not match channel outputs");
    let (n_out, n_in) = (channel.n_out(), channel.n_in());
    let uniform = 1.0 / n_in as f64;
    let mut health = EmHealth::default();

    // Sanitize the observation plane up front; the clean (overwhelmingly
    // common) path borrows the caller's slice and allocates nothing extra.
    let bad = counts.iter().filter(|c| !c.is_finite() || **c < 0.0).count();
    let sanitized_counts: Vec<f64>;
    let counts: &[f64] = if bad > 0 {
        health.sanitized_counts = bad;
        sanitized_counts =
            counts.iter().map(|&c| if c.is_finite() && c >= 0.0 { c } else { 0.0 }).collect();
        &sanitized_counts
    } else {
        counts
    };
    let n_total: f64 = counts.iter().sum();
    if n_total <= 0.0 {
        // Nothing observed (or everything quarantined): the maximum-
        // likelihood answer is undefined, so degrade to uniform instead
        // of panicking mid-stream.
        health.degenerate_input = true;
        return EmRun { estimate: vec![uniform; n_in], iters: 0, capped: false, health };
    }

    let mut f = match init {
        Some(prev) => {
            assert_eq!(prev.len(), n_in, "warm start does not match channel inputs");
            health.sanitized_init = prev.iter().filter(|p| !p.is_finite() || **p < 0.0).count();
            let mut f: Vec<f64> = prev
                .iter()
                .map(|&p| {
                    let p = if p.is_finite() && p >= 0.0 { p } else { 0.0 };
                    (1.0 - WARM_UNIFORM_MIX) * p + WARM_UNIFORM_MIX * uniform
                })
                .collect();
            normalize(&mut f);
            f
        }
        None => vec![uniform; n_in],
    };
    let mut f_new = vec![0.0f64; n_in];
    let mut map = EmMap {
        channel,
        counts,
        n_total,
        smoother,
        out: vec![0.0; n_out],
        weights: vec![0.0; n_out],
    };
    let (iters, converged) = if params.gain_tol > 0.0 {
        map.squarem(&mut f, &mut f_new, params, &mut health, ws)
    } else {
        map.plain(&mut f, &mut f_new, params, &mut health, ws)
    };
    let capped = !converged && iters == params.max_iters;
    EmRun { estimate: f, iters, capped, health }
}

/// One EM map `F` over fixed observations, with its E-step scratch.
struct EmMap<'a, C: ?Sized> {
    channel: &'a C,
    counts: &'a [f64],
    n_total: f64,
    smoother: Option<&'a dyn Fn(&mut [f64])>,
    out: Vec<f64>,
    weights: Vec<f64>,
}

impl<C: ChannelOp + ?Sized> EmMap<'_, C> {
    /// `f_new = F(f)`, returning `ll(f)`, the observed-data
    /// log-likelihood of the *input*; `None` when the map diverged
    /// (`f_new` is then garbage and `f` untouched).
    fn eval(&mut self, f: &[f64], f_new: &mut [f64], ws: &mut EmWorkspace) -> Option<f64> {
        // E-step, weights and the log-likelihood of the current estimate,
        // then the multiplicative update through the adjoint.
        let ll = self.channel.em_step(
            f,
            self.counts,
            self.n_total,
            &mut self.out,
            &mut self.weights,
            f_new,
            ws,
        );
        // Divergence guard. `ll` turns non-finite only on a +∞ prediction
        // at an observed cell: a NaN one gives a finite term and a NaN
        // weight (see `sweep_cell`). That weight, like any non-finite
        // update — a NaN or ∞ entry, or finite entries whose sum
        // overflows — gives `f_new` a non-finite sum, which normalisation
        // reports instead of silently flattening the update to uniform or
        // zero.
        if !ll.is_finite() || !normalize(f_new) {
            return None;
        }
        if let Some(s) = self.smoother {
            s(f_new);
            normalize(f_new);
        }
        Some(ll)
    }

    /// The budget loop `θ ← F(θ)`, with `f_new` as the second plane.
    /// Returns the evaluations spent and whether a tolerance (rather than
    /// the cap) ended the run.
    fn plain(
        &mut self,
        f: &mut Vec<f64>,
        f_new: &mut Vec<f64>,
        params: EmParams,
        health: &mut EmHealth,
        ws: &mut EmWorkspace,
    ) -> (usize, bool) {
        let mut prev_ll = f64::NEG_INFINITY;
        let mut iters = 0usize;
        while iters < params.max_iters {
            iters += 1;
            let Some(ll) = self.eval(f, f_new, ws) else {
                // `f` still holds the last good (finite, by induction)
                // estimate, so recovery re-seeds from it.
                if !reseed(f, health) {
                    break;
                }
                prev_ll = f64::NEG_INFINITY;
                continue;
            };
            std::mem::swap(f, f_new);
            if prev_ll.is_finite() && gain_stops(ll, prev_ll, params, ws) {
                return (iters, true);
            }
            prev_ll = ll;
        }
        (iters, false)
    }

    /// The SQUAREM loop of [`expectation_maximization`]'s evidence runs:
    /// cycles of `θ₁ = F(θ₀)`, `θ₂ = F(θ₁)`, the stop test, the S3
    /// extrapolation and one stabilizing map, each map counted. `f` holds
    /// `θ₀`, `f1` holds `θ₁` and then `F(θ′)`; `θ₂` and `θ′` live in the
    /// workspace.
    fn squarem(
        &mut self,
        f: &mut Vec<f64>,
        f1: &mut Vec<f64>,
        params: EmParams,
        health: &mut EmHealth,
        ws: &mut EmWorkspace,
    ) -> (usize, bool) {
        let [mut f2, mut fx] = std::mem::take(&mut ws.extrapolation);
        f2.resize(f.len(), 0.0);
        fx.resize(f.len(), 0.0);
        let mut iters = 0usize;
        let converged = loop {
            if iters == params.max_iters {
                break false;
            }
            iters += 1;
            let Some(ll0) = self.eval(f, f1, ws) else {
                if reseed(f, health) {
                    continue;
                }
                break false;
            };
            if iters == params.max_iters {
                std::mem::swap(f, f1);
                break false;
            }
            iters += 1;
            let Some(ll1) = self.eval(f1, &mut f2, ws) else {
                if reseed(f, health) {
                    continue;
                }
                break false;
            };
            if gain_stops(ll1, ll0, params, ws) {
                f.copy_from_slice(&f2);
                break true;
            }
            if iters == params.max_iters {
                f.copy_from_slice(&f2);
                break false;
            }
            extrapolate(f, f1, &f2, &mut fx);
            iters += 1;
            let Some(ll_x) = self.eval(&fx, f1, ws) else {
                if reseed(f, health) {
                    continue;
                }
                break false;
            };
            if ll_x >= ll1 {
                std::mem::swap(f, f1);
            } else {
                f.copy_from_slice(&f2);
            }
        };
        ws.extrapolation = [f2, fx];
        (iters, converged)
    }
}

/// The stop test on one plain EM step's gain `ll − prev_ll`, which it
/// first records in the workspace's gain trace.
fn gain_stops(ll: f64, prev_ll: f64, params: EmParams, ws: &EmWorkspace) -> bool {
    let gain = (ll - prev_ll).abs();
    if let Some(trace) = ws.ll_trace.as_ref() {
        trace.push(gain);
    }
    gain / prev_ll.abs().max(1e-12) < params.rel_tol
        || (params.gain_tol > 0.0 && gain < params.gain_tol)
}

/// Divergence recovery: blends `f` (the last good estimate) half-way
/// back to uniform. `false`, leaving `f` as it is, once the run has
/// spent its `MAX_RESEEDS`.
fn reseed(f: &mut [f64], health: &mut EmHealth) -> bool {
    if health.reseeds >= MAX_RESEEDS {
        return false;
    }
    health.reseeds += 1;
    let uniform = 1.0 / f.len() as f64;
    for x in f.iter_mut() {
        *x = 0.5 * *x + 0.5 * uniform;
    }
    normalize(f);
    true
}

/// Writes SQUAREM's S3 point `θ′ = θ₀ − 2αr + α²v` into `out`, with
/// `r = θ₁ − θ₀`, `v = θ₂ − θ₁ − r` and `α = min(−‖r‖/‖v‖, −1)` backed
/// off by `α ← (α − 1)/2` until `θ′` keeps every cell of `θ₂` alive
/// (positive where `θ₂` is, never negative); after `MAX_BACKOFFS` tries
/// it writes `θ₂`, the `α = −1` point, exactly.
fn extrapolate(t0: &[f64], t1: &[f64], t2: &[f64], out: &mut [f64]) {
    let cycle = || t0.iter().zip(t1).zip(t2).map(|((&a, &b), &c)| (a, b - a, c - b - (b - a), c));
    let (rr, vv) = cycle().fold((0.0, 0.0), |(rr, vv), (_, r, v, _)| (rr + r * r, vv + v * v));
    let mut alpha = -(rr / vv).sqrt();
    if !(alpha.is_finite() && alpha < -1.0) {
        out.copy_from_slice(t2);
        return;
    }
    for _ in 0..MAX_BACKOFFS {
        let at = |(a, r, v, _): (f64, f64, f64, f64)| a - 2.0 * alpha * r + alpha * alpha * v;
        let alive = cycle().all(|cell| {
            let x = at(cell);
            if cell.3 > 0.0 {
                x > 0.0
            } else {
                x >= 0.0
            }
        });
        if alive {
            for (o, cell) in out.iter_mut().zip(cycle()) {
                *o = at(cell);
            }
            return;
        }
        alpha = 0.5 * (alpha - 1.0);
    }
    out.copy_from_slice(t2);
}

/// The 1-D binomial smoother of SW-EMS: weighted average with kernel
/// `[1, 2, 1] / 4`, renormalising the kernel at the boundaries.
pub fn smooth_1d(f: &mut [f64]) {
    if f.len() < 3 {
        return;
    }
    let src = f.to_vec();
    for i in 0..src.len() {
        let mut num = 2.0 * src[i];
        let mut den = 2.0;
        if i > 0 {
            num += src[i - 1];
            den += 1.0;
        }
        if i + 1 < src.len() {
            num += src[i + 1];
            den += 1.0;
        }
        f[i] = num / den;
    }
}

/// Projects unbiased frequency estimates onto the simplex: clamps every
/// entry at 0, then scales to sum 1 (uniform when nothing positive is
/// left). The post-processing of the oracles that run no EM (CFO-GRR,
/// CFO-OUE, LDPTrace).
pub fn clamp_normalize(f: &mut [f64]) {
    for x in f.iter_mut() {
        *x = x.max(0.0);
    }
    normalize(f);
}

/// Scales `f` to sum to 1 (uniform when the sum is not positive) and
/// returns whether the sum was finite.
fn normalize(f: &mut [f64]) -> bool {
    let s: f64 = f.iter().sum();
    if s > 0.0 {
        for x in f.iter_mut() {
            *x /= s;
        }
    } else {
        let u = 1.0 / f.len() as f64;
        f.fill(u);
    }
    s.is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small noisy channel: identity with symmetric leakage.
    fn noisy_channel(n: usize, keep: f64) -> Channel {
        let leak = (1.0 - keep) / (n - 1) as f64;
        let mut data = vec![0.0; n * n];
        for o in 0..n {
            for i in 0..n {
                data[o * n + i] = if o == i { keep } else { leak };
            }
        }
        Channel::new(n, n, data)
    }

    /// Cold start through a fresh workspace, estimate only.
    fn cold<C: ChannelOp + ?Sized>(ch: &C, counts: &[f64], params: EmParams) -> Vec<f64> {
        expectation_maximization(ch, counts, None, None, params, &mut EmWorkspace::new()).estimate
    }

    #[test]
    fn clamp_normalize_projects_onto_the_simplex() {
        let mut f = [0.5, -0.25, 1.5, 0.0, -3.0];
        clamp_normalize(&mut f);
        assert_eq!(f, [0.25, 0.0, 0.75, 0.0, 0.0]);
        assert_eq!(f.iter().sum::<f64>(), 1.0);
        let mut flat = [-1.0, 0.0, -0.5, -2.0];
        clamp_normalize(&mut flat);
        assert_eq!(flat, [0.25; 4]);
    }

    #[test]
    fn identity_channel_recovers_input_exactly() {
        let ch = noisy_channel(4, 1.0 - 1e-12);
        let counts = [40.0, 30.0, 20.0, 10.0];
        let f = cold(&ch, &counts, EmParams::default());
        for (i, expect) in [0.4, 0.3, 0.2, 0.1].iter().enumerate() {
            assert!((f[i] - expect).abs() < 1e-6, "bin {i}: {} vs {expect}", f[i]);
        }
    }

    #[test]
    fn noisy_channel_is_deconvolved() {
        // Expected output counts under keep=0.6 for input (0.7, 0.2, 0.1):
        // feed exact expected counts; EM must invert the channel.
        let ch = noisy_channel(3, 0.6);
        let input = [0.7, 0.2, 0.1];
        let mut counts = vec![0.0; 3];
        for o in 0..3 {
            for i in 0..3 {
                counts[o] += 1e6 * ch.at(o, i) * input[i];
            }
        }
        let f = cold(&ch, &counts, EmParams { max_iters: 5000, rel_tol: 1e-12, gain_tol: 0.0 });
        for i in 0..3 {
            assert!((f[i] - input[i]).abs() < 1e-3, "bin {i}: {} vs {}", f[i], input[i]);
        }
    }

    #[test]
    fn estimate_is_a_distribution() {
        let ch = noisy_channel(5, 0.5);
        let counts = [10.0, 0.0, 5.0, 0.0, 100.0];
        let f = cold(&ch, &counts, EmParams::default());
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(f.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn apply_matches_manual_matvec() {
        let ch = noisy_channel(4, 0.7);
        let f = [0.4, 0.3, 0.2, 0.1];
        let mut out = vec![0.0; 4];
        ch.apply(&f, &mut out, &mut EmWorkspace::new());
        for o in 0..4 {
            let manual: f64 = (0..4).map(|i| ch.at(o, i) * f[i]).sum();
            assert!((out[o] - manual).abs() < 1e-15);
        }
        // A stochastic matrix maps distributions to distributions.
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjoint_matches_manual_update() {
        let ch = noisy_channel(3, 0.6);
        let f = [0.5, 0.3, 0.2];
        let w = [0.7, 0.0, 1.3];
        let mut f_new = vec![0.0; 3];
        ch.accumulate_adjoint(&w, &f, &mut f_new, &mut EmWorkspace::new());
        for i in 0..3 {
            let manual: f64 = (0..3).map(|o| w[o] * ch.at(o, i)).sum::<f64>() * f[i];
            assert!((f_new[i] - manual).abs() < 1e-15, "bin {i}");
        }
    }

    #[test]
    fn em_accepts_dyn_channel_op() {
        let ch = noisy_channel(3, 0.8);
        let dyn_ch: &dyn ChannelOp = &ch;
        let counts = [50.0, 30.0, 20.0];
        let f = cold(dyn_ch, &counts, EmParams::default());
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_pulls_towards_neighbours() {
        let mut f = vec![0.0, 1.0, 0.0];
        smooth_1d(&mut f);
        assert!(f[0] > 0.0 && f[2] > 0.0 && f[1] < 1.0);
        // Symmetric input stays symmetric.
        assert!((f[0] - f[2]).abs() < 1e-12);
    }

    #[test]
    fn smoothing_preserves_uniform() {
        let mut f = vec![0.25; 4];
        smooth_1d(&mut f);
        for x in &f {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothing_length_one_and_two_are_identity() {
        // Below three bins there is no interior cell to smooth; the kernel
        // degenerates and the vector must pass through untouched (pinning
        // the `len < 3` early return, including the empty slice).
        let mut empty: Vec<f64> = vec![];
        smooth_1d(&mut empty);
        assert!(empty.is_empty());

        let mut one = vec![0.7];
        smooth_1d(&mut one);
        assert_eq!(one, vec![0.7]);

        let mut two = vec![0.9, 0.1];
        smooth_1d(&mut two);
        assert_eq!(two, vec![0.9, 0.1], "length-2 input must not be averaged");
    }

    #[test]
    fn smoothing_length_three_boundary_weights() {
        // Length 3 is the smallest smoothed case: ends renormalise to
        // [2,1]/3, the middle uses the full [1,2,1]/4 kernel.
        let mut f = vec![1.0, 0.0, 0.0];
        smooth_1d(&mut f);
        assert!((f[0] - 2.0 / 3.0).abs() < 1e-15);
        assert!((f[1] - 0.25).abs() < 1e-15);
        assert!((f[2] - 0.0).abs() < 1e-15);
    }

    #[test]
    fn workspace_planes_reuse_allocation() {
        let mut ws = EmWorkspace::new();
        let ptr = {
            let a = ws.plane(32);
            a.fill(1.0);
            a.as_ptr()
        };
        // Same size again: same allocation, contents preserved.
        let a = ws.plane(32);
        assert_eq!(a.as_ptr(), ptr);
        assert!(a.iter().all(|&x| x == 1.0));
        // Growing zero-fills only the new tail.
        let a2 = ws.plane(48);
        assert_eq!(a2.len(), 48);
        assert!(a2[..32].iter().all(|&x| x == 1.0));
        assert!(a2[32..].iter().all(|&x| x == 0.0));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A cold run on six-symbol counts, scaled by `scale`, whose EM needs
    /// tens of iterations to gain less than one nat per step: enough to
    /// exercise the stop, cheap to run.
    fn skewed_run(scale: f64, params: EmParams) -> EmRun {
        let counts: Vec<f64> =
            [400.0, 250.0, 150.0, 100.0, 60.0, 40.0].iter().map(|c| c * scale).collect();
        let ch = noisy_channel(6, 0.55);
        expectation_maximization(&ch, &counts, None, None, params, &mut EmWorkspace::new())
    }

    #[test]
    fn evidence_stop_is_scale_invariant() {
        // The same counts scaled by 2^j with `gain_tol` scaled alike: the
        // weights divide by the total and every log-likelihood scales by
        // 2^j, both exactly for powers of two, so the accelerated run's
        // iterates, extrapolation steps, backoffs and stop are the same
        // run bit for bit. The stop depends on the evidence only through
        // nats gained against nats charged.
        let stop = EmParams { max_iters: 500, rel_tol: 0.0, gain_tol: 1.0 };
        let base = skewed_run(1.0, stop);
        assert!(!base.capped, "the stop must fire before the cap");
        assert!(base.iters > 2 && base.iters < stop.max_iters, "{}", base.iters);
        for scale in [2.0, 4.0, 16.0] {
            let scaled = skewed_run(scale, EmParams { gain_tol: stop.gain_tol * scale, ..stop });
            assert_eq!(scaled.iters, base.iters, "x{scale}");
            assert_eq!(bits(&scaled.estimate), bits(&base.estimate), "x{scale}");
        }
    }

    #[test]
    fn more_evidence_never_stops_earlier() {
        // The same counts scaled by 2^j: EM's iterates are unchanged (the
        // weights divide by the total, exactly for powers of two) while
        // every log-likelihood gain scales by 2^j, so a stop priced in
        // nats can only fire later. A per-report threshold would stop all
        // of them at the same iteration however much evidence they hold.
        let stop = EmParams { max_iters: 500, rel_tol: 0.0, gain_tol: 1.0 };
        let base = skewed_run(1.0, stop);
        let mut prev = base.iters;
        for scale in [2.0, 4.0, 16.0] {
            let scaled = skewed_run(scale, stop);
            assert!(!scaled.capped, "x{scale} hit the cap");
            assert!(scaled.iters >= prev, "x{scale} stopped at {} before {prev}", scaled.iters);
            prev = scaled.iters;
        }
        assert!(prev > base.iters, "16x the evidence must buy more iterations");
    }

    #[test]
    fn extrapolation_never_kills_a_live_cell() {
        // Five of six outputs nearly or wholly unobserved under a channel
        // that keeps half its mass: from uniform, the raw S3 step of the
        // first cycle overshoots far below zero. The backoff must keep
        // every cell that started positive positive at every budget, or
        // multiplicative EM could never regrow it.
        let ch = noisy_channel(6, 0.5);
        let counts = [1000.0, 0.0, 3.0, 0.0, 0.0, 1.0];
        let run = |max_iters, gain_tol| {
            let params = EmParams { max_iters, rel_tol: 0.0, gain_tol };
            expectation_maximization(&ch, &counts, None, None, params, &mut EmWorkspace::new())
        };
        // The raw step, from two plain maps of the uniform start.
        let t0 = vec![1.0 / 6.0; 6];
        let (t1, t2) = (run(1, 0.0).estimate, run(2, 0.0).estimate);
        let r: Vec<f64> = t1.iter().zip(&t0).map(|(b, a)| b - a).collect();
        let v: Vec<f64> = t2.iter().zip(&t1).zip(&r).map(|((c, b), r)| c - b - r).collect();
        let norm = |x: &[f64]| x.iter().map(|y| y * y).sum::<f64>().sqrt();
        let alpha = (-norm(&r) / norm(&v)).min(-1.0);
        let raw_min = (0..6)
            .map(|i| t0[i] - 2.0 * alpha * r[i] + alpha * alpha * v[i])
            .fold(f64::INFINITY, f64::min);
        assert!(raw_min < 0.0, "the instance must overshoot: raw minimum {raw_min}");
        for budget in 1..=60 {
            let est = run(budget, 1e-12).estimate;
            assert!(est.iter().all(|&x| x > 0.0), "budget {budget}: {est:?}");
        }
    }

    #[test]
    fn accelerated_cycles_never_lose_likelihood() {
        // Plain EM never lowers the likelihood. A cycle keeps its
        // stabilized extrapolation only when `ll(θ′) ≥ ll(θ₁)`, so the
        // iterate each full three-map cycle ends on is never worse than
        // the one it started from, however far the raw step overshoots.
        let cases = [
            (0.5, vec![1000.0, 0.0, 3.0, 0.0, 0.0, 1.0]),
            (0.3, vec![500.0, 480.0, 0.0, 0.0, 0.0, 0.0]),
        ];
        for (keep, counts) in cases {
            let ch = noisy_channel(6, keep);
            let ll = |maps| {
                let params = EmParams { max_iters: maps, rel_tol: 0.0, gain_tol: 1e-12 };
                let f = expectation_maximization(
                    &ch,
                    &counts,
                    None,
                    None,
                    params,
                    &mut EmWorkspace::new(),
                )
                .estimate;
                let mut out = vec![0.0; 6];
                ch.apply(&f, &mut out, &mut EmWorkspace::new());
                counts
                    .iter()
                    .zip(&out)
                    .filter(|(c, _)| **c > 0.0)
                    .map(|(c, p)| c * p.ln())
                    .sum::<f64>()
            };
            for cycle in 1..20 {
                let (before, after) = (ll(3 * cycle), ll(3 * cycle + 3));
                assert!(after >= before, "keep {keep}, cycle {cycle}: {before} -> {after}");
            }
        }
    }

    #[test]
    fn warm_start_converges_in_fewer_iterations() {
        // Cold vs warm on the same counts: seeding with the converged
        // estimate must hit the relative-tolerance stop in a handful of
        // iterations, and land on (numerically) the same optimum.
        let ch = noisy_channel(6, 0.55);
        let counts = [400.0, 250.0, 150.0, 100.0, 60.0, 40.0];
        let params = EmParams { max_iters: 500, rel_tol: 1e-9, gain_tol: 0.0 };
        let mut ws = EmWorkspace::new();
        let cold = expectation_maximization(&ch, &counts, None, None, params, &mut ws);
        let warm =
            expectation_maximization(&ch, &counts, Some(&cold.estimate), None, params, &mut ws);
        assert!(
            warm.iters < cold.iters / 2,
            "warm start took {} iters vs cold {}",
            warm.iters,
            cold.iters
        );
        for (w, c) in warm.estimate.iter().zip(&cold.estimate) {
            assert!((w - c).abs() < 1e-4, "warm and cold optima diverged: {w} vs {c}");
        }
    }

    #[test]
    fn warm_start_escapes_inherited_zeros() {
        // A warm start carrying a hard zero must still be able to put
        // mass there (the uniform blend keeps the coordinate alive).
        let ch = noisy_channel(3, 0.7);
        let input = [0.2, 0.3, 0.5];
        let mut counts = vec![0.0; 3];
        for o in 0..3 {
            for i in 0..3 {
                counts[o] += 1e6 * ch.at(o, i) * input[i];
            }
        }
        let stale = [0.5, 0.5, 0.0];
        let run = expectation_maximization(
            &ch,
            &counts,
            Some(&stale),
            None,
            EmParams { max_iters: 5000, rel_tol: 1e-12, gain_tol: 0.0 },
            &mut EmWorkspace::new(),
        );
        assert!(
            (run.estimate[2] - 0.5).abs() < 1e-3,
            "zeroed coordinate failed to regrow: {}",
            run.estimate[2]
        );
    }

    #[test]
    fn warm_entry_without_init_matches_cold_path() {
        // A dense channel that stages its input through a workspace plane,
        // the way the structured operators park their scratch there.
        struct Staged(Channel);
        impl ChannelOp for Staged {
            fn n_in(&self) -> usize {
                self.0.n_in
            }
            fn n_out(&self) -> usize {
                self.0.n_out
            }
            fn apply(&self, f: &[f64], out: &mut [f64], ws: &mut EmWorkspace) {
                let staged = ws.plane(f.len());
                staged.copy_from_slice(f);
                self.0.apply(staged, out, &mut EmWorkspace::new());
            }
            fn accumulate_adjoint(
                &self,
                w: &[f64],
                f: &[f64],
                f_new: &mut [f64],
                ws: &mut EmWorkspace,
            ) {
                self.0.accumulate_adjoint(w, f, f_new, ws);
            }
        }
        // A cold run through a workspace a warm run already used must be
        // bit-identical to one through a fresh workspace: nothing a run
        // leaves behind may leak into the next — budget runs, and
        // evidence runs with their workspace-held extrapolation planes.
        let ch = Staged(noisy_channel(4, 0.6));
        let counts = [40.0, 30.0, 20.0, 10.0];
        for params in [EmParams::default(), EmParams { gain_tol: 1e-6, ..EmParams::default() }] {
            let fresh =
                expectation_maximization(&ch, &counts, None, None, params, &mut EmWorkspace::new());
            let mut ws = EmWorkspace::new();
            let stale = [0.7, 0.1, 0.1, 0.1];
            let _ = expectation_maximization(&ch, &counts, Some(&stale), None, params, &mut ws);
            let reused = expectation_maximization(&ch, &counts, None, None, params, &mut ws);
            assert_eq!(
                bits(&fresh.estimate),
                bits(&reused.estimate),
                "workspace reuse moved the estimate"
            );
            assert_eq!(fresh.iters, reused.iters);
            assert_eq!(fresh.health, reused.health);
            assert!(fresh.iters >= 1 && fresh.iters <= params.max_iters);
        }
    }

    #[test]
    fn zero_total_counts_degrade_to_uniform() {
        let ch = noisy_channel(4, 0.7);
        for counts in [vec![0.0; 4], vec![-1.0, f64::NAN, 0.0, f64::NEG_INFINITY]] {
            let run = expectation_maximization(
                &ch,
                &counts,
                None,
                None,
                EmParams::default(),
                &mut EmWorkspace::new(),
            );
            assert!(run.health.degenerate_input);
            assert_eq!(run.iters, 0);
            assert_eq!(run.estimate, vec![0.25; 4]);
        }
    }

    #[test]
    fn corrupted_counts_are_sanitized_and_fit_proceeds() {
        let ch = noisy_channel(4, 0.8);
        let clean = [40.0, 30.0, 20.0, 10.0];
        let mut dirty = clean.to_vec();
        dirty[1] = f64::NAN;
        dirty[3] = f64::INFINITY;
        let run = expectation_maximization(
            &ch,
            &dirty,
            None,
            None,
            EmParams::default(),
            &mut EmWorkspace::new(),
        );
        assert_eq!(run.health.sanitized_counts, 2);
        assert!(!run.health.degenerate_input);
        assert!((run.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(run.estimate.iter().all(|x| x.is_finite() && *x >= 0.0));
        // Must match the run on the explicitly-zeroed plane exactly.
        let zeroed = [40.0, 0.0, 20.0, 0.0];
        let reference = expectation_maximization(
            &ch,
            &zeroed,
            None,
            None,
            EmParams::default(),
            &mut EmWorkspace::new(),
        );
        assert_eq!(run.estimate, reference.estimate);
        assert!(reference.health.is_clean());
    }

    #[test]
    fn corrupted_warm_start_is_sanitized() {
        let ch = noisy_channel(3, 0.7);
        let counts = [50.0, 30.0, 20.0];
        let stale = [f64::NAN, 0.6, 0.4];
        let run = expectation_maximization(
            &ch,
            &counts,
            Some(&stale),
            None,
            EmParams::default(),
            &mut EmWorkspace::new(),
        );
        assert_eq!(run.health.sanitized_init, 1);
        assert!(run.estimate.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!((run.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diverging_channel_is_reseeded_and_stays_finite() {
        // A hostile ChannelOp that fabricates NaN from iteration 2 on:
        // the divergence guard must re-seed (recording it) and the run
        // must still return a finite distribution.
        struct Hostile {
            inner: Channel,
            calls: std::cell::Cell<usize>,
        }
        impl ChannelOp for Hostile {
            fn n_in(&self) -> usize {
                self.inner.n_in
            }
            fn n_out(&self) -> usize {
                self.inner.n_out
            }
            fn apply(&self, f: &[f64], out: &mut [f64], ws: &mut EmWorkspace) {
                self.inner.apply(f, out, ws);
            }
            fn accumulate_adjoint(
                &self,
                w: &[f64],
                f: &[f64],
                f_new: &mut [f64],
                ws: &mut EmWorkspace,
            ) {
                self.inner.accumulate_adjoint(w, f, f_new, ws);
                let k = self.calls.get() + 1;
                self.calls.set(k);
                if k >= 2 {
                    f_new[0] = f64::NAN;
                }
            }
        }
        let hostile = Hostile { inner: noisy_channel(4, 0.7), calls: std::cell::Cell::new(0) };
        let counts = [40.0, 30.0, 20.0, 10.0];
        let mut ws = EmWorkspace::new();
        let run = expectation_maximization(
            &hostile,
            &counts,
            None,
            None,
            EmParams { max_iters: 20, rel_tol: 1e-9, gain_tol: 0.0 },
            &mut ws,
        );
        assert!(run.health.reseeds >= 1, "divergence must be recorded");
        assert!(run.estimate.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!((run.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The NaN canary names the stage the corruption entered at —
        // without aborting the (supported, recoverable) hostile run.
        if cfg!(debug_assertions) {
            assert!(ws.tainted_handoffs() >= 1, "canary must record the tainted handoff");
            assert_eq!(ws.first_taint(), Some("adjoint"));
        }
    }

    #[test]
    fn corrupted_predictions_reach_the_guard_through_ll_or_the_weights() {
        // An E-step that emits NaN, +∞ and −1 at the observed cells 0, 2,
        // 4 and at the unobserved cells 1, 3, 5 (6 and 7 stay honest), or
        // the same without the +∞ at cell 2.
        struct Corrupt(Channel, bool);
        impl ChannelOp for Corrupt {
            fn n_in(&self) -> usize {
                self.0.n_in
            }
            fn n_out(&self) -> usize {
                self.0.n_out
            }
            fn apply(&self, f: &[f64], out: &mut [f64], ws: &mut EmWorkspace) {
                self.0.apply(f, out, ws);
                for (o, bad) in [f64::NAN, f64::INFINITY, -1.0].into_iter().enumerate() {
                    out[2 * o + 1] = bad;
                    if self.1 || bad != f64::INFINITY {
                        out[2 * o] = bad;
                    }
                }
            }
            fn accumulate_adjoint(
                &self,
                w: &[f64],
                f: &[f64],
                f_new: &mut [f64],
                ws: &mut EmWorkspace,
            ) {
                self.0.accumulate_adjoint(w, f, f_new, ws);
            }
        }
        let counts = [40.0, 0.0, 30.0, 0.0, 20.0, 0.0, 10.0, 5.0];
        let n_total: f64 = counts.iter().sum();
        let f = [0.125; 8];
        let mut honest = vec![0.0; 8];
        noisy_channel(8, 0.6).apply(&f, &mut honest, &mut EmWorkspace::new());
        let floor = 1e-300f64.ln();
        for with_inf in [true, false] {
            let ch = Corrupt(noisy_channel(8, 0.6), with_inf);
            let (mut out, mut w, mut f_new) = (vec![0.0; 8], vec![0.0; 8], vec![0.0; 8]);
            let mut ws = EmWorkspace::new();
            let ll = ch.em_step(&f, &counts, n_total, &mut out, &mut w, &mut f_new, &mut ws);
            // `f64::max` returns its non-NaN operand: the NaN and −1
            // predictions give the floor term, and only +∞ makes `ll`
            // non-finite.
            let third = if with_inf { f64::INFINITY } else { 30.0 * honest[2].ln() };
            let want =
                40.0 * floor + third + 20.0 * floor + 10.0 * honest[6].ln() + 5.0 * honest[7].ln();
            assert_eq!(ll.to_bits(), want.to_bits(), "+∞ at an observed cell: {with_inf}");
            // The NaN prediction's weight is NaN; the weights of +∞, −1
            // and every unobserved cell are 0.
            let weight_2 = if with_inf { 0.0 } else { 30.0 / n_total / honest[2] };
            let (weight_6, weight_7) = (10.0 / n_total / honest[6], 5.0 / n_total / honest[7]);
            assert!(w[0].is_nan());
            assert_eq!(bits(&w[1..]), bits(&[0.0, weight_2, 0.0, 0.0, 0.0, weight_6, weight_7]));
            assert!(f_new.iter().all(|x| x.is_nan()), "the NaN weight reaches every cell");
            // Every map diverges, so the run reseeds until it gives up.
            let mut ws = EmWorkspace::new();
            let params = EmParams { max_iters: 20, rel_tol: 0.0, gain_tol: 0.0 };
            let run = expectation_maximization(&ch, &counts, None, None, params, &mut ws);
            assert_eq!(run.health.reseeds, MAX_RESEEDS);
            assert!(run.estimate.iter().all(|x| x.is_finite() && *x > 0.0));
            if cfg!(debug_assertions) {
                assert_eq!(ws.first_taint(), Some("apply"));
            }
        }
    }

    #[test]
    fn overflowing_update_is_counted_as_divergence() {
        // Every entry of the update is finite, but their sum overflows to
        // +∞: dividing by it would zero the whole estimate and the next
        // iteration would fall back to uniform with no reseed on record.
        struct Overflowing(Channel);
        impl ChannelOp for Overflowing {
            fn n_in(&self) -> usize {
                self.0.n_in
            }
            fn n_out(&self) -> usize {
                self.0.n_out
            }
            fn apply(&self, f: &[f64], out: &mut [f64], ws: &mut EmWorkspace) {
                self.0.apply(f, out, ws);
            }
            fn accumulate_adjoint(
                &self,
                _: &[f64],
                _: &[f64],
                f_new: &mut [f64],
                _: &mut EmWorkspace,
            ) {
                f_new.fill(1e308);
            }
        }
        let run = expectation_maximization(
            &Overflowing(noisy_channel(4, 0.7)),
            &[40.0, 30.0, 20.0, 10.0],
            None,
            None,
            EmParams { max_iters: 20, rel_tol: 0.0, gain_tol: 0.0 },
            &mut EmWorkspace::new(),
        );
        assert_eq!(run.health.reseeds, MAX_RESEEDS, "an overflowing sum must reseed");
        assert!(run.estimate.iter().all(|x| x.is_finite() && *x > 0.0));
        assert!((run.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clean_runs_leave_the_canary_silent() {
        let ch = noisy_channel(4, 0.6);
        let counts = [40.0, 30.0, 20.0, 10.0];
        let mut ws = EmWorkspace::new();
        let _ = expectation_maximization(&ch, &counts, None, None, EmParams::default(), &mut ws);
        assert_eq!(ws.tainted_handoffs(), 0);
        assert_eq!(ws.first_taint(), None);
    }

    #[test]
    fn clean_runs_report_clean_health() {
        let ch = noisy_channel(4, 0.6);
        let counts = [40.0, 30.0, 20.0, 10.0];
        let run = expectation_maximization(
            &ch,
            &counts,
            None,
            None,
            EmParams::default(),
            &mut EmWorkspace::new(),
        );
        assert!(run.health.is_clean());
        assert!(!EmHealth { reseeds: 2, ..EmHealth::default() }.is_clean());
    }

    #[test]
    #[should_panic(expected = "column")]
    fn validate_rejects_non_stochastic() {
        let ch = Channel { n_out: 2, n_in: 2, data: vec![0.5, 0.5, 0.2, 0.5] };
        ch.validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "column")]
    fn channel_rejects_non_stochastic_in_debug() {
        Channel::new(2, 2, vec![0.5, 0.5, 0.2, 0.5]);
    }
}
