//! The sliding-window streaming facade over the one-shot SAM pipeline.
//!
//! [`StreamingEstimator`] owns everything a continual deployment keeps
//! alive between epochs:
//!
//! * the [`DamClient`] (kernel + response tables, built once);
//! * the resolved [`EmOperator`] (stencil offsets or FFT plan + kernel
//!   spectrum, built once — every window's PostProcess reuses it);
//! * a [`CountTree`] over the full epoch history for O(log T) prefix and
//!   arbitrary-window queries — its leaves are the retained epoch planes;
//! * the exact sliding-window counts, slid incrementally off those leaves
//!   (one plane update per epoch: add the new plane, subtract the leaf
//!   `window` epochs back);
//! * a long-lived [`EmWorkspace`] plus the previous window's estimate, so
//!   each window's EM **warm-starts** from the last solution under the
//!   small `warm_em` budget ([`WindowEstimate::em_iters`] records the
//!   count; [`StreamingEstimator::estimate_window_cold`] is the
//!   uniform-start reference for the ratio).
//!
//! # Why a small warm budget beats running EM to convergence
//!
//! PostProcess is a deconvolution: EM driven to its ML optimum **fits
//! the privacy noise**, so estimation error against the true
//! distribution is U-shaped in the iteration count and early stopping is
//! the regularizer (the one-shot figures' 150-iteration protocol sits on
//! that curve too). The streaming advantage is that the previous
//! window's estimate is already a *regularized* solution fitted to
//! mostly-shared counts: diffused one smoothing pass (the
//! motion-agnostic forecast of a slightly-moved distribution) and
//! blended with a sliver of uniform, it only needs a few warm
//! iterations to absorb the one new epoch's evidence without
//! re-approaching the overfitting regime. That is how the warm path
//! matches — and in low-data regimes beats — the cold protocol's
//! accuracy at a fraction of its iterations, measured per window in
//! `fig_stream` and `BENCH_stream.json`.
//!
//! Determinism: epoch `e`'s reports are keyed by a SplitMix64 stream over
//! `(seed, e)` and fan out through the sharded pipeline, so ingestion —
//! and therefore every window estimate — is bit-identical for any
//! `threads` value (the crate's determinism suite pins it end to end).

use crate::health::{names, PipelineHealth};
use crate::tree::CountTree;
use dam_core::em2d::smooth_2d;
use dam_core::validate::{sanitize_counts, IngestPolicy};
use dam_core::{DamClient, DamConfig, EmOperator};
use dam_fo::em::{EmParams, EmWorkspace};
use dam_geo::rng::splitmix64;
use dam_geo::{Grid2D, Histogram2D, Point};
use dam_obs::{Counter, Gauge, Histogram, LogicalStamp, Plane, Registry};

/// Salt separating per-epoch report streams from every other derived
/// stream in the workspace.
const EPOCH_SALT: u64 = 0x5712_4A40_BEC0_0001;

/// Uniform share blended into the diffusion forecast before it seeds the
/// next window's EM. Mass growth under EM's multiplicative update is
/// geometric from the starting level, so tracking a *moving*
/// distribution needs every cell at a viable launch level; 5% costs
/// little in steady state and keeps far-field jumps recoverable.
const WARM_MIX: f64 = 0.05;

/// Configuration of the continual-observation pipeline.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// The wrapped one-shot pipeline: SAM variant, ε, radius, backend and
    /// thread budget all apply per window unchanged. `dam.em` is the
    /// **cold** protocol — it runs the first window and the
    /// [`StreamingEstimator::estimate_window_cold`] reference.
    pub dam: DamConfig,
    /// Sliding-window length in epochs.
    pub window: usize,
    /// Master seed; epoch `e` reports through stream `(seed, e)`.
    pub seed: u64,
    /// Laplace scale for the continual-counting tree's per-node noise
    /// (`0.0`, the LDP default: reports are already private, the tree is
    /// a query-cost structure only).
    pub noise_scale: f64,
    /// EM knobs for **warm-started** windows ([`EmParams::streaming`] by
    /// default): a small iteration budget — which doubles as the
    /// early-stopping regularizer against noise overfitting — plus the
    /// per-report-gain tolerance that exits after a couple of iterations
    /// when the window barely changed. The warm seed itself (diffusion
    /// forecast plus uniform floor) is fixed; see
    /// [`StreamingEstimator::estimate_window`].
    pub warm_em: EmParams,
    /// What happens to finite out-of-domain report coordinates
    /// ([`IngestPolicy::Clamp`] by default; non-finite coordinates are
    /// always quarantined). Quarantine counts surface through
    /// [`StreamingEstimator::health`].
    pub policy: IngestPolicy,
}

impl StreamConfig {
    /// A streaming pipeline over `dam` with the given window length and
    /// the measured warm-window defaults.
    pub fn new(dam: DamConfig, window: usize, seed: u64) -> Self {
        Self {
            dam,
            window,
            seed,
            noise_scale: 0.0,
            warm_em: EmParams::streaming(),
            policy: IngestPolicy::Clamp,
        }
    }
}

/// One window's estimate plus the EM accounting the streaming story is
/// about and a snapshot of the pipeline's health at estimation time.
#[derive(Debug, Clone)]
pub struct WindowEstimate {
    /// Normalized estimate over the input grid (always finite).
    pub histogram: Histogram2D,
    /// EM iterations this window took.
    pub em_iters: usize,
    /// Whether the run warm-started from a previous window's estimate.
    pub warm: bool,
    /// Pipeline health as of this estimate ([`PipelineHealth::is_clean`]
    /// on a fully healthy run; `partial_window` describes *this* window).
    pub health: PipelineHealth,
}

/// The estimator's registered obs handles: health counters (the source
/// of truth behind the [`PipelineHealth`] view) plus the instrumentation
/// only the registry carries (iteration histograms, ingest timing).
struct ObsHandles {
    seen: Counter,
    quarantined: Counter,
    clamped: Counter,
    epochs_ingested: Counter,
    epochs_missed: Counter,
    sanitized_cells: Counter,
    em_reseeds: Counter,
    degenerate_windows: Counter,
    backend_fallbacks: Counter,
    nodes_missed: Counter,
    partial_window: Gauge,
    em_runs: Counter,
    em_iters_total: Counter,
    em_iters: Histogram,
    ingest_batch_ns: Histogram,
    ns_per_report: Gauge,
}

impl ObsHandles {
    fn register(reg: &Registry) -> Self {
        let det = Plane::Deterministic;
        let timing = Plane::Timing;
        Self {
            seen: reg.counter(names::REPORTS_SEEN, det),
            quarantined: reg.counter(names::REPORTS_QUARANTINED, det),
            clamped: reg.counter(names::REPORTS_CLAMPED, det),
            epochs_ingested: reg.counter(names::EPOCHS_INGESTED, det),
            epochs_missed: reg.counter(names::EPOCHS_MISSED, det),
            sanitized_cells: reg.counter(names::SANITIZED_CELLS, det),
            em_reseeds: reg.counter(names::EM_RESEEDS, det),
            degenerate_windows: reg.counter(names::DEGENERATE_WINDOWS, det),
            backend_fallbacks: reg.counter(names::BACKEND_FALLBACKS, det),
            nodes_missed: reg.counter(names::NODES_MISSED, det),
            partial_window: reg.gauge(names::PARTIAL_WINDOW, det),
            em_runs: reg.counter("em_runs", det),
            em_iters_total: reg.counter("em_iterations_total", det),
            em_iters: reg.histogram("em_iterations", det),
            ingest_batch_ns: reg.histogram("ingest_batch_ns", timing),
            ns_per_report: reg.gauge("ingest_ns_per_report", timing),
        }
    }
}

/// Continual-observation wrapper around the SAM pipeline: ingest
/// timestamped report batches epoch by epoch, read a sliding-window
/// estimate at any time.
pub struct StreamingEstimator {
    config: StreamConfig,
    client: DamClient,
    operator: EmOperator,
    grid: Grid2D,
    /// Exact sum of the last `min(epochs, window)` retained planes.
    window_counts: Vec<f64>,
    tree: CountTree,
    scratch: Vec<f64>,
    ws: EmWorkspace,
    prev: Option<Vec<f64>>,
    epochs: usize,
    reports: u64,
    obs: Registry,
    hh: ObsHandles,
}

impl StreamingEstimator {
    /// Builds the pipeline for an input grid (kernel, EM operator and
    /// buffers are constructed here, once) with a private obs registry.
    pub fn new(grid: Grid2D, config: StreamConfig) -> Self {
        Self::with_registry(grid, config, Registry::new())
    }

    /// [`StreamingEstimator::new`] recording into a caller-supplied
    /// registry (the harness's seam for wall-clocked registries and for
    /// sharing one registry across service + coordinator layers).
    pub fn with_registry(grid: Grid2D, config: StreamConfig, obs: Registry) -> Self {
        assert!(config.window > 0, "window must hold at least one epoch");
        let client = DamClient::new(grid.clone(), &config.dam);
        let operator = EmOperator::new(client.kernel(), config.dam.backend);
        let n_out = client.kernel().n_out();
        let tree_seed = splitmix64(config.seed ^ EPOCH_SALT);
        let hh = ObsHandles::register(&obs);
        // Which EM backend the operator actually resolved to (auto picks
        // stencil vs FFT from the measured crossover).
        obs.counter(
            &format!("em_backend_selected_{}", operator.resolved().label()),
            Plane::Deterministic,
        )
        .incr();
        let mut ws = EmWorkspace::new();
        // Per-iteration ll-gain residuals (discrepancy-stop raw material).
        ws.set_ll_trace(obs.trace("em_ll_gain", 512));
        Self {
            client,
            operator,
            grid,
            window_counts: vec![0.0; n_out],
            tree: CountTree::new(n_out, config.noise_scale, tree_seed, config.dam.threads),
            scratch: Vec::new(),
            ws,
            prev: None,
            epochs: 0,
            reports: 0,
            obs,
            hh,
            config,
        }
    }

    /// Epochs ingested so far.
    #[inline]
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Total reports ingested so far.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// The configuration in use.
    #[inline]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The underlying client (kernel, grid, response tables).
    #[inline]
    pub fn client(&self) -> &DamClient {
        &self.client
    }

    /// The continual-counting tree over the full epoch history.
    #[inline]
    pub fn tree(&self) -> &CountTree {
        &self.tree
    }

    /// The exact noisy-report counts of the current sliding window.
    #[inline]
    pub fn window_counts(&self) -> &[f64] {
        &self.window_counts
    }

    /// The deterministic master seed keying epoch `epoch`'s shard streams.
    pub fn epoch_seed(seed: u64, epoch: usize) -> u64 {
        splitmix64(seed ^ splitmix64(epoch as u64 ^ EPOCH_SALT))
    }

    /// Running fault/degradation telemetry since construction — a view
    /// materialised from the obs registry's health counters.
    pub fn health(&self) -> PipelineHealth {
        PipelineHealth::from_registry(&self.obs)
    }

    /// The pipeline's obs registry (health counters, EM iteration
    /// histograms, the ll-gain trace, ingest timing, spans).
    #[inline]
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Ingests one epoch's points: **validates** every report against the
    /// grid (quarantining malformed ones per the configured
    /// [`IngestPolicy`], accounted in [`StreamingEstimator::health`]),
    /// randomizes the accepted remainder through the sharded report
    /// pipeline (bit-identical for any thread count), slides the window
    /// forward and appends the epoch plane to the continual-counting
    /// tree. Returns the epoch index just ingested.
    ///
    /// Quarantined reports consume no randomness, so validation is
    /// invisible to the valid remainder of a batch.
    ///
    /// The randomize/aggregate/window hot path reuses its buffers (shard
    /// scratch and the window sum); the tree, by contrast, *retains* each
    /// epoch — one O(n_cells) plane copy per epoch plus the amortized
    /// dyadic parents, O(T·n_cells) total over the stream's life. That
    /// history is what the O(log T) queries read; see the ROADMAP open
    /// item on a retention policy for bounding it.
    pub fn ingest_epoch(&mut self, points: &[Point]) -> usize {
        self.ingest_epoch_with(points, |_, _| {})
    }

    /// [`StreamingEstimator::ingest_epoch`] with a post-aggregation
    /// tamper hook: after the epoch's validated reports are randomized
    /// and aggregated, `tamper(epoch, plane)` may mutate the count plane
    /// before it enters the window and the tree. This is the
    /// fault-injection seam (`fig_stream --inject` wires
    /// `dam_fault::FaultPlan` plane poisoning through it) — production
    /// callers use [`StreamingEstimator::ingest_epoch`].
    ///
    /// Whatever the hook does, the pipeline stays serving: non-finite or
    /// negative cells it leaves behind are zeroed before the plane is
    /// retained, with the repair counted in
    /// [`PipelineHealth::sanitized_cells`].
    pub fn ingest_epoch_with<F>(&mut self, points: &[Point], tamper: F) -> usize
    where
        F: FnOnce(usize, &mut [f64]),
    {
        let _span = self.obs.span_at("ingest", LogicalStamp::epoch(self.epochs as u64));
        let t0 = self.obs.now_ns();
        let seed = Self::epoch_seed(self.config.seed, self.epochs);
        let summary = self.client.report_batch_validated_in(
            points,
            seed,
            self.config.dam.threads,
            self.config.policy,
            &mut self.scratch,
        );
        self.hh.seen.add(summary.seen);
        self.hh.quarantined.add(summary.quarantined);
        self.hh.clamped.add(summary.clamped);
        tamper(self.epochs, &mut self.scratch);
        self.hh.sanitized_cells.add(sanitize_counts(&mut self.scratch) as u64);
        let epoch = self.retain();
        self.reports += points.len() as u64;
        self.hh.epochs_ingested.incr();
        let dt = self.obs.now_ns().saturating_sub(t0);
        self.hh.ingest_batch_ns.record(dt);
        if !points.is_empty() {
            self.hh.ns_per_report.set(dt as f64 / points.len() as f64);
        }
        epoch
    }

    /// Ingests one epoch's **already-aggregated** count plane — the
    /// multi-node entry point, where K aggregators randomized their own
    /// report partitions and a coordinator merged (and possibly rescaled)
    /// the planes. The plane runs the same retention path as
    /// [`StreamingEstimator::ingest_epoch`]'s locally-aggregated counts:
    /// sanitize, slide the window, append to the tree. `summary` is the
    /// merged validated-ingest accounting of the nodes that contributed
    /// (disjoint node covers sum to the single-node summary), and its
    /// `seen` advances the report counter. Returns the epoch index just
    /// ingested.
    pub fn ingest_epoch_plane(
        &mut self,
        plane: &[f64],
        summary: &dam_core::validate::IngestSummary,
    ) -> usize {
        assert_eq!(plane.len(), self.client.kernel().n_out(), "plane does not match pipeline");
        let _span = self.obs.span_at("ingest_plane", LogicalStamp::epoch(self.epochs as u64));
        self.scratch.clear();
        self.scratch.extend_from_slice(plane);
        self.hh.seen.add(summary.seen);
        self.hh.quarantined.add(summary.quarantined);
        self.hh.clamped.add(summary.clamped);
        self.hh.sanitized_cells.add(sanitize_counts(&mut self.scratch) as u64);
        self.reports += summary.seen;
        self.hh.epochs_ingested.incr();
        self.retain()
    }

    /// Records an epoch the collector never delivered (outage, dropped
    /// batch): a zero plane holds its place so the window keeps sliding
    /// and later epochs stay time-aligned, and
    /// [`PipelineHealth::epochs_missed`] counts it. Returns the epoch
    /// index just recorded.
    pub fn ingest_missed_epoch(&mut self) -> usize {
        let n = self.client.kernel().n_out();
        self.scratch.clear();
        self.scratch.resize(n, 0.0);
        self.hh.epochs_missed.incr();
        self.retain()
    }

    /// The current sliding-window estimate, **warm-started** from the
    /// previous window's solution when one exists (half-diffused by one
    /// binomial pass, blended with `WARM_MIX` uniform, run under the
    /// `warm_em` budget; the first window runs the cold `dam.em`
    /// protocol). Stores the raw result as the next window's warm start.
    pub fn estimate_window(&mut self) -> WindowEstimate {
        let init = match self.prev.take() {
            Some(prev) => {
                // Diffusion forecast: a sliding window's distribution is
                // the old one *moved a little* in an unknown direction,
                // and one 3×3 binomial pass is that motion-agnostic
                // forecast — it hands the leading edge of a drifting
                // focus real mass (a uniform blend alone leaves it at
                // `WARM_MIX/d²`, which multiplicative EM is slow to grow).
                // Measured in the fig_stream regimes: this seed turns warm
                // tracking from ~25% worse TV than the cold protocol into
                // better-on-both-metrics.
                let mut diffused = prev.clone();
                smooth_2d(self.grid.d() as usize, &mut diffused);
                let u = WARM_MIX / prev.len() as f64;
                // Half the mass keeps the fitted sharpness, half carries
                // the diffusion forecast — enough leading-edge mass to
                // track drift without paying the full blur in W₂.
                let seed: Vec<f64> = prev
                    .iter()
                    .zip(&diffused)
                    .map(|(&p, &s)| (1.0 - WARM_MIX) * (0.5 * p + 0.5 * s) + u)
                    .collect();
                Some(seed)
            }
            None => None,
        };
        let est = self.run_em(init.as_deref());
        self.prev = Some(est.histogram.values().to_vec());
        est
    }

    /// The cold-start reference: same window counts, uniform EM
    /// initialisation under the full one-shot `dam.em` protocol, no
    /// stored state touched. The
    /// `estimate_window().em_iters / estimate_window_cold().em_iters`
    /// ratio is the headline warm-start saving.
    pub fn estimate_window_cold(&mut self) -> WindowEstimate {
        self.run_em(None)
    }

    /// The previous window's raw estimate — the seed the next
    /// [`Self::estimate_window`] warm-starts from, exposed so a
    /// checkpointing coordinator can persist the warm chain.
    #[inline]
    pub fn warm_state(&self) -> Option<&[f64]> {
        self.prev.as_deref()
    }

    /// Multi-node coordinator seam: records node planes that never
    /// arrived before a quorum close.
    #[inline]
    pub fn note_nodes_missed(&self, n: usize) {
        self.hh.nodes_missed.add(n as u64);
    }

    /// Multi-node coordinator seam: records count-plane cells the
    /// coordinator sanitized before the merge.
    #[inline]
    pub fn note_sanitized_cells(&self, n: usize) {
        self.hh.sanitized_cells.add(n as u64);
    }

    /// Multi-node coordinator seam: overrides the partial-window flag
    /// (e.g. an epoch in the window closed below full node coverage).
    #[inline]
    pub fn set_partial_window(&self, partial: bool) {
        self.hh.partial_window.set(if partial { 1.0 } else { 0.0 });
    }

    /// Rebuilds a **fresh** estimator's retained state from a
    /// checkpoint: re-ingests `planes` (epoch order, raw — no health
    /// accounting, those counters arrive wholesale in `health`), then
    /// installs the persisted health record, report counter, and
    /// warm-start seed. Window and tree rebuild through the same
    /// retention step that built them originally, so every
    /// subsequent window estimate is bit-identical to the uncrashed
    /// run's.
    ///
    /// Panics if this estimator has already ingested epochs — restore
    /// targets a newly-constructed pipeline with the same config.
    pub fn restore(
        &mut self,
        planes: &[Vec<f64>],
        reports: u64,
        health: PipelineHealth,
        warm: Option<Vec<f64>>,
    ) {
        assert_eq!(self.epochs, 0, "restore targets a fresh estimator");
        for plane in planes {
            self.scratch.clear();
            self.scratch.extend_from_slice(plane);
            self.retain();
        }
        self.reports = reports;
        health.store_into(&self.obs);
        self.prev = warm;
    }

    /// The one retention step every ingest and restore path ends in:
    /// slides the window sum onto the epoch plane staged in `scratch`,
    /// appends that plane to the tree as the next leaf and advances the
    /// epoch counter. Returns the epoch index retained.
    ///
    /// Once the window is full the update is `acc += new - old`, with
    /// `old` read back from the tree's leaf `window` epochs behind — the
    /// same expression, in the same order, that rebuilding or restoring
    /// the stream evaluates, so the sum is bit-reproducible even for
    /// fractional (tampered) planes, and exact for whole-number ones.
    fn retain(&mut self) -> usize {
        let plane = &self.scratch;
        let window = self.config.window;
        match self.epochs.checked_sub(window).and_then(|t| self.tree.epoch_plane(t)) {
            Some(old) => {
                for ((acc, &new), &old) in self.window_counts.iter_mut().zip(plane).zip(old) {
                    *acc += new - old;
                }
            }
            None => {
                for (acc, &v) in self.window_counts.iter_mut().zip(plane) {
                    *acc += v;
                }
            }
        }
        self.tree.append(plane);
        let epoch = self.epochs;
        self.epochs += 1;
        epoch
    }

    fn run_em(&mut self, init: Option<&[f64]>) -> WindowEstimate {
        let held = self.epochs.min(self.config.window);
        let _span = self.obs.span_at(
            "em_window",
            LogicalStamp { epoch: self.epochs as u64, window: held as u64, iteration: 0 },
        );
        // A stream younger than the window covers fewer epochs than
        // configured: still a well-defined estimate (the window sums what
        // the stream holds), but flagged so consumers know the evidence
        // is thin.
        self.hh.partial_window.set(if held < self.config.window { 1.0 } else { 0.0 });
        let counts = &self.window_counts;
        if counts.iter().sum::<f64>() <= 0.0 {
            // An empty window carries no information; degrade to uniform.
            self.hh.degenerate_windows.incr();
            let n = self.grid.n_cells();
            let uniform = Histogram2D::from_values(self.grid.clone(), vec![1.0 / n as f64; n]);
            return WindowEstimate {
                histogram: uniform,
                em_iters: 0,
                warm: init.is_some(),
                health: self.health(),
            };
        }
        let warm = init.is_some();
        let params = if warm { self.config.warm_em } else { self.config.dam.em };
        let outcome = self.operator.post_process(
            counts,
            &self.grid,
            self.config.dam.post,
            params,
            init,
            &mut self.ws,
        );
        self.hh.em_runs.incr();
        self.hh.em_iters_total.add(outcome.em_iters as u64);
        self.hh.em_iters.record(outcome.em_iters as u64);
        self.hh.em_reseeds.add(outcome.em_health.reseeds as u64);
        if outcome.em_health.degenerate_input {
            self.hh.degenerate_windows.incr();
        }
        if outcome.backend_fallback {
            self.hh.backend_fallbacks.incr();
        }
        WindowEstimate {
            histogram: outcome.histogram,
            em_iters: outcome.em_iters,
            warm,
            health: self.health(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_fo::em::EmParams;
    use dam_geo::BoundingBox;

    fn focus_points(center: (f64, f64), n: usize, salt: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = splitmix64(salt ^ i as u64) as f64 / u64::MAX as f64;
                let b = splitmix64(salt ^ (i as u64) << 1 ^ 0xABCD) as f64 / u64::MAX as f64;
                Point::new(
                    (center.0 + 0.08 * (a - 0.5)).clamp(0.0, 1.0),
                    (center.1 + 0.08 * (b - 0.5)).clamp(0.0, 1.0),
                )
            })
            .collect()
    }

    fn stream_config(window: usize) -> StreamConfig {
        // `dam.em` is the cold one-shot protocol; warm windows run the
        // `EmParams::streaming()` budget set by `StreamConfig::new`.
        let dam = DamConfig {
            em: EmParams { max_iters: 150, rel_tol: 1e-9, gain_tol: 1e-7 },
            ..DamConfig::dam(4.0)
        };
        StreamConfig::new(dam, window, 7)
    }

    #[test]
    fn window_tracks_a_moving_focus() {
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let mut s = StreamingEstimator::new(grid.clone(), stream_config(3));
        // Six epochs at a left focus, then six at a right focus: after the
        // window slides fully onto the new focus the estimate must follow.
        for e in 0..6 {
            s.ingest_epoch(&focus_points((0.15, 0.5), 8_000, e));
        }
        let left = s.estimate_window();
        for e in 6..12 {
            s.ingest_epoch(&focus_points((0.85, 0.5), 8_000, e));
        }
        let right = s.estimate_window();
        let cell_of = |x: f64| grid.cell_of(Point::new(x, 0.5));
        assert!(left.histogram.get(cell_of(0.15)) > 0.3, "left focus not localised");
        assert!(right.histogram.get(cell_of(0.85)) > 0.3, "right focus not localised");
        assert!(right.histogram.get(cell_of(0.15)) < 0.05, "stale mass survived the slide");
        assert!(right.warm && !left.warm);
    }

    #[test]
    fn warm_start_uses_fewer_iterations_in_steady_state() {
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let mut s = StreamingEstimator::new(grid, stream_config(4));
        for e in 0..4 {
            s.ingest_epoch(&focus_points((0.4, 0.6), 6_000, e));
        }
        s.estimate_window();
        // Steady state: one more near-identical epoch slides in.
        s.ingest_epoch(&focus_points((0.4, 0.6), 6_000, 99));
        let cold = s.estimate_window_cold();
        let warm = s.estimate_window();
        assert!(warm.warm && !cold.warm);
        assert!(
            warm.em_iters * 2 < cold.em_iters,
            "warm {} vs cold {} iterations",
            warm.em_iters,
            cold.em_iters
        );
        // Both converge to the same optimum (same counts, same channel).
        let tv = warm.histogram.tv_distance(&cold.histogram);
        assert!(tv < 0.02, "warm/cold estimates diverged: tv {tv}");
    }

    #[test]
    fn empty_window_reports_uniform() {
        let grid = Grid2D::new(BoundingBox::unit(), 4);
        let mut s = StreamingEstimator::new(grid, stream_config(2));
        s.ingest_epoch(&[]);
        let est = s.estimate_window();
        assert_eq!(est.em_iters, 0);
        assert!(est.histogram.values().iter().all(|&v| (v - 1.0 / 16.0).abs() < 1e-15));
    }

    #[test]
    fn tree_and_ring_agree_on_the_current_window() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut s = StreamingEstimator::new(grid, stream_config(3));
        for e in 0..7 {
            s.ingest_epoch(&focus_points((0.5, 0.5), 2_000, e));
        }
        // The incremental window equals the tree's dyadic query for the
        // same epoch range (both exact integer sums).
        let mut from_tree = vec![0.0; s.window_counts().len()];
        s.tree().try_window_into(4, 7, &mut from_tree).unwrap();
        assert_eq!(s.window_counts(), &from_tree[..]);
    }

    #[test]
    fn partial_window_is_flagged_until_the_window_fills() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut s = StreamingEstimator::new(grid, stream_config(3));
        s.ingest_epoch(&focus_points((0.5, 0.5), 2_000, 0));
        let young = s.estimate_window();
        assert!(young.health.partial_window, "1 of 3 epochs must read as partial");
        assert!((young.histogram.total() - 1.0).abs() < 1e-9);
        for e in 1..3 {
            s.ingest_epoch(&focus_points((0.5, 0.5), 2_000, e));
        }
        let full = s.estimate_window();
        assert!(!full.health.partial_window, "3 of 3 epochs is a full window");
    }

    #[test]
    fn quarantine_surfaces_in_health_and_clean_streams_stay_clean() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut s = StreamingEstimator::new(grid.clone(), stream_config(2));
        for e in 0..2 {
            s.ingest_epoch(&focus_points((0.5, 0.5), 3_000, e));
        }
        let est = s.estimate_window();
        assert!(est.health.is_clean(), "{:?}", est.health);
        assert_eq!(est.health.ingest.seen, 6_000);

        // Same stream with NaN reports sprinkled in: quarantined,
        // counted, and the estimate still a finite distribution.
        let mut dirty = StreamingEstimator::new(grid, stream_config(2));
        for e in 0..2 {
            let mut pts = focus_points((0.5, 0.5), 3_000, e);
            pts.insert(100, Point::new(f64::NAN, 0.2));
            pts.insert(700, Point::new(0.2, f64::INFINITY));
            dirty.ingest_epoch(&pts);
        }
        let est = dirty.estimate_window();
        assert_eq!(est.health.ingest.quarantined, 4);
        assert_eq!(est.health.ingest.seen, 6_004);
        assert!(est.histogram.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn missed_epochs_slide_the_window_and_are_counted() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut s = StreamingEstimator::new(grid, stream_config(2));
        for e in 0..2 {
            s.ingest_epoch(&focus_points((0.3, 0.3), 3_000, e));
        }
        // Two missed epochs push both real ones out of the window.
        s.ingest_missed_epoch();
        let half = s.estimate_window();
        assert_eq!(half.health.epochs_missed, 1);
        assert!(half.em_iters > 0, "one real epoch remains in the window");
        s.ingest_missed_epoch();
        let empty = s.estimate_window();
        assert_eq!(empty.health.epochs_missed, 2);
        assert!(empty.health.degenerate_windows >= 1, "empty window must degrade");
        assert_eq!(s.epochs(), 4, "missed epochs still advance time");
    }

    #[test]
    fn tampered_planes_are_sanitized_before_retention() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut s = StreamingEstimator::new(grid, stream_config(2));
        s.ingest_epoch_with(&focus_points((0.5, 0.5), 3_000, 0), |_, plane| {
            plane[0] = f64::NAN;
            plane[1] = f64::INFINITY;
            plane[2] = -5.0;
        });
        assert_eq!(s.health().sanitized_cells, 3);
        // The retained plane (window and tree alike) is finite.
        assert!(s.window_counts().iter().all(|v| v.is_finite() && *v >= 0.0));
        let (leaf, _) = s.tree().window_clamped(0, 1).unwrap();
        assert!(leaf.iter().all(|v| v.is_finite() && *v >= 0.0));
        let est = s.estimate_window();
        assert!(est.histogram.values().iter().all(|v| v.is_finite()));
        assert!(!est.health.is_clean());
    }

    #[test]
    fn epoch_seeds_are_distinct_streams() {
        let a = StreamingEstimator::epoch_seed(7, 0);
        let b = StreamingEstimator::epoch_seed(7, 1);
        let c = StreamingEstimator::epoch_seed(8, 0);
        assert!(a != b && a != c && b != c);
    }
}
