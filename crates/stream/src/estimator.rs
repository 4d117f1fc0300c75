//! The sliding-window streaming facade over the one-shot SAM pipeline.
//!
//! [`StreamingEstimator`] owns everything a continual deployment keeps
//! alive between epochs:
//!
//! * the [`DamClient`] (kernel + response tables, built once);
//! * the kernel's [`FftChannel`] (FFT plan + kernel spectrum, built once
//!   — every window's PostProcess reuses it);
//! * an [`EpochRing`] holding the last `window` epoch planes — the only
//!   history the estimator reads, so retention is bounded however long
//!   the stream runs;
//! * the exact sliding-window counts, slid incrementally off that ring
//!   (one plane update per epoch: add the new plane, subtract the one
//!   `window` epochs back);
//! * a long-lived [`EmWorkspace`] plus the previous window's estimate, so
//!   each window's EM **warm-starts** from the last solution and stops
//!   on evidence under `warm_em` ([`WindowEstimate::em_iters`] records
//!   the count; [`StreamingEstimator::estimate_window_cold`] is the
//!   uniform-start reference for the ratio).
//!
//! # Why warm windows stop on evidence instead of converging
//!
//! PostProcess is a deconvolution: EM driven to its ML optimum **fits
//! the privacy noise**, so estimation error against the true
//! distribution is U-shaped in the iteration count and stopping early is
//! the regularizer (the one-shot figures' 150-iteration protocol sits on
//! that curve too). The streaming advantage is that the previous
//! window's estimate is already a *regularized* solution fitted to
//! mostly-shared counts: diffused one smoothing pass (the
//! motion-agnostic forecast of a slightly-moved distribution) and
//! blended with a sliver of uniform, it only needs to absorb the one new
//! epoch's evidence. [`EmParams::streaming`] stops it once one plain EM
//! step gains less than 1.92 nats of log-likelihood (the likelihood-ratio
//! test at 5% for one parameter), so a window runs as long as its
//! evidence pays for, and reaches that point by SQUAREM extrapolation in
//! about a third of the plain loop's maps (~11 against ~38 at the
//! benchmark's d = 64, 20k reports per epoch; ~21 where a million
//! reports per epoch used to run plain EM into its 50-map ceiling). That
//! is how the warm path matches — and in low-data regimes beats — the
//! cold protocol's accuracy at a fraction of its iterations, measured
//! per window in `fig_stream` (and, as `em.iters_per_window`, by the
//! end-to-end benchmark's `--trace 1` ledger). The registry counts the
//! windows the ceiling ended (`em_cap_hits`, against `em_runs`) and
//! traces every stop test's gain in nats (`em_ll_gain`): one per
//! three-map cycle of a warm window, one per map after the first of a
//! cold one.
//!
//! Determinism: epoch `e`'s reports are keyed by a SplitMix64 stream over
//! `(seed, e)` and fan out through the sharded pipeline, so ingestion —
//! and therefore every window estimate — is bit-identical for any
//! `threads` value (the crate's determinism suite pins it end to end).

use crate::health::{names, PipelineHealth};
use crate::ring::EpochRing;
use dam_core::em2d::smooth_2d;
use dam_core::validate::{sanitize_counts, IngestPolicy};
use dam_core::{DamClient, DamConfig, FftChannel};
use dam_fo::em::{expectation_maximization, EmParams, EmRun, EmWorkspace};
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
    /// The wrapped one-shot pipeline: SAM variant, ε, radius and
    /// thread budget all apply per window unchanged. `dam.em` is the
    /// **cold** protocol — it runs the first window and the
    /// [`StreamingEstimator::estimate_window_cold`] reference.
    pub dam: DamConfig,
    /// Sliding-window length in epochs.
    pub window: usize,
    /// Master seed; epoch `e` reports through stream `(seed, e)`.
    pub seed: u64,
    /// EM knobs for **warm-started** windows ([`EmParams::streaming`] by
    /// default): a 1.92-nat log-likelihood-gain stop — the
    /// early-stopping regularizer against noise overfitting, which ends
    /// a window once a plain EM step no longer passes the
    /// likelihood-ratio test at 5% for one parameter — reached by SQUAREM
    /// extrapolation under a ceiling of 50 map evaluations. The
    /// warm seed itself (diffusion forecast plus uniform floor) is fixed;
    /// see [`StreamingEstimator::estimate_window`].
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
        Self { dam, window, seed, warm_em: EmParams::streaming(), policy: IngestPolicy::Clamp }
    }
}

/// One window's estimate plus the EM accounting the streaming story is
/// about and a snapshot of the pipeline's health at estimation time.
#[derive(Debug, Clone)]
pub struct WindowEstimate {
    /// Normalized estimate over the input grid (always finite).
    pub histogram: Histogram2D,
    /// EM map evaluations this window took.
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
    nodes_missed: Counter,
    partial_window: Gauge,
    em_runs: Counter,
    em_cap_hits: Counter,
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
            nodes_missed: reg.counter(names::NODES_MISSED, det),
            partial_window: reg.gauge(names::PARTIAL_WINDOW, det),
            em_runs: reg.counter("em_runs", det),
            em_cap_hits: reg.counter("em_cap_hits", det),
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
    channel: FftChannel,
    /// `config.dam.threads`, resolved once at construction.
    threads: usize,
    grid: Grid2D,
    /// Exact sum of the last `min(epochs, window)` retained planes.
    window_counts: Vec<f64>,
    ring: EpochRing,
    ws: EmWorkspace,
    prev: Option<Vec<f64>>,
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
        let threads = config.dam.resolved_threads();
        let channel = client.kernel().fft_channel(Some(threads));
        let n_out = client.kernel().n_out();
        let hh = ObsHandles::register(&obs);
        // Read by the end-to-end benchmark (`perfbench`) for its run note.
        obs.counter("em_backend_selected_fft", Plane::Deterministic).incr();
        let mut ws = EmWorkspace::new();
        // Per-iteration log-likelihood gain in nats: what the
        // `gain_tol` stop compares.
        ws.set_ll_trace(obs.trace("em_ll_gain", 512));
        Self {
            client,
            channel,
            threads,
            grid,
            window_counts: vec![0.0; n_out],
            ring: EpochRing::new(n_out, config.window, 0),
            ws,
            prev: None,
            reports: 0,
            obs,
            hh,
            config,
        }
    }

    /// Epochs ingested so far.
    #[inline]
    pub fn epochs(&self) -> usize {
        self.ring.len()
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

    /// The retained epoch planes: the last `min(epochs, window)` of them
    /// (named for the count tree the ring replaced; `perfbench` reads it).
    #[inline]
    pub fn tree(&self) -> &EpochRing {
        &self.ring
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
    /// forward and retains the epoch plane in the ring. Returns the epoch
    /// index just ingested.
    ///
    /// Quarantined reports consume no randomness, so validation is
    /// invisible to the valid remainder of a batch.
    ///
    /// Between epochs the estimator holds only the window: the shard
    /// planes of the report pipeline (one per 16Ki reports — more than the
    /// whole window at a million reports) live for the call, and
    /// retaining the epoch is one O(n_cells) copy into the ring slot the
    /// evicted epoch held.
    pub fn ingest_epoch(&mut self, points: &[Point]) -> usize {
        self.ingest_epoch_with(points, |_, _| {})
    }

    /// [`StreamingEstimator::ingest_epoch`] with a post-aggregation
    /// tamper hook: after the epoch's validated reports are randomized
    /// and aggregated, `tamper(epoch, plane)` may mutate the count plane
    /// before it enters the window and the ring. This is the
    /// fault-injection seam (`fig_stream --inject` wires
    /// `dam_fault::FaultPlan::tamper` through it) — production
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
        let _span = self.obs.span_at("ingest", LogicalStamp::epoch(self.ring.len() as u64));
        let t0 = self.obs.now_ns();
        let seed = Self::epoch_seed(self.config.seed, self.ring.len());
        let mut plane = Vec::new();
        let summary = self.client.report_batch_validated_in(
            points,
            seed,
            Some(self.threads),
            self.config.policy,
            &mut plane,
        );
        self.hh.seen.add(summary.seen);
        self.hh.quarantined.add(summary.quarantined);
        self.hh.clamped.add(summary.clamped);
        tamper(self.ring.len(), &mut plane);
        self.hh.sanitized_cells.add(sanitize_counts(&mut plane) as u64);
        let epoch = self.retain(&plane);
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
    /// sanitize, slide the window, retain the plane. `summary` is the
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
        let _span = self.obs.span_at("ingest_plane", LogicalStamp::epoch(self.ring.len() as u64));
        let mut plane = plane.to_vec();
        self.hh.seen.add(summary.seen);
        self.hh.quarantined.add(summary.quarantined);
        self.hh.clamped.add(summary.clamped);
        self.hh.sanitized_cells.add(sanitize_counts(&mut plane) as u64);
        self.reports += summary.seen;
        self.hh.epochs_ingested.incr();
        self.retain(&plane)
    }

    /// Records an epoch the collector never delivered (outage, dropped
    /// batch): a zero plane holds its place so the window keeps sliding
    /// and later epochs stay time-aligned, and
    /// [`PipelineHealth::epochs_missed`] counts it. Returns the epoch
    /// index just recorded.
    pub fn ingest_missed_epoch(&mut self) -> usize {
        self.hh.epochs_missed.incr();
        self.retain(&vec![0.0; self.client.kernel().n_out()])
    }

    /// The current sliding-window estimate, **warm-started** from the
    /// previous window's solution when one exists (half-diffused by one
    /// binomial pass, blended with `WARM_MIX` uniform, run under
    /// `warm_em`; the first window runs the cold `dam.em` protocol).
    /// Stores the raw result as the next window's warm start.
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
    /// checkpoint: `planes` are the stream's *last* `planes.len()`
    /// epochs, oldest first, ending at the head
    /// `max(planes.len(), health.epochs_ingested + health.epochs_missed)`
    /// (every ingest path advances exactly one of those counters). They
    /// re-enter raw through the retention step that built them, then the
    /// persisted health record, report counter and warm seed are
    /// installed. The rebuilt window sum is bit-identical to the live one
    /// for whole-number planes below 2⁵³ (every sum is exact), or when
    /// `planes` start at the stream's first epoch.
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
        let head = planes.len().max(health.epochs_ingested.saturating_add(health.epochs_missed));
        assert!(self.ring.is_empty(), "restore targets a fresh estimator");
        self.ring = EpochRing::new(self.ring.n_cells(), self.config.window, head - planes.len());
        for plane in planes {
            self.retain(plane);
        }
        self.reports = reports;
        health.store_into(&self.obs);
        self.prev = warm;
    }

    /// The one retention step every ingest and restore path ends in:
    /// slides the window sum onto `plane` and stores it in the ring as the
    /// next epoch. Returns the epoch index retained.
    ///
    /// Once the window is full the update is `acc += new - old`, with
    /// `old` read from the ring slot the new plane then overwrites — the
    /// same expression, in the same order, that rebuilding the stream
    /// evaluates, so the sum is bit-reproducible even for fractional
    /// (tampered) planes, and exact for whole-number ones.
    fn retain(&mut self, plane: &[f64]) -> usize {
        let epoch = self.ring.len();
        match epoch.checked_sub(self.config.window).and_then(|t| self.ring.epoch_plane(t)) {
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
        self.ring.push(plane);
        epoch
    }

    fn run_em(&mut self, init: Option<&[f64]>) -> WindowEstimate {
        let epochs = self.ring.len();
        let held = epochs.min(self.config.window);
        let _span = self.obs.span_at(
            "em_window",
            LogicalStamp { epoch: epochs as u64, window: held as u64, iteration: 0 },
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
        let EmRun { estimate, iters, capped, health: em_health } =
            expectation_maximization(&self.channel, counts, init, None, params, &mut self.ws);
        self.hh.em_runs.incr();
        if capped {
            self.hh.em_cap_hits.incr();
        }
        self.hh.em_iters_total.add(iters as u64);
        self.hh.em_iters.record(iters as u64);
        self.hh.em_reseeds.add(em_health.reseeds as u64);
        if em_health.degenerate_input {
            self.hh.degenerate_windows.incr();
        }
        WindowEstimate {
            histogram: Histogram2D::from_values(self.grid.clone(), estimate),
            em_iters: iters,
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
        // `EmParams::streaming()` evidence stop set by `StreamConfig::new`.
        let dam = DamConfig {
            em: EmParams { max_iters: 150, rel_tol: 1e-9, gain_tol: 0.0 },
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
    fn cap_hits_count_the_windows_that_ran_out_of_iterations() {
        // One-epoch windows of a moving focus under a low warm ceiling:
        // the 40k-report windows still gain more than the stop's price
        // per plain EM step when they reach it, the 500-report ones stop
        // on evidence first. The cold first window has no tolerance at
        // all, so it is a hit.
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let mut config = stream_config(1);
        config.dam.em = EmParams { max_iters: 30, rel_tol: 0.0, gain_tol: 0.0 };
        // Warm runs extrapolate in cycles of three maps and test the stop
        // on each cycle's second, so a ceiling of 3k + 2 lets a stop fire
        // on the last allowed map.
        config.warm_em = EmParams { max_iters: 11, ..EmParams::streaming() };
        let tol = config.warm_em.gain_tol;
        let mut s = StreamingEstimator::new(grid, config);
        let gains = s.obs().trace("em_ll_gain", 512);
        let (mut runs, mut hits, mut stopped_at_cap) = (0, 0, 0);
        for e in 0..8 {
            let n = if e % 2 == 0 { 40_000 } else { 500 };
            s.ingest_epoch(&focus_points((0.2 + 0.08 * e as f64, 0.5), n, e as u64));
            let seen = gains.samples().len();
            let est = s.estimate_window();
            runs += 1;
            // The trace holds the gain in nats of each plain EM step the
            // stop tested: every map after the first of a cold run, one
            // per three-map cycle of a warm run (a cycle tests after its
            // second map). The warm stop fired iff the last one is under
            // the price.
            let window = &gains.samples()[seen..];
            if !est.warm {
                assert_eq!(window.len(), est.em_iters - 1, "epoch {e}");
                assert_eq!(est.em_iters, config.dam.em.max_iters);
                hits += 1;
                continue;
            }
            assert_eq!(window.len(), (est.em_iters + 1) / 3, "epoch {e}");
            let (&last, earlier) = window.split_last().expect("a warm window iterates");
            assert!(earlier.iter().all(|&g| g >= tol), "epoch {e}: {window:?}");
            let at_cap = est.em_iters == config.warm_em.max_iters;
            assert!(at_cap || last < tol, "epoch {e} ended early without the stop");
            hits += usize::from(at_cap && last >= tol);
            stopped_at_cap += usize::from(at_cap && last < tol);
        }
        assert_eq!(s.obs().counter_value("em_runs"), runs);
        assert_eq!(s.obs().counter_value("em_cap_hits"), hits as u64);
        assert!(hits > 1 && hits < runs as usize, "{hits} of {runs} windows capped");
        // A stop firing on the last allowed map is not a cap hit,
        // which an `em_iters == max_iters` rule would miscount.
        assert!(stopped_at_cap > 0, "no window stopped exactly at the cap");
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
        // The retained plane (window and ring alike) is finite.
        assert!(s.window_counts().iter().all(|v| v.is_finite() && *v >= 0.0));
        let leaf = s.tree().epoch_plane(0).unwrap();
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
