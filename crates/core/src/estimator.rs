//! The end-to-end PSDEP pipeline (Algorithm 1) and the unified estimator
//! trait implemented by every mechanism in the workspace.
//!
//! The Frequency Oracle protocol `FO = ⟨T, E⟩` splits naturally into a
//! user-side [`DamClient`] (bucketize + `GridAreaResponse`) and an
//! analyst-side [`DamAggregator`] (noisy histogram + EM PostProcess).
//! [`DamEstimator`] wires both together behind [`SpatialEstimator`], the
//! interface the experiment harness drives for DAM, DAM-NS, HUEM and all
//! the baselines in `dam-baselines`.

use crate::grid::KernelKind;
use crate::kernel::DiscreteKernel;
use crate::radius::optimal_b_cells;
use crate::response::GridAreaResponse;
use crate::shard::{sharded_accumulate_in, SHARD_SIZE};
use crate::validate::{
    check_counts, check_point_in, covered_square, IngestError, IngestPolicy, IngestSummary,
    PointCheck,
};
use dam_fo::em::{expectation_maximization, EmParams, EmWorkspace};
use dam_geo::{CellIndex, Grid2D, Histogram2D, Point};
use rand::RngCore;

/// A mechanism that privately estimates the spatial distribution of a
/// point multiset over a grid — the `FO` of Definition 3.
pub trait SpatialEstimator {
    /// Human-readable mechanism name (as used in the paper's figures).
    fn name(&self) -> String;

    /// Runs the full local-DP protocol: every point is randomized
    /// client-side and the analyst's estimate over `grid` is returned as a
    /// normalized histogram.
    fn estimate(&self, points: &[Point], grid: &Grid2D, rng: &mut dyn RngCore) -> Histogram2D;
}

/// Mechanism variants sharing the SAM pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamVariant {
    /// The paper's Disk Area Mechanism with border shrinkage.
    Dam,
    /// DAM without shrinkage (the DAM-NS baseline).
    DamNonShrunken,
    /// The Hybrid Uniform-Exponential Mechanism.
    Huem,
}

impl SamVariant {
    fn kernel(self, eps: f64, d: u32, b_hat: u32) -> DiscreteKernel {
        match self {
            SamVariant::Dam => DiscreteKernel::dam(eps, d, b_hat, KernelKind::Shrunken),
            SamVariant::DamNonShrunken => {
                DiscreteKernel::dam(eps, d, b_hat, KernelKind::NonShrunken)
            }
            SamVariant::Huem => DiscreteKernel::huem(eps, d, b_hat),
        }
    }

    fn label(self) -> &'static str {
        match self {
            SamVariant::Dam => "DAM",
            SamVariant::DamNonShrunken => "DAM-NS",
            SamVariant::Huem => "HUEM",
        }
    }
}

/// Configuration of the SAM pipeline (Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct DamConfig {
    /// Privacy budget ε.
    pub eps: f64,
    /// Mechanism variant.
    pub variant: SamVariant,
    /// Explicit disk radius in cells; `None` uses the optimal `b̌` of §V-C.
    pub b_hat: Option<u32>,
    /// EM convergence knobs.
    pub em: EmParams,
    /// Worker threads for the sharded report pipeline and the split
    /// spectral EM (`None` = all cores). Any value yields bit-identical
    /// output — shard layout, RNG streams and the split transform's
    /// arithmetic are thread-count independent.
    pub threads: Option<usize>,
}

impl DamConfig {
    /// The paper's default DAM configuration at budget `eps`.
    pub fn dam(eps: f64) -> Self {
        Self { eps, variant: SamVariant::Dam, b_hat: None, em: EmParams::default(), threads: None }
    }

    /// Sets the report-pipeline and EM thread count (`None` = all cores).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// DAM-NS (no shrinkage) at budget `eps`.
    pub fn dam_ns(eps: f64) -> Self {
        Self { variant: SamVariant::DamNonShrunken, ..Self::dam(eps) }
    }

    /// HUEM at budget `eps`.
    pub fn huem(eps: f64) -> Self {
        Self { variant: SamVariant::Huem, ..Self::dam(eps) }
    }

    /// Resolves the disk radius for a grid with `d` cells per side.
    pub fn resolve_b(&self, d: u32) -> u32 {
        self.b_hat.unwrap_or_else(|| optimal_b_cells(self.eps, d))
    }
}

/// User-side state: bucketizes a point and emits a noisy output cell
/// (lines 5–6 of Algorithm 1).
#[derive(Debug, Clone)]
pub struct DamClient {
    grid: Grid2D,
    response: GridAreaResponse,
}

impl DamClient {
    /// Builds the client for a grid and kernel configuration.
    pub fn new(grid: Grid2D, config: &DamConfig) -> Self {
        let b_hat = config.resolve_b(grid.d());
        let kernel = config.variant.kernel(config.eps, grid.d(), b_hat);
        Self { grid, response: GridAreaResponse::new(kernel) }
    }

    /// The input grid.
    #[inline]
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// The kernel in use.
    #[inline]
    pub fn kernel(&self) -> &DiscreteKernel {
        self.response.kernel()
    }

    /// Randomizes one point into an output-grid cell index.
    #[inline]
    pub fn report(&self, point: Point, rng: &mut (impl rand::Rng + ?Sized)) -> CellIndex {
        self.response.respond(self.grid.cell_of(point), rng)
    }

    /// Randomizes every point and aggregates the noisy reports into a
    /// count buffer over the output grid (row-major, one whole-number
    /// entry per output cell), shard-parallel on the persistent worker
    /// pool.
    ///
    /// `master_seed` keys the per-shard SplitMix64 RNG streams, so the
    /// result is bit-identical for any `threads` value (including
    /// `Some(1)`, the sequential reference). Feed the buffer to
    /// [`DamAggregator::ingest_counts`].
    ///
    /// This is the validated loop under [`IngestPolicy::Clamp`] with the
    /// summary dropped: a finite point clamped onto the covered square
    /// lands in the same edge cell `Grid2D::cell_of` would pick, so the
    /// buffer matches the per-point [`DamClient::report`] reference bit for
    /// bit, while non-finite points are quarantined instead of inventing
    /// mass in a corner cell.
    pub fn report_batch(
        &self,
        points: &[Point],
        master_seed: u64,
        threads: Option<usize>,
    ) -> Vec<f64> {
        let mut scratch = Vec::new();
        self.report_batch_validated_in(
            points,
            master_seed,
            threads,
            IngestPolicy::Clamp,
            &mut scratch,
        );
        scratch
    }

    /// [`DamClient::report_batch`] with an ingest-validation stage in
    /// front of the randomizer and a caller-owned scratch allocation:
    /// every point is checked against the grid's covered square, malformed
    /// reports (non-finite coordinates, plus out-of-domain ones under
    /// [`IngestPolicy::Reject`]) are quarantined, and the returned
    /// [`IngestSummary`] accounts for every report. On return `scratch`
    /// holds exactly the merged output-grid counts, and its capacity is
    /// reused across calls — the per-epoch ingest path of a streaming
    /// estimator allocates nothing in steady state.
    ///
    /// Determinism guarantees, both bit-exact for any `threads` value:
    ///
    /// * quarantined points consume **no** randomness, so the valid
    ///   remainder of a batch reports exactly as if the garbage had never
    ///   arrived;
    /// * an all-valid batch reports exactly as the per-point
    ///   [`DamClient::report`] loop over the same shard streams.
    ///
    /// The per-shard seen/quarantined/clamped tallies ride the same
    /// shard-order merge as the counts (three tail slots per shard
    /// buffer), so the summary itself is thread-count independent too.
    pub fn report_batch_validated_in(
        &self,
        points: &[Point],
        master_seed: u64,
        threads: Option<usize>,
        policy: IngestPolicy,
        scratch: &mut Vec<f64>,
    ) -> IngestSummary {
        self.report_batch_validated_partition_in(
            points,
            master_seed,
            threads,
            policy,
            |_| true,
            scratch,
        )
    }

    /// [`DamClient::report_batch_validated_in`] restricted to the report
    /// shards `owns` accepts — the per-node ingest of a multi-node
    /// deployment.
    ///
    /// `owns` is called with the **global** shard index (the same
    /// [`crate::shard::shard_range`] layout as the single-node batch), so
    /// K aggregators running this over the same batch with *disjoint*
    /// shard ownership produce count planes whose cell-wise sum is
    /// **bit-identical** to the single-node
    /// [`DamClient::report_batch_validated_in`] of the whole batch under
    /// the same `master_seed`: every owned shard draws from exactly the
    /// stream the single-node run would hand it, unowned shards consume
    /// no randomness, and whole-number plane addition is exact in `f64`
    /// regardless of merge order. That linearity is the mergeability
    /// invariant distributed aggregation rests on (pinned by
    /// `dam-cluster`'s proptests).
    ///
    /// The returned summary tallies only the owned shards' reports;
    /// summaries from a disjoint node cover sum to the single-node one.
    pub fn report_batch_validated_partition_in<O>(
        &self,
        points: &[Point],
        master_seed: u64,
        threads: Option<usize>,
        policy: IngestPolicy,
        owns: O,
        scratch: &mut Vec<f64>,
    ) -> IngestSummary
    where
        O: Fn(usize) -> bool + Sync,
    {
        let od = self.kernel().out_d() as usize;
        let n = od * od;
        // Hoisted out of the per-point loop: recomputing the covered
        // square per report is what would push validation past its ~10%
        // throughput budget (the guard in `BENCH_reports.json`).
        let domain = covered_square(&self.grid);
        // Three meta slots per shard buffer (seen / quarantined / clamped):
        // the deterministic shard-order merge sums them exactly like count
        // cells, and the whole-number tallies stay exact in f64 far beyond
        // any realistic batch size. Tallies live in integer registers for
        // the duration of a shard and spill once.
        sharded_accumulate_in(
            points.len(),
            n + 3,
            master_seed,
            threads,
            scratch,
            |range, rng, buf| {
                if !owns(range.start / SHARD_SIZE) {
                    return;
                }
                let (mut quarantined, mut clamped) = (0u64, 0u64);
                buf[n] += range.len() as f64;
                for (i, &p) in points[range.clone()].iter().enumerate() {
                    let accepted = match check_point_in(&domain, policy, range.start + i, p) {
                        PointCheck::Accept(q) => q,
                        PointCheck::Clamped(q) => {
                            clamped += 1;
                            q
                        }
                        PointCheck::Quarantine(_) => {
                            quarantined += 1;
                            continue;
                        }
                    };
                    let noisy = self.response.respond(self.grid.cell_of(accepted), rng);
                    buf[noisy.iy as usize * od + noisy.ix as usize] += 1.0;
                }
                buf[n + 1] += quarantined as f64;
                buf[n + 2] += clamped as f64;
            },
        );
        let summary = IngestSummary {
            seen: scratch[n] as u64,
            quarantined: scratch[n + 1] as u64,
            clamped: scratch[n + 2] as u64,
        };
        scratch.truncate(n);
        summary
    }
}

/// Analyst-side state: accumulates noisy cells and runs PostProcess
/// (lines 7–8 of Algorithm 1).
#[derive(Debug, Clone)]
pub struct DamAggregator {
    kernel: DiscreteKernel,
    input_grid: Grid2D,
    counts: Vec<f64>,
    n_reports: u64,
}

impl DamAggregator {
    /// Builds an empty aggregator matching a client's kernel and grid.
    pub fn new(client: &DamClient) -> Self {
        let kernel = client.kernel().clone();
        let counts = vec![0.0; kernel.n_out()];
        Self { kernel, input_grid: client.grid().clone(), counts, n_reports: 0 }
    }

    /// Ingests one noisy report.
    pub fn ingest(&mut self, noisy: CellIndex) {
        let od = self.kernel.out_d();
        assert!(noisy.ix < od && noisy.iy < od, "report outside the output grid");
        self.counts[noisy.iy as usize * od as usize + noisy.ix as usize] += 1.0;
        self.n_reports += 1;
    }

    /// Merges a pre-aggregated count buffer (one whole-number entry per
    /// output cell, as produced by [`DamClient::report_batch`]) into the
    /// running noisy histogram.
    pub fn ingest_counts(&mut self, counts: &[f64]) {
        assert_eq!(counts.len(), self.counts.len(), "count buffer shape mismatch");
        let mut total = 0.0f64;
        for (acc, &c) in self.counts.iter_mut().zip(counts) {
            debug_assert!(c >= 0.0 && c.fract() == 0.0, "counts must be whole numbers");
            *acc += c;
            total += c;
        }
        self.n_reports += total as u64;
    }

    /// Validating counterpart of [`DamAggregator::ingest_counts`]: the
    /// buffer must match the output grid and hold only finite,
    /// non-negative entries, or the whole buffer is rejected with a
    /// structured [`IngestError`] and the running histogram is untouched.
    ///
    /// Use this on count planes that crossed a trust boundary (network
    /// transport, persisted spools, fault-injection harnesses); the
    /// panicking `ingest_counts` remains for buffers produced in-process
    /// by [`DamClient::report_batch`].
    pub fn try_ingest_counts(&mut self, counts: &[f64]) -> Result<(), IngestError> {
        check_counts(self.counts.len(), counts)?;
        let mut total = 0.0f64;
        for (acc, &c) in self.counts.iter_mut().zip(counts) {
            *acc += c;
            total += c;
        }
        self.n_reports += total as u64;
        Ok(())
    }

    /// Number of reports ingested so far.
    #[inline]
    pub fn n_reports(&self) -> u64 {
        self.n_reports
    }

    /// Runs PostProcess (plain EM on the kernel's spectral operator,
    /// [`DiscreteKernel::fft_channel`], split across up to `threads`
    /// threads; `None` = available parallelism) and returns the
    /// estimated distribution, bit-identical for any `threads`.
    pub fn estimate(&self, em: EmParams, threads: Option<usize>) -> Histogram2D {
        let channel = self.kernel.fft_channel(threads);
        let run = expectation_maximization(
            &channel,
            &self.counts,
            None,
            None,
            em,
            &mut EmWorkspace::new(),
        );
        Histogram2D::from_values(self.input_grid.clone(), run.estimate)
    }
}

/// The packaged estimator implementing [`SpatialEstimator`] for every SAM
/// variant.
#[derive(Debug, Clone, Copy)]
pub struct DamEstimator {
    config: DamConfig,
}

impl DamEstimator {
    /// Wraps a configuration.
    pub fn new(config: DamConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[inline]
    pub fn config(&self) -> &DamConfig {
        &self.config
    }
}

impl SpatialEstimator for DamEstimator {
    fn name(&self) -> String {
        self.config.variant.label().to_string()
    }

    fn estimate(&self, points: &[Point], grid: &Grid2D, rng: &mut dyn RngCore) -> Histogram2D {
        assert!(!points.is_empty(), "cannot estimate from zero points");
        let client = DamClient::new(grid.clone(), &self.config);
        let mut agg = DamAggregator::new(&client);
        // One draw keys every shard's stream: the caller's RNG advances
        // identically no matter how many threads execute the batch.
        let master_seed = rng.next_u64();
        agg.ingest_counts(&client.report_batch(points, master_seed, self.config.threads));
        agg.estimate(self.config.em, self.config.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_geo::BoundingBox;
    use rand::SeedableRng;

    fn cluster_points(center: Point, n: usize, spread: f64, seed: u64) -> Vec<Point> {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    (center.x + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
                    (center.y + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn pipeline_recovers_cluster_location() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(90);
        let grid = Grid2D::new(BoundingBox::unit(), 5);
        let points = cluster_points(Point::new(0.15, 0.85), 20_000, 0.05, 7);
        let est = DamEstimator::new(DamConfig::dam(4.0)).estimate(&points, &grid, &mut rng);
        // The true cluster lives in cell (0, 4); the estimate must put the
        // plurality of mass there.
        let peak = est.get(CellIndex::new(0, 4));
        assert!(peak > 0.4, "peak mass {peak}");
        assert!((est.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_variants_produce_valid_distributions() {
        let grid = Grid2D::new(BoundingBox::unit(), 4);
        let points = cluster_points(Point::new(0.5, 0.5), 3_000, 0.3, 8);
        for (i, cfg) in
            [DamConfig::dam(2.0), DamConfig::dam_ns(2.0), DamConfig::huem(2.0)].iter().enumerate()
        {
            let mut rng = rand::rngs::StdRng::seed_from_u64(91 + i as u64);
            let est = DamEstimator::new(*cfg).estimate(&points, &grid, &mut rng);
            assert!((est.total() - 1.0).abs() < 1e-9, "{:?}", cfg.variant);
            assert!(est.values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(DamEstimator::new(DamConfig::dam(1.0)).name(), "DAM");
        assert_eq!(DamEstimator::new(DamConfig::dam_ns(1.0)).name(), "DAM-NS");
        assert_eq!(DamEstimator::new(DamConfig::huem(1.0)).name(), "HUEM");
    }

    #[test]
    fn client_reports_and_aggregator_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(92);
        let grid = Grid2D::new(BoundingBox::unit(), 3);
        let cfg = DamConfig::dam(1.0);
        let client = DamClient::new(grid, &cfg);
        let mut agg = DamAggregator::new(&client);
        for k in 0..500 {
            let p = Point::new((k % 10) as f64 / 10.0, (k % 7) as f64 / 7.0);
            agg.ingest(client.report(p, &mut rng));
        }
        assert_eq!(agg.n_reports(), 500);
        let est = agg.estimate(EmParams::default(), None);
        assert!((est.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_b_override_is_used() {
        let grid = Grid2D::new(BoundingBox::unit(), 10);
        let cfg = DamConfig { b_hat: Some(4), ..DamConfig::dam(3.5) };
        let client = DamClient::new(grid, &cfg);
        assert_eq!(client.kernel().b_hat(), 4);
    }

    #[test]
    fn default_b_matches_radius_module() {
        let cfg = DamConfig::dam(3.5);
        assert_eq!(cfg.resolve_b(15), crate::radius::optimal_b_cells(3.5, 15));
    }

    #[test]
    fn validated_clean_batch_matches_unvalidated_path_bit_for_bit() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let client = DamClient::new(grid, &DamConfig::dam(2.0));
        let points = cluster_points(Point::new(0.4, 0.6), 4_000, 0.2, 11);
        for threads in [Some(1), Some(4)] {
            let plain = client.report_batch(&points, 0xC1EA, threads);
            let mut validated = Vec::new();
            let summary = client.report_batch_validated_in(
                &points,
                0xC1EA,
                threads,
                IngestPolicy::Reject,
                &mut validated,
            );
            assert_eq!(plain, validated);
            assert_eq!(summary.seen, points.len() as u64);
            assert_eq!(summary.quarantined, 0);
            assert_eq!(summary.clamped, 0);
        }
    }

    #[test]
    fn report_batch_counts_only_finite_points() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let client = DamClient::new(grid, &DamConfig::dam(2.0));
        let mut points = cluster_points(Point::new(0.4, 0.6), 3_000, 0.2, 13);
        let finite = points.len();
        for k in 0..12 {
            let garbage = match k % 3 {
                0 => Point::new(f64::NAN, 0.5),
                1 => Point::new(0.5, f64::INFINITY),
                _ => Point::new(f64::NEG_INFINITY, f64::NAN),
            };
            points.insert(k * 200, garbage);
        }
        for threads in [Some(1), Some(4)] {
            let counts = client.report_batch(&points, 0xBAD, threads);
            assert_eq!(counts.iter().sum::<f64>(), finite as f64, "threads {threads:?}");
        }
    }

    #[test]
    fn validated_batch_quarantines_garbage_and_stays_deterministic() {
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let client = DamClient::new(grid, &DamConfig::dam(2.0));
        let mut points = cluster_points(Point::new(0.4, 0.6), 2_000, 0.2, 12);
        // Interleave malformed reports through the batch: non-finite
        // coordinates (always quarantined) and finite out-of-domain points
        // (policy-dependent).
        for k in 0..10 {
            points.insert(k * 150, Point::new(f64::NAN, 0.5));
            points.insert(k * 151 + 7, Point::new(5.0, -2.0));
        }
        let mut rejected = Vec::new();
        let s_rej = client.report_batch_validated_in(
            &points,
            9,
            Some(2),
            IngestPolicy::Reject,
            &mut rejected,
        );
        assert_eq!(s_rej.seen, points.len() as u64);
        assert_eq!(s_rej.quarantined, 20);
        assert_eq!(s_rej.clamped, 0);
        assert_eq!(rejected.iter().sum::<f64>(), s_rej.accepted() as f64);

        let mut clamped = Vec::new();
        let s_cl = client.report_batch_validated_in(
            &points,
            9,
            Some(2),
            IngestPolicy::Clamp,
            &mut clamped,
        );
        assert_eq!(s_cl.quarantined, 10, "only the non-finite reports");
        assert_eq!(s_cl.clamped, 10);

        // Bit-identical across thread counts, like every pipeline path.
        for (threads, policy, expect) in [
            (Some(1), IngestPolicy::Reject, &rejected),
            (Some(4), IngestPolicy::Reject, &rejected),
            (Some(1), IngestPolicy::Clamp, &clamped),
            (Some(4), IngestPolicy::Clamp, &clamped),
        ] {
            let mut again = Vec::new();
            let s = client.report_batch_validated_in(&points, 9, threads, policy, &mut again);
            assert_eq!(&again, expect);
            assert_eq!(s.seen, points.len() as u64);
        }
    }

    #[test]
    fn try_ingest_counts_rejects_bad_planes_without_mutation() {
        let grid = Grid2D::new(BoundingBox::unit(), 3);
        let client = DamClient::new(grid, &DamConfig::dam(1.0));
        let mut agg = DamAggregator::new(&client);
        let n = client.kernel().n_out();

        assert!(matches!(
            agg.try_ingest_counts(&vec![0.0; n - 1]),
            Err(IngestError::ShapeMismatch { .. })
        ));
        let mut bad = vec![1.0; n];
        bad[2] = f64::NAN;
        assert_eq!(agg.try_ingest_counts(&bad), Err(IngestError::NonFiniteCount { cell: 2 }));
        bad[2] = -1.0;
        assert_eq!(agg.try_ingest_counts(&bad), Err(IngestError::NegativeCount { cell: 2 }));
        assert_eq!(agg.n_reports(), 0, "rejected planes must not count");

        let good = vec![2.0; n];
        assert_eq!(agg.try_ingest_counts(&good), Ok(()));
        assert_eq!(agg.n_reports(), 2 * n as u64);
    }
}
