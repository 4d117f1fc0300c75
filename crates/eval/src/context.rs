//! Shared evaluation context: dataset access, truth histograms and the W₂
//! measurement protocol of §VII-B.

use crate::cli::CliArgs;
use dam_core::{EmBackend, SpatialEstimator};
use dam_data::{load, DatasetKind, DatasetPart, SpatialDataset};
use dam_geo::rng::derived;
use dam_geo::{Grid2D, Histogram2D};
use dam_transport::metrics::{w2, W2Solver, WassersteinMethod};
use dam_transport::SinkhornParams;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation configuration plus dataset cache.
#[derive(Clone)]
pub struct EvalContext {
    /// Experiment seed (datasets and mechanism randomness derive from it).
    pub seed: u64,
    /// Averaging repetitions.
    pub repeats: usize,
    /// Optional cap on users per dataset part.
    pub user_cap: Option<usize>,
    /// Largest support solved with the exact LP; larger runs an
    /// entropic solver — the paper's own size-based switch.
    pub exact_limit: usize,
    /// Sinkhorn settings for the large-grid regime (shared by the dense
    /// and grid-separable solvers).
    pub sinkhorn: SinkhornParams,
    /// W₂ solver selection (`--w2-solver`; `Auto` dispatches by size).
    pub w2_solver: W2Solver,
    /// Monte-Carlo samples for Local-Privacy calibration.
    pub lp_samples: usize,
    /// Skip LP calibration (use ε as ε′ directly).
    pub no_calib: bool,
    /// EM operator used by SAM-family mechanisms (`--em-backend`; `Auto`
    /// unless a path is pinned explicitly).
    pub em_backend: EmBackend,
    /// Worker threads for the job runner and every mechanism's sharded
    /// report pipeline (`None` = available parallelism). Estimates are
    /// bit-identical for any value.
    pub threads: Option<usize>,
    datasets: Arc<Mutex<HashMap<DatasetKind, Arc<SpatialDataset>>>>,
}

impl EvalContext {
    /// Builds a context from parsed CLI arguments.
    pub fn from_args(args: &CliArgs) -> Self {
        Self {
            seed: args.seed,
            repeats: args.repeats,
            user_cap: args.users,
            // Measured on this substrate: the transportation simplex solves
            // 400-support (d = 20) instances in ~0.5 s — faster *and*
            // unbiased vs Sinkhorn — so every paper-scale figure runs the
            // exact LP. Sinkhorn remains available for larger grids.
            exact_limit: 400,
            sinkhorn: SinkhornParams {
                reg_rel: 1e-3,
                max_iters: 400,
                tol: 1e-8,
                ..SinkhornParams::default()
            },
            w2_solver: args.w2_solver,
            lp_samples: if args.fast { 400 } else { 1200 },
            no_calib: args.no_calib,
            em_backend: args.em_backend,
            threads: args.threads,
            datasets: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// A copy of this context with a different report-pipeline thread
    /// count (the dataset cache is shared with the original).
    pub fn with_threads(&self, threads: Option<usize>) -> Self {
        Self { threads, ..self.clone() }
    }

    /// Loads (and caches) a dataset for this context's seed.
    pub fn dataset(&self, kind: DatasetKind) -> Arc<SpatialDataset> {
        let mut cache = self.datasets.lock();
        cache.entry(kind).or_insert_with(|| Arc::new(load(kind, self.seed))).clone()
    }

    /// The configured W₂ solver as a [`WassersteinMethod`], carrying
    /// this context's Sinkhorn tuning and thread budget. This is the
    /// **only** dispatch point: figure binaries pass it straight to
    /// [`w2`], which owns the size-based `Auto` resolution — harnesses
    /// must not re-derive the switch from `d²` (a predicted support),
    /// because the library switches on the *actual* nonzero support.
    pub fn w2_method(&self) -> WassersteinMethod {
        let sinkhorn = SinkhornParams { threads: self.threads, ..self.sinkhorn };
        self.w2_solver.method(self.exact_limit, sinkhorn)
    }

    /// A dataset part's points under this context's `--users` cap
    /// (prefix-truncation, the paper's subsampling protocol) — the one
    /// place cap semantics live, shared by every figure binary.
    pub fn capped_points<'a>(&self, part: &'a DatasetPart) -> &'a [dam_geo::Point] {
        match self.user_cap {
            Some(cap) if part.points.len() > cap => &part.points[..cap],
            _ => &part.points,
        }
    }

    /// Runs one mechanism on one dataset part at resolution `d` and
    /// returns `W₂(recovered, actual)` in cell units, averaged over
    /// `repeats` runs with independent derived RNGs.
    pub fn part_w2(
        &self,
        part: &DatasetPart,
        mech: &dyn SpatialEstimator,
        d: u32,
        stream: u64,
    ) -> f64 {
        let grid = Grid2D::new(part.bbox, d);
        let points = self.capped_points(part);
        let truth = Histogram2D::from_points(grid.clone(), points).normalized();
        let method = self.w2_method();
        let mut acc = 0.0;
        for rep in 0..self.repeats {
            let mut rng = derived(self.seed, stream ^ (0x5151_0000 + rep as u64));
            let est = mech.estimate(points, &grid, &mut rng).normalized();
            acc += w2(&est, &truth, method).expect("W2 computation failed");
        }
        acc / self.repeats as f64
    }

    /// Mean W₂ over a dataset's parts (the paper's aggregation for the
    /// Crime/NYC A/B/C splits).
    pub fn dataset_w2(
        &self,
        kind: DatasetKind,
        mech: &dyn SpatialEstimator,
        d: u32,
        stream: u64,
    ) -> f64 {
        let ds = self.dataset(kind);
        let mut acc = 0.0;
        for (i, part) in ds.parts.iter().enumerate() {
            acc += self.part_w2(part, mech, d, stream ^ ((i as u64 + 1) << 32));
        }
        acc / ds.parts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_core::{DamConfig, DamEstimator};

    fn fast_ctx() -> EvalContext {
        let args = CliArgs {
            repeats: 1,
            users: Some(4000),
            seed: 7,
            fast: true,
            no_calib: true,
            ..CliArgs::default()
        };
        EvalContext::from_args(&args)
    }

    #[test]
    fn dataset_cache_returns_same_instance() {
        let ctx = fast_ctx();
        let a = ctx.dataset(DatasetKind::SZipf);
        let b = ctx.dataset(DatasetKind::SZipf);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn part_w2_is_finite_and_reasonable() {
        let ctx = fast_ctx();
        let ds = ctx.dataset(DatasetKind::SZipf);
        let mech = DamEstimator::new(DamConfig::dam(3.5));
        let w = ctx.part_w2(&ds.parts[0], &mech, 4, 1);
        assert!(w.is_finite() && (0.0..6.0).contains(&w), "w2 {w}");
    }

    #[test]
    fn more_budget_gives_lower_error() {
        let ctx = fast_ctx();
        let ds = ctx.dataset(DatasetKind::Normal);
        let lo = ctx.part_w2(&ds.parts[0], &DamEstimator::new(DamConfig::dam(0.7)), 4, 2);
        let hi = ctx.part_w2(&ds.parts[0], &DamEstimator::new(DamConfig::dam(6.0)), 4, 2);
        assert!(hi < lo, "eps 6 ({hi}) should beat eps 0.7 ({lo})");
    }
}
