//! Shared evaluation context: dataset access, truth histograms and the W₂
//! measurement protocol of §VII-B.

use crate::cli::CliArgs;
use dam_core::SpatialEstimator;
use dam_data::{load, DatasetKind, DatasetPart, SpatialDataset};
use dam_geo::rng::derived;
use dam_geo::{Grid2D, Histogram2D};
use dam_transport::exact::TransportError;
use dam_transport::metrics::w2;
use dam_transport::SinkhornParams;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Evaluation configuration plus dataset cache.
pub struct EvalContext {
    /// Experiment seed (datasets and mechanism randomness derive from it).
    pub seed: u64,
    /// Averaging repetitions.
    pub repeats: usize,
    /// Optional cap on users per dataset part.
    pub user_cap: Option<usize>,
    /// Settings for the grid-separable Sinkhorn solver (the large-grid
    /// regime; the exact LP ignores them).
    pub sinkhorn: SinkhornParams,
    /// Monte-Carlo samples for Local-Privacy calibration.
    pub lp_samples: usize,
    /// Skip LP calibration (use ε as ε′ directly).
    pub no_calib: bool,
    /// Worker threads (`--threads`; `None` = available parallelism) for
    /// the job runner and every mechanism's sharded report pipeline and
    /// split spectral EM, all on the one persistent pool. Estimates are bit-identical for any
    /// value.
    pub threads: Option<usize>,
    datasets: Arc<Mutex<BTreeMap<DatasetKind, Arc<SpatialDataset>>>>,
}

impl EvalContext {
    /// Builds a context from parsed CLI arguments.
    pub fn from_args(args: &CliArgs) -> Self {
        Self {
            seed: args.seed,
            repeats: args.repeats,
            user_cap: args.users,
            sinkhorn: SinkhornParams {
                reg_rel: 1e-3,
                max_iters: 400,
                tol: 1e-8,
                ..SinkhornParams::default()
            },
            lp_samples: if args.fast { 400 } else { 1200 },
            no_calib: args.no_calib,
            threads: args.threads,
            datasets: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Loads (and caches) a dataset for this context's seed.
    pub fn dataset(&self, kind: DatasetKind) -> Arc<SpatialDataset> {
        let mut cache = self.datasets.lock();
        cache.entry(kind).or_insert_with(|| Arc::new(load(kind, self.seed))).clone()
    }

    /// `W₂(a, b)` in cell units under this context's Sinkhorn tuning.
    /// The one-shot figure binaries measure W₂ only through this: [`w2`]
    /// owns the size switch between the exact LP and the grid solver,
    /// which looks at the *actual* nonzero supports, so harnesses must
    /// not re-derive it from `d²` (a predicted support).
    pub fn w2(&self, a: &Histogram2D, b: &Histogram2D) -> Result<f64, TransportError> {
        w2(a, b, self.sinkhorn)
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
        let mut acc = 0.0;
        for rep in 0..self.repeats {
            let mut rng = derived(self.seed, stream ^ (0x5151_0000 + rep as u64));
            let est = mech.estimate(points, &grid, &mut rng).normalized();
            acc += self.w2(&est, &truth).expect("W2 computation failed");
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
