//! Mechanism factory with Local-Privacy calibration caching.

use crate::context::EvalContext;
use dam_baselines::{CfoEstimator, CfoFlavor, Mdsw, SemGeoI};
use dam_core::{DamConfig, DamEstimator, SpatialEstimator};
use dam_geo::rng::derived;
use dam_privacy::lp::{calibrate_sem_epsilon, lp_dam};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A mechanism selector, resolved to a concrete estimator per `(ε, d)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MechSpec {
    /// The paper's DAM (shrunken kernel, optimal b̌).
    Dam,
    /// DAM with an explicit radius multiplier on b̌ (Figure 8).
    DamWithBFactor(f64),
    /// DAM without shrinkage.
    DamNs,
    /// HUEM.
    Huem,
    /// Multi-dimensional Square Wave.
    Mdsw,
    /// SEM-Geo-I with LP-calibrated ε′ (the paper's protocol).
    Sem,
    /// Categorical frequency oracle (GRR flavour).
    CfoGrr,
}

impl MechSpec {
    /// The five mechanisms of Figures 9(a–e)/(k–o), in legend order.
    pub const FIGURE9_ALL: [MechSpec; 5] =
        [MechSpec::Sem, MechSpec::Mdsw, MechSpec::Huem, MechSpec::Dam, MechSpec::DamNs];

    /// The two mechanisms of Figures 9(f–j)/(p–t).
    pub const FIGURE9_LARGE: [MechSpec; 2] = [MechSpec::Sem, MechSpec::Dam];

    /// Display label (matches the paper's legends).
    pub fn label(&self) -> String {
        match self {
            MechSpec::Dam => "DAM".into(),
            MechSpec::DamWithBFactor(f) => format!("DAM(b={f:.2}b̌)"),
            MechSpec::DamNs => "DAM-NS".into(),
            MechSpec::Huem => "HUEM".into(),
            MechSpec::Mdsw => "MDSW".into(),
            MechSpec::Sem => "SEM-Geo-I".into(),
            MechSpec::CfoGrr => "CFO-GRR".into(),
        }
    }

    /// Builds the estimator for a privacy budget and grid resolution.
    pub fn build(
        &self,
        eps: f64,
        d: u32,
        ctx: &EvalContext,
    ) -> Box<dyn SpatialEstimator + Send + Sync> {
        // Every SAM-family estimator inherits the context's
        // report-pipeline thread count.
        let sam = |config: DamConfig| {
            Box::new(DamEstimator::new(DamConfig { threads: ctx.threads, ..config }))
        };
        match self {
            MechSpec::Dam => sam(DamConfig::dam(eps)),
            MechSpec::DamWithBFactor(f) => {
                let b_opt = dam_core::radius::optimal_b_cells(eps, d);
                let b = ((b_opt as f64 * f).round() as u32).max(1);
                sam(DamConfig { b_hat: Some(b), ..DamConfig::dam(eps) })
            }
            MechSpec::DamNs => sam(DamConfig::dam_ns(eps)),
            MechSpec::Huem => sam(DamConfig::huem(eps)),
            MechSpec::Mdsw => Box::new(Mdsw::new(eps).with_threads(ctx.threads)),
            MechSpec::Sem => {
                Box::new(SemGeoI::new(sem_epsilon(eps, d, ctx)).with_threads(ctx.threads))
            }
            MechSpec::CfoGrr => {
                Box::new(CfoEstimator::new(eps, CfoFlavor::Grr).with_threads(ctx.threads))
            }
        }
    }
}

/// Cache of calibrated SEM budgets keyed by `(eps·1000, d, samples)`.
fn calib_cache() -> &'static Mutex<BTreeMap<(u64, u32, usize), f64>> {
    static CACHE: OnceLock<Mutex<BTreeMap<(u64, u32, usize), f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Resolves the SEM-Geo-I budget ε′ for an LDP budget ε on a `d × d`
/// grid: equal Local Privacy per §VII-B, cached per configuration.
/// With `ctx.no_calib` the raw ε is used directly.
pub fn sem_epsilon(eps: f64, d: u32, ctx: &EvalContext) -> f64 {
    if ctx.no_calib || d == 1 {
        return eps;
    }
    let key = ((eps * 1000.0).round() as u64, d, ctx.lp_samples);
    if let Some(&v) = calib_cache().lock().get(&key) {
        return v;
    }
    let b = dam_core::radius::optimal_b_cells(eps, d);
    let kernel =
        dam_core::kernel::DiscreteKernel::dam(eps, d, b, dam_core::grid::KernelKind::Shrunken);
    let target = lp_dam(&kernel);
    let mut rng = derived(ctx.seed, 0xCA11_B000 + d as u64);
    let eps_sem = calibrate_sem_epsilon(target, d, ctx.lp_samples, &mut rng);
    calib_cache().lock().insert(key, eps_sem);
    eps_sem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::CliArgs;

    fn ctx(no_calib: bool) -> EvalContext {
        EvalContext::from_args(&CliArgs { no_calib, ..CliArgs::default() })
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MechSpec::Dam.label(), "DAM");
        assert_eq!(MechSpec::Sem.label(), "SEM-Geo-I");
        assert_eq!(MechSpec::FIGURE9_ALL.len(), 5);
    }

    #[test]
    fn no_calib_passes_eps_through() {
        assert_eq!(sem_epsilon(2.5, 5, &ctx(true)), 2.5);
    }

    #[test]
    fn calibration_is_cached_and_positive() {
        let c = ctx(false);
        let a = sem_epsilon(3.5, 3, &c);
        let b = sem_epsilon(3.5, 3, &c);
        assert_eq!(a, b, "second lookup must come from the cache");
        assert!(a > 0.0 && a.is_finite());
    }

    #[test]
    fn builders_produce_named_mechanisms() {
        let c = ctx(true);
        for spec in [MechSpec::Dam, MechSpec::DamNs, MechSpec::Huem, MechSpec::Mdsw] {
            let m = spec.build(1.0, 4, &c);
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn b_factor_scales_radius() {
        let c = ctx(true);
        // b̌(3.5, 15) = 3; factor 1.67 → 5.
        let m = MechSpec::DamWithBFactor(1.67).build(3.5, 15, &c);
        assert_eq!(m.name(), "DAM");
        let b_opt = dam_core::radius::optimal_b_cells(3.5, 15);
        assert_eq!(((b_opt as f64) * 1.67).round() as u32, 5);
    }
}
