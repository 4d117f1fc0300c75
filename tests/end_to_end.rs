//! End-to-end integration tests spanning every crate: dataset → mechanism
//! → metric, exercising the same pipeline the experiment harness drives.

use spatial_ldp::baselines::{CfoEstimator, CfoFlavor, Mdsw, SemGeoI};
use spatial_ldp::core::{DamConfig, DamEstimator, SpatialEstimator};
use spatial_ldp::data::synthetic::{mnormal_dataset, normal_dataset};
use spatial_ldp::data::{load, DatasetKind};
use spatial_ldp::geo::rng::{derived, seeded};
use spatial_ldp::geo::{BoundingBox, Grid2D, Histogram2D, Point};
use spatial_ldp::transport::metrics::w2;

fn truth_of(points: &[Point], grid: &Grid2D) -> Histogram2D {
    Histogram2D::from_points(grid.clone(), points).normalized()
}

#[test]
fn dam_beats_categorical_oracle_on_spatial_data() {
    let mut rng = seeded(1000);
    let points = normal_dataset(60_000, &mut rng);
    let bbox = BoundingBox::of_points(&points).unwrap();
    let grid = Grid2D::new(bbox, 6);
    let truth = truth_of(&points, &grid);
    let eps = 1.0;
    let mut r1 = derived(1001, 0);
    let mut r2 = derived(1001, 1);
    let dam = DamEstimator::new(DamConfig::dam(eps)).estimate(&points, &grid, &mut r1);
    let cfo = CfoEstimator::new(eps, CfoFlavor::Grr).estimate(&points, &grid, &mut r2);
    let w_dam = w2(&dam, &truth).unwrap();
    let w_cfo = w2(&cfo, &truth).unwrap();
    assert!(
        w_dam < w_cfo,
        "DAM ({w_dam}) must beat the ordinal-blind CFO ({w_cfo}) at eps = {eps}"
    );
}

#[test]
fn dam_beats_mdsw_on_correlated_data() {
    // The paper's headline: "DAM always performs better than MDSW".
    let mut rng = seeded(1010);
    let points = mnormal_dataset(60_000, &mut rng);
    let bbox = BoundingBox::of_points(&points).unwrap();
    let grid = Grid2D::new(bbox, 5);
    let truth = truth_of(&points, &grid);
    for (i, eps) in [1.4f64, 3.5].into_iter().enumerate() {
        let mut r1 = derived(1011, i as u64);
        let mut r2 = derived(1012, i as u64);
        let dam = DamEstimator::new(DamConfig::dam(eps)).estimate(&points, &grid, &mut r1);
        let mdsw = Mdsw::new(eps).estimate(&points, &grid, &mut r2);
        let w_dam = w2(&dam, &truth).unwrap();
        let w_mdsw = w2(&mdsw, &truth).unwrap();
        assert!(w_dam < w_mdsw, "eps {eps}: DAM ({w_dam}) must beat MDSW ({w_mdsw})");
    }
}

#[test]
fn error_decreases_with_privacy_budget() {
    let mut rng = seeded(1020);
    let points = normal_dataset(50_000, &mut rng);
    let bbox = BoundingBox::of_points(&points).unwrap();
    let grid = Grid2D::new(bbox, 5);
    let truth = truth_of(&points, &grid);
    let mut prev = f64::INFINITY;
    for (i, eps) in [0.7f64, 2.1, 6.0].into_iter().enumerate() {
        let mut r = derived(1021, i as u64);
        let est = DamEstimator::new(DamConfig::dam(eps)).estimate(&points, &grid, &mut r);
        let w = w2(&est, &truth).unwrap();
        assert!(w < prev + 0.02, "eps {eps}: W2 {w} did not improve on {prev}");
        prev = w;
    }
    // At a generous budget the estimate is close to the truth.
    assert!(prev < 0.25, "eps 6 error {prev} too large");
}

#[test]
fn error_decreases_with_population() {
    let mut rng = seeded(1030);
    let all = normal_dataset(120_000, &mut rng);
    let bbox = BoundingBox::of_points(&all).unwrap();
    let grid = Grid2D::new(bbox, 5);
    let eps = 1.0;
    let mut errs = Vec::new();
    for (i, n) in [3_000usize, 120_000].into_iter().enumerate() {
        let subset = &all[..n];
        let truth = truth_of(subset, &grid);
        let mut r = derived(1031, i as u64);
        let est = DamEstimator::new(DamConfig::dam(eps)).estimate(subset, &grid, &mut r);
        errs.push(w2(&est, &truth).unwrap());
    }
    assert!(errs[1] < errs[0], "120k users ({}) must beat 3k users ({})", errs[1], errs[0]);
}

#[test]
fn pipeline_is_deterministic_for_fixed_seed() {
    let points = load(DatasetKind::SZipf, 4).parts[0].points[..20_000].to_vec();
    let grid = Grid2D::new(BoundingBox::unit(), 4);
    let run = || {
        let mut r = seeded(77);
        DamEstimator::new(DamConfig::dam(2.0)).estimate(&points, &grid, &mut r)
    };
    assert_eq!(run().values(), run().values());
}

#[test]
fn all_mechanisms_agree_on_interface_contract() {
    // Every estimator returns a normalized histogram on the input grid.
    let points = load(DatasetKind::SZipf, 5).parts[0].points[..10_000].to_vec();
    let grid = Grid2D::new(BoundingBox::unit(), 4);
    let mechanisms: Vec<Box<dyn SpatialEstimator>> = vec![
        Box::new(DamEstimator::new(DamConfig::dam(1.5))),
        Box::new(DamEstimator::new(DamConfig::dam_ns(1.5))),
        Box::new(DamEstimator::new(DamConfig::huem(1.5))),
        Box::new(Mdsw::new(1.5)),
        Box::new(SemGeoI::new(1.5)),
        Box::new(CfoEstimator::new(1.5, CfoFlavor::Oue)),
    ];
    for (i, mech) in mechanisms.iter().enumerate() {
        let mut r = derived(1040, i as u64);
        let est = mech.estimate(&points, &grid, &mut r);
        assert_eq!(est.grid().d(), 4, "{}", mech.name());
        assert!((est.total() - 1.0).abs() < 1e-9, "{}", mech.name());
        assert!(est.values().iter().all(|&v| v >= 0.0), "{}", mech.name());
        let w = w2(&est, &truth_of(&points, &grid)).unwrap();
        assert!(w.is_finite() && w < 8.0, "{}: unreasonable W2 {w}", mech.name());
    }
}

#[test]
fn city_datasets_expose_shrinkage_advantage_signal() {
    // On road-network-like data the shrunken kernel's mixed-cell handling
    // changes the estimate measurably (the DAM vs DAM-NS comparison the
    // paper runs); here we only require the two estimates to differ and
    // both to be sane.
    let crime = load(DatasetKind::Crime, 6);
    let part = &crime.parts[2]; // smallest part for speed
    let grid = Grid2D::new(part.bbox, 10);
    let truth = truth_of(&part.points, &grid);
    let mut r1 = derived(1050, 0);
    let mut r2 = derived(1050, 1);
    let dam = DamEstimator::new(DamConfig::dam(3.5)).estimate(&part.points, &grid, &mut r1);
    let ns = DamEstimator::new(DamConfig::dam_ns(3.5)).estimate(&part.points, &grid, &mut r2);
    let (w_dam, w_ns) = (w2(&dam, &truth).unwrap(), w2(&ns, &truth).unwrap());
    assert!(w_dam.is_finite() && w_ns.is_finite());
    assert!(dam.values() != ns.values(), "shrinkage must change the estimate");
}
