//! Privacy-guarantee integration tests: every reporting channel in the
//! workspace is audited against its claimed bound, both analytically (on
//! kernel masses) and empirically (on sampled reports).

use spatial_ldp::core::grid::KernelKind;
use spatial_ldp::core::kernel::DiscreteKernel;
use spatial_ldp::core::radius::optimal_b_cells;
use spatial_ldp::core::response::GridAreaResponse;
use spatial_ldp::fo::{Grr, Oue, SquareWave};
use spatial_ldp::geo::rng::seeded;
use spatial_ldp::geo::CellIndex;
use spatial_ldp::privacy::audit::ldp_audit;

fn audit_kernel(kernel: &DiscreteKernel, eps: f64) {
    let d = kernel.d() as usize;
    let out_d = kernel.out_d() as usize;
    let pr = |o: usize, i: usize| {
        kernel.mass(
            CellIndex::new((i % d) as u32, (i / d) as u32),
            CellIndex::new((o % out_d) as u32, (o / out_d) as u32),
        )
    };
    let report = ldp_audit(d * d, out_d * out_d, &pr, eps);
    assert!(
        report.holds(),
        "kernel eps={eps} d={d}: worst loss {} exceeds {eps}",
        report.worst_loss
    );
}

#[test]
fn every_sam_kernel_respects_its_budget() {
    for &eps in &[0.7, 2.1, 3.5, 9.0] {
        for &d in &[3u32, 8, 15] {
            let b = optimal_b_cells(eps, d);
            for kind in
                [KernelKind::Shrunken, KernelKind::NonShrunken, KernelKind::ExactIntersection]
            {
                audit_kernel(&DiscreteKernel::dam(eps, d, b, kind), eps);
            }
            audit_kernel(&DiscreteKernel::huem(eps, d, b), eps);
        }
    }
}

#[test]
fn empirical_response_frequencies_respect_budget() {
    // Sample GridAreaResponse heavily for two adjacent inputs and verify
    // the observed frequency ratios stay under e^eps (with sampling
    // slack). This is the black-box version of the analytic audit.
    let mut rng = seeded(2000);
    let eps = 1.0;
    let kernel = DiscreteKernel::dam(eps, 4, 2, KernelKind::Shrunken);
    let out_d = kernel.out_d() as usize;
    let resp = GridAreaResponse::new(kernel);
    let trials = 300_000;
    let mut freq = [vec![0.0f64; out_d * out_d], vec![0.0f64; out_d * out_d]];
    for (slot, &input) in [CellIndex::new(1, 1), CellIndex::new(2, 1)].iter().enumerate() {
        for _ in 0..trials {
            let o = resp.respond(input, &mut rng);
            freq[slot][o.iy as usize * out_d + o.ix as usize] += 1.0;
        }
    }
    let bound = eps.exp() * 1.25;
    for c in 0..out_d * out_d {
        let (a, b) = (freq[0][c], freq[1][c]);
        if a > 200.0 && b > 200.0 {
            let ratio = (a / b).max(b / a);
            assert!(ratio < bound, "cell {c}: empirical ratio {ratio}");
        }
    }
}

#[test]
fn one_dimensional_oracles_respect_budget() {
    let eps = 1.5;
    // GRR: closed-form ratio.
    let grr = Grr::new(12, eps);
    assert!(grr.p() / grr.q() <= eps.exp() * (1.0 + 1e-12));

    // OUE: the per-bit ratio bound (1/2)/(q) = (e^eps+1)/2 and
    // (1-q)/(1/2) compose to eps across the two bit flips.
    let oue = Oue::new(12, eps);
    let bit_ratio = 0.5 / oue.q();
    let neg_ratio = (1.0 - oue.q()) / 0.5;
    assert!(bit_ratio * neg_ratio <= eps.exp() * (1.0 + 1e-9));

    // SW: wave density ratio.
    let sw = SquareWave::new(eps);
    assert!(sw.p() / sw.q() <= eps.exp() * (1.0 + 1e-12));
}

#[test]
fn post_processing_cannot_degrade_privacy() {
    // Post-processing invariance sanity: the EM estimate is a function of
    // the noisy counts only; rerunning it with a different post-processor
    // (EMS: the EM loop with the 2-D smoother) touches no raw data.
    // Structurally verified by the aggregator API — here we check the
    // estimate changes while inputs stay fixed.
    use spatial_ldp::core::em2d::smooth_2d;
    use spatial_ldp::core::{DamAggregator, DamClient, DamConfig};
    use spatial_ldp::fo::em::{expectation_maximization, EmParams, EmWorkspace};
    use spatial_ldp::geo::{BoundingBox, Grid2D, Point};

    let mut rng = seeded(2010);
    let grid = Grid2D::new(BoundingBox::unit(), 4);
    let client = DamClient::new(grid, &DamConfig::dam(1.0));
    let od = client.kernel().out_d() as usize;
    let mut counts = vec![0.0; client.kernel().n_out()];
    for i in 0..5000 {
        let p = Point::new((i % 17) as f64 / 17.0, (i % 23) as f64 / 23.0);
        let noisy = client.report(p, &mut rng);
        counts[noisy.iy as usize * od + noisy.ix as usize] += 1.0;
    }
    let mut agg = DamAggregator::new(&client);
    agg.ingest_counts(&counts);
    let em = agg.estimate(EmParams::default(), None);
    let smoother = |f: &mut [f64]| smooth_2d(4, f);
    let ems = expectation_maximization(
        &client.kernel().fft_channel(None),
        &counts,
        None,
        Some(&smoother),
        EmParams::default(),
        &mut EmWorkspace::new(),
    )
    .estimate;
    // Same reports, two estimates — both valid distributions.
    assert!((em.total() - 1.0).abs() < 1e-9);
    assert!((ems.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert_ne!(em.values(), &ems[..]);
}
