//! The 2-D smoother of the PostProcess step of Algorithm 1.
//!
//! PostProcess itself is plain EM (reference \[6\]'s estimator, which the
//! paper adopts): [`dam_fo::em::expectation_maximization`] over the
//! kernel's spectral operator ([`crate::conv::FftChannel`]), run one-shot
//! by [`crate::DamAggregator::estimate`] and per window by `dam-stream`.
//! [`smooth_2d`] is the 2-D analogue of SW-EMS's `[1,2,1]/4`: the
//! streaming warm seed diffuses the previous window's estimate with it,
//! and passed as `expectation_maximization`'s `smoother` it turns EM into
//! EMS.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::KernelKind;
    use crate::kernel::DiscreteKernel;
    use crate::response::GridAreaResponse;
    use dam_fo::em::{expectation_maximization, ChannelOp, EmParams, EmWorkspace};
    use dam_geo::{BoundingBox, CellIndex, Grid2D, Histogram2D};
    use rand::SeedableRng;

    /// One cold EM run on the kernel's spectral operator; `smoother`
    /// `None` is plain EM, `Some(smooth_2d)` is EMS.
    fn one_shot(
        k: &DiscreteKernel,
        counts: &[f64],
        grid: &Grid2D,
        smoother: Option<&dyn Fn(&mut [f64])>,
    ) -> Histogram2D {
        let run = expectation_maximization(
            &k.fft_channel(None),
            counts,
            None,
            smoother,
            EmParams::default(),
            &mut EmWorkspace::new(),
        );
        Histogram2D::from_values(grid.clone(), run.estimate)
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
        let est = one_shot(&kernel, &counts, &grid, None);
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
        let est = one_shot(&kernel, &counts, &grid, Some(&|f: &mut [f64]| smooth_2d(4, f)));
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
        let channel = client.kernel().fft_channel(None);
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
