//! Exact privacy audit of the report sampler as it runs, not of the
//! analytic kernel it approximates (the numerical-verification approach of
//! Han & Martínez). `GridAreaResponse::realized_masses` counts, exactly,
//! how many of the 2⁶⁴ alias draws reach each outcome (a box offset or an
//! output cell of the floor), and the channel `u[o] + δ[o − i]` they make
//! goes through the same `ldp_audit` as the analytic kernels, over the
//! paper's ε grid and three grid sizes, for DAM, DAM-NS and HUEM.

use dam_core::grid::KernelKind;
use dam_core::kernel::DiscreteKernel;
use dam_core::radius::optimal_b_cells;
use dam_core::response::GridAreaResponse;
use dam_geo::CellIndex;
use dam_privacy::audit::ldp_audit;

/// Largest |realized − analytic| allowed for any outcome, relative to the
/// kernel's largest mass. The realized channel differs from the kernel
/// only by the alias table's `f64` rounding and the 53-bit coin, both
/// near 2⁻⁵³ per slot.
const REL_TOL: f64 = 1e-12;

#[test]
fn realized_channel_passes_ldp_audit() {
    let (mut worst_excess, mut worst_gap) = (f64::NEG_INFINITY, 0.0f64);
    for eps in [0.5, 1.0, 3.5, 5.0] {
        for d in [4u32, 8, 20] {
            let b = optimal_b_cells(eps, d);
            for (name, kernel) in [
                ("DAM", DiscreteKernel::dam(eps, d, b, KernelKind::Shrunken)),
                ("DAM-NS", DiscreteKernel::dam(eps, d, b, KernelKind::NonShrunken)),
                ("HUEM", DiscreteKernel::huem(eps, d, b)),
            ] {
                let (box_delta, floor) = GridAreaResponse::new(kernel.clone()).realized_masses();
                let (dd, od, side) = (d as usize, kernel.out_d() as usize, kernel.box_side());
                let cell = |o: usize, i: usize| {
                    let input = CellIndex::new((i % dd) as u32, (i / dd) as u32);
                    let out = CellIndex::new((o % od) as u32, (o / od) as u32);
                    (input, out)
                };
                // `u[o] + δ[o − i]`: the floor every output cell gets from
                // any input, plus the box excess around the input.
                let realized = |o: usize, i: usize| {
                    let (input, out) = cell(o, i);
                    let (dx, dy) = (out.ix.wrapping_sub(input.ix), out.iy.wrapping_sub(input.iy));
                    let excess = if (dx as usize) < side && (dy as usize) < side {
                        box_delta[dy as usize * side + dx as usize]
                    } else {
                        0.0
                    };
                    floor[o] + excess
                };
                let total = box_delta.iter().sum::<f64>() + floor.iter().sum::<f64>();
                assert!((total - 1.0).abs() < 1e-12, "{name} eps {eps} d {d}: total {total}");

                let scale = kernel.offset_masses().iter().fold(kernel.q_hat(), |m, &x| m.max(x));
                for o in 0..od * od {
                    for i in 0..dd * dd {
                        let (input, out) = cell(o, i);
                        let gap = (realized(o, i) - kernel.mass(input, out)).abs();
                        worst_gap = worst_gap.max(gap / scale);
                        assert!(
                            gap <= REL_TOL * scale,
                            "{name} eps {eps} d {d}: outcome {o} input {i} off by {gap:e}"
                        );
                    }
                }

                let report = ldp_audit(dd * dd, od * od, &realized, eps);
                assert!(
                    report.holds(),
                    "{name} eps {eps} d {d} b {b}: realized loss {} > {eps}",
                    report.worst_loss
                );
                worst_excess = worst_excess.max(report.worst_loss - eps);
            }
        }
    }
    eprintln!("worst realized loss minus eps: {worst_excess:e}; worst relative gap: {worst_gap:e}");
}
