//! Figure 14 (Appendix D): trajectory experiments on NYC — W₂ of the
//! recovered point distribution for LDPTrace, PivotTrace and DAM,
//! (a) varying d at ε = 1.5 and (b) varying ε at d = 15. Expected shape:
//! W₂ grows with d for all three; DAM consistently below both trajectory
//! mechanisms (they spend budget on direction rather than density);
//! PivotTrace and DAM decrease with ε while LDPTrace fluctuates.

use dam_data::DatasetKind;
use dam_eval::params::Table5;
use dam_eval::report::fmt4;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_geo::rng::derived;
use dam_geo::Grid2D;
use dam_trajectory::mechanism::{true_distribution, TrajectoryMechanism};
use dam_trajectory::{sample_workload, DamOnPoints, LdpTrace, PivotTrace, Trajectory};
use dam_transport::w2;

fn mechanisms(eps: f64) -> Vec<Box<dyn TrajectoryMechanism>> {
    vec![
        Box::new(LdpTrace::new(eps)),
        Box::new(PivotTrace::new(eps)),
        Box::new(DamOnPoints::new(eps)),
    ]
}

fn point_w2(
    ctx: &EvalContext,
    trajs: &[Trajectory],
    bbox: dam_geo::BoundingBox,
    mech: &dyn TrajectoryMechanism,
    d: u32,
    stream: u64,
) -> f64 {
    let grid = Grid2D::new(bbox, d);
    let truth = true_distribution(trajs, &grid);
    // One dispatch implementation: `w2` picks the solver on the *actual*
    // support sizes; a d²-based re-derivation here could disagree with
    // the library for sparse estimates near the exact-LP threshold.
    let mut acc = 0.0;
    for rep in 0..ctx.repeats {
        let mut rng = derived(ctx.seed, stream ^ (0x7A70_0000 + rep as u64));
        let est = mech.estimate_distribution(trajs, &grid, &mut rng);
        acc += w2(&est, &truth).expect("W2 computation failed");
    }
    acc / ctx.repeats as f64
}

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);

    // Build the paper's workload: 300×300 base grid over the full NYC
    // domain, 1,000 trajectories of length 2–200.
    eprintln!("sampling trajectory workload ...");
    let base = ctx.dataset(DatasetKind::NycFull);
    let part = &base.parts[0];
    let base_grid = Grid2D::new(part.bbox, Table5::BASE_GRID);
    let n_trajs = if args.fast { 200 } else { Table5::N_TRAJS };
    let mut wl_rng = derived(ctx.seed, 0x7247);
    let trajs = sample_workload(&part.points, &base_grid, n_trajs, Table5::LEN_RANGE, &mut wl_rng);
    eprintln!(
        "workload: {} trajectories, {} points total",
        trajs.len(),
        trajs.iter().map(|t| t.len()).sum::<usize>()
    );

    // (a) vary d at the default budget.
    let mech_names = ["LDPTrace", "PivotTrace", "DAM"];
    let mut header = vec!["d".to_string()];
    header.extend(mech_names.iter().map(|s| s.to_string()));
    let mut rep_a = Report::new(
        "Figure 14(a): trajectory W2 vs d (eps=1.5, NYC)",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (xi, &d) in Table5::D_VALUES.iter().enumerate() {
        let mut row = vec![d.to_string()];
        for (mi, mech) in mechanisms(Table5::EPS_DEFAULT).iter().enumerate() {
            let v = point_w2(&ctx, &trajs, part.bbox, mech.as_ref(), d, (xi * 8 + mi) as u64);
            eprintln!("  fig14a {} d={d} -> {v:.4}", mech.name());
            row.push(fmt4(v));
        }
        rep_a.push_row(row);
    }
    println!("{}", rep_a.render());
    println!("csv: {}", rep_a.write_csv(&args.out, "fig14a").expect("csv").display());

    // (b) vary eps at the default resolution.
    let mut header_b = vec!["eps".to_string()];
    header_b.extend(mech_names.iter().map(|s| s.to_string()));
    let mut rep_b = Report::new(
        "Figure 14(b): trajectory W2 vs eps (d=15, NYC)",
        &header_b.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (xi, &eps) in Table5::EPS_VALUES.iter().enumerate() {
        let mut row = vec![format!("{eps}")];
        for (mi, mech) in mechanisms(eps).iter().enumerate() {
            let v = point_w2(
                &ctx,
                &trajs,
                part.bbox,
                mech.as_ref(),
                Table5::D_DEFAULT,
                (1000 + xi * 8 + mi) as u64,
            );
            eprintln!("  fig14b {} eps={eps} -> {v:.4}", mech.name());
            row.push(fmt4(v));
        }
        rep_b.push_row(row);
    }
    println!("{}", rep_b.render());
    println!("csv: {}", rep_b.write_csv(&args.out, "fig14b").expect("csv").display());
}
