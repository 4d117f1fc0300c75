//! Figure 9(f–j): W₂ vs d ∈ {1, 5, 10, 15, 20} at ε = 5 for SEM-Geo-I vs
//! DAM (the paper's large-d regime, where it approximates W₂ with
//! Sinkhorn; every support up to d = 20 fits `W2Solver::Auto`'s exact-LP
//! limit, so it is solved exactly).
//! Expected shape: both curves grow with d; DAM overtakes SEM-Geo-I once
//! d is large enough that the discrete disk approximates the continuous
//! one.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::report::fmt4;
use dam_eval::{run_jobs, CliArgs, EvalContext, Job, MechSpec, Report};

fn main() {
    // Full user counts by default, even under --fast: the sharded report
    // pipeline makes the large-d regime affordable (explicit --users
    // still caps).
    let args = CliArgs::parse().with_full_users();
    let ctx = EvalContext::from_args(&args);
    let mechs = MechSpec::FIGURE9_LARGE;
    let mut jobs = Vec::new();
    for &ds in &DatasetKind::FIGURE_ORDER {
        for &d in &Table4::D_LARGE {
            for &mech in &mechs {
                jobs.push(Job { dataset: ds, mech, d, eps: Table4::EPS_LARGE_D });
            }
        }
    }
    let results = run_jobs(&ctx, &jobs);

    let mut idx = 0;
    for &ds in &DatasetKind::FIGURE_ORDER {
        let mut header = vec!["d".to_string()];
        header.extend(mechs.iter().map(|m| m.label()));
        let mut report = Report::new(
            &format!("Figure 9 (large d): {} (eps=5, exact W2)", ds.label()),
            &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for &d in &Table4::D_LARGE {
            let mut row = vec![d.to_string()];
            for _ in &mechs {
                row.push(fmt4(results[idx].w2));
                idx += 1;
            }
            report.push_row(row);
        }
        println!("{}", report.render());
        let name = format!("fig9_large_d_{}", ds.label().to_lowercase());
        let path = report.write_csv(&args.out, &name).expect("write csv");
        println!("csv: {}", path.display());
    }
}
