//! Figure 9(p–t): W₂ vs ε ∈ {5..9} at d = 15 for SEM-Geo-I vs DAM (the
//! paper approximates W₂ with Sinkhorn here; every 225-cell support fits
//! `W2Solver::Auto`'s exact-LP limit, so it is solved exactly). Expected
//! shape: both fall towards zero as ε grows; DAM ahead of SEM-Geo-I at
//! large ε.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::report::fmt4;
use dam_eval::{run_jobs, CliArgs, EvalContext, Job, MechSpec, Report};

fn main() {
    // Full user counts by default, even under --fast: the sharded report
    // pipeline makes the large-eps regime affordable (explicit --users
    // still caps).
    let args = CliArgs::parse().with_full_users();
    let ctx = EvalContext::from_args(&args);
    let mechs = MechSpec::FIGURE9_LARGE;
    let mut jobs = Vec::new();
    for &ds in &DatasetKind::FIGURE_ORDER {
        for &eps in &Table4::EPS_LARGE {
            for &mech in &mechs {
                jobs.push(Job { dataset: ds, mech, d: Table4::D_DEFAULT, eps });
            }
        }
    }
    let results = run_jobs(&ctx, &jobs);

    let mut idx = 0;
    for &ds in &DatasetKind::FIGURE_ORDER {
        let mut header = vec!["eps".to_string()];
        header.extend(mechs.iter().map(|m| m.label()));
        let mut report = Report::new(
            &format!("Figure 9 (large eps): {} (d=15, exact W2)", ds.label()),
            &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for &eps in &Table4::EPS_LARGE {
            let mut row = vec![format!("{eps}")];
            for _ in &mechs {
                row.push(fmt4(results[idx].w2));
                idx += 1;
            }
            report.push_row(row);
        }
        println!("{}", report.render());
        let name = format!("fig9_large_eps_{}", ds.label().to_lowercase());
        let path = report.write_csv(&args.out, &name).expect("write csv");
        println!("csv: {}", path.display());
    }
}
