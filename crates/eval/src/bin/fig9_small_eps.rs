//! Figure 9(k–o): W₂ vs ε ∈ {0.7, 1.4, 2.1, 2.8, 3.5} for all five
//! mechanisms. The paper must keep d small here so SEM-Geo-I's `n^k`
//! output domain stays feasible at small ε ("we must set d to a small
//! value when ε is small", §VII-C3); we use d = 5, the largest
//! exact-LP-friendly resolution of Table IV's small range. Expected
//! shape: W₂ falls as ε grows; SEM-Geo-I slightly ahead at the smallest
//! budgets, DAM ahead of MDSW throughout.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::report::fmt4;
use dam_eval::{run_jobs, CliArgs, EvalContext, Job, MechSpec, Report};

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let mechs = MechSpec::FIGURE9_ALL;
    let d = 5;
    let mut jobs = Vec::new();
    for &ds in &DatasetKind::FIGURE_ORDER {
        for &eps in &Table4::EPS_SMALL {
            for &mech in &mechs {
                jobs.push(Job { dataset: ds, mech, d, eps });
            }
        }
    }
    let results = run_jobs(&ctx, &jobs);

    let mut idx = 0;
    for &ds in &DatasetKind::FIGURE_ORDER {
        let mut header = vec!["eps".to_string()];
        header.extend(mechs.iter().map(|m| m.label()));
        let mut report = Report::new(
            &format!("Figure 9 (small eps): {} (d=5, exact W2)", ds.label()),
            &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for &eps in &Table4::EPS_SMALL {
            let mut row = vec![format!("{eps}")];
            for _ in &mechs {
                row.push(fmt4(results[idx].w2));
                idx += 1;
            }
            report.push_row(row);
        }
        println!("{}", report.render());
        let name = format!("fig9_small_eps_{}", ds.label().to_lowercase());
        let path = report.write_csv(&args.out, &name).expect("write csv");
        println!("csv: {}", path.display());
    }
}
