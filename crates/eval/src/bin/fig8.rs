//! Figure 8: W₂ of DAM as the norm distance `b` varies from `0.33b̌` to
//! `1.67b̌` (d = 15, ε = 3.5, five datasets). The paper's finding: W₂ is
//! minimised near the mutual-information-optimal `b̌` (§V-C), with the
//! caveat that grid-division error can shift the empirical minimum by one
//! cell.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::report::fmt4;
use dam_eval::{run_jobs, CliArgs, EvalContext, Job, MechSpec, Report};

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let datasets = DatasetKind::FIGURE_ORDER;
    let mut jobs = Vec::new();
    for &ds in &datasets {
        for &f in &Table4::B_FACTORS {
            jobs.push(Job {
                dataset: ds,
                mech: MechSpec::DamWithBFactor(f),
                d: Table4::D_DEFAULT,
                eps: Table4::EPS_DEFAULT,
            });
        }
    }
    let results = run_jobs(&ctx, &jobs);

    let mut header = vec!["b/b̌".to_string()];
    header.extend(datasets.iter().map(|d| d.label().to_string()));
    let mut report = Report::new(
        "Figure 8: W2 vs norm distance b (d=15, eps=3.5)",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (fi, &f) in Table4::B_FACTORS.iter().enumerate() {
        let mut row = vec![format!("{f:.2}")];
        for (di, _) in datasets.iter().enumerate() {
            row.push(fmt4(results[di * Table4::B_FACTORS.len() + fi].w2));
        }
        report.push_row(row);
    }
    println!("{}", report.render());
    let path = report.write_csv(&args.out, "fig8").expect("write csv");
    println!("csv: {}", path.display());
}
