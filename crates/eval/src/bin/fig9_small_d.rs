//! Figure 9(a–e): W₂ vs discrete side length d ∈ {1..5} at ε = 3.5, for
//! SEM-Geo-I, MDSW, HUEM, DAM and DAM-NS on all five datasets, with the
//! exact LP W₂ (the paper's small-d regime). Expected shape: W₂ grows
//! with d for every mechanism; DAM below MDSW everywhere; DAM ≥ DAM-NS gap
//! visible on the road-network (city) datasets.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::report::fmt4;
use dam_eval::{run_jobs, CliArgs, EvalContext, Job, MechSpec, Report};

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let mechs = MechSpec::FIGURE9_ALL;
    let mut jobs = Vec::new();
    for &ds in &DatasetKind::FIGURE_ORDER {
        for &d in &Table4::D_SMALL {
            for &mech in &mechs {
                jobs.push(Job { dataset: ds, mech, d, eps: Table4::EPS_DEFAULT });
            }
        }
    }
    let results = run_jobs(&ctx, &jobs);

    let mut idx = 0;
    for &ds in &DatasetKind::FIGURE_ORDER {
        let mut header = vec!["d".to_string()];
        header.extend(mechs.iter().map(|m| m.label()));
        let mut report = Report::new(
            &format!("Figure 9 (small d): {} (eps=3.5, exact W2)", ds.label()),
            &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for &d in &Table4::D_SMALL {
            let mut row = vec![d.to_string()];
            for _ in &mechs {
                row.push(fmt4(results[idx].w2));
                idx += 1;
            }
            report.push_row(row);
        }
        println!("{}", report.render());
        let name = format!("fig9_small_d_{}", ds.label().to_lowercase());
        let path = report.write_csv(&args.out, &name).expect("write csv");
        println!("csv: {}", path.display());
    }
}
