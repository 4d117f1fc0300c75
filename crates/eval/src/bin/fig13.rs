//! Figure 13 (Appendix C): the four W₂ sweeps on the Crime dataset with
//! its *full* domain — (a) small d, (b) large d, (c) small ε, (d) large ε.
//! Expected: same orderings as the part-wise experiments, except
//! SEM-Geo-I slightly ahead of DAM at large ε (the coarse full domain has
//! few non-zero cells, so LDP noise obscures more signal).

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::report::fmt4;
use dam_eval::{run_jobs, CliArgs, EvalContext, Job, MechSpec, Report};

fn sweep(
    ctx: &EvalContext,
    args: &CliArgs,
    title: &str,
    csv: &str,
    xs: &[(String, u32, f64)],
    mechs: &[MechSpec],
) {
    let mut jobs = Vec::new();
    for (_, d, eps) in xs {
        for &mech in mechs {
            jobs.push(Job { dataset: DatasetKind::CrimeFull, mech, d: *d, eps: *eps });
        }
    }
    let results = run_jobs(ctx, &jobs);
    let mut header = vec!["x".to_string()];
    header.extend(mechs.iter().map(|m| m.label()));
    let mut report = Report::new(title, &header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut idx = 0;
    for (label, _, _) in xs {
        let mut row = vec![label.clone()];
        for _ in mechs {
            row.push(fmt4(results[idx].w2));
            idx += 1;
        }
        report.push_row(row);
    }
    println!("{}", report.render());
    let path = report.write_csv(&args.out, csv).expect("write csv");
    println!("csv: {}", path.display());
}

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let all = MechSpec::FIGURE9_ALL.to_vec();
    let two = MechSpec::FIGURE9_LARGE.to_vec();

    let small_d: Vec<(String, u32, f64)> =
        Table4::D_SMALL.iter().map(|&d| (format!("d={d}"), d, Table4::EPS_DEFAULT)).collect();
    sweep(&ctx, &args, "Figure 13(a): Crime full domain, small d", "fig13a", &small_d, &all);

    let large_d: Vec<(String, u32, f64)> =
        Table4::D_LARGE.iter().map(|&d| (format!("d={d}"), d, Table4::EPS_LARGE_D)).collect();
    sweep(&ctx, &args, "Figure 13(b): Crime full domain, large d", "fig13b", &large_d, &two);

    let small_eps: Vec<(String, u32, f64)> =
        Table4::EPS_SMALL.iter().map(|&e| (format!("eps={e}"), 5, e)).collect();
    sweep(
        &ctx,
        &args,
        "Figure 13(c): Crime full domain, small eps (d=5)",
        "fig13c",
        &small_eps,
        &all,
    );

    let large_eps: Vec<(String, u32, f64)> =
        Table4::EPS_LARGE.iter().map(|&e| (format!("eps={e}"), Table4::D_DEFAULT, e)).collect();
    sweep(
        &ctx,
        &args,
        "Figure 13(d): Crime full domain, large eps (d=15)",
        "fig13d",
        &large_eps,
        &two,
    );
}
