//! Figure 13 (Appendix C): the four W₂ sweeps on the Crime dataset with
//! its *full* domain — (a) small d, (b) large d, (c) small ε, (d) large ε.
//! Expected: same orderings as the part-wise experiments, except
//! SEM-Geo-I slightly ahead of DAM at large ε (the coarse full domain has
//! few non-zero cells, so LDP noise obscures more signal).

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::{sweep, CliArgs, EvalContext, MechSpec};

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let d_axis = |ds: &[u32], eps: f64| -> Vec<_> {
        ds.iter().map(|&d| (format!("d={d}"), d, eps)).collect()
    };
    let eps_axis = |epss: &[f64], d: u32| -> Vec<_> {
        epss.iter().map(|&e| (format!("eps={e}"), d, e)).collect()
    };
    let panels = [
        ("a", "small d", d_axis(&Table4::D_SMALL, Table4::EPS_DEFAULT), &MechSpec::FIGURE9_ALL[..]),
        ("b", "large d", d_axis(&Table4::D_LARGE, Table4::EPS_LARGE_D), &MechSpec::FIGURE9_LARGE),
        ("c", "small eps (d=5)", eps_axis(&Table4::EPS_SMALL, 5), &MechSpec::FIGURE9_ALL),
        (
            "d",
            "large eps (d=15)",
            eps_axis(&Table4::EPS_LARGE, Table4::D_DEFAULT),
            &MechSpec::FIGURE9_LARGE,
        ),
    ];
    for (panel, what, xs, mechs) in panels {
        sweep(&ctx, &args.out, &[DatasetKind::CrimeFull], "x", &xs, mechs, |_| {
            (format!("Figure 13({panel}): Crime full domain, {what}"), format!("fig13{panel}"))
        });
    }
}
