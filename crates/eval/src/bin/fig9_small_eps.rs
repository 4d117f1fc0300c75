//! Figure 9(k–o): W₂ vs ε ∈ {0.7, 1.4, 2.1, 2.8, 3.5} for all five
//! mechanisms. The paper must keep d small here so SEM-Geo-I's `n^k`
//! output domain stays feasible at small ε ("we must set d to a small
//! value when ε is small", §VII-C3); we use d = 5, the largest
//! exact-LP-friendly resolution of Table IV's small range. Expected
//! shape: W₂ falls as ε grows; SEM-Geo-I slightly ahead at the smallest
//! budgets, DAM ahead of MDSW throughout.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::{sweep, CliArgs, EvalContext, MechSpec};

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let xs: Vec<_> = Table4::EPS_SMALL.iter().map(|&eps| (format!("{eps}"), 5, eps)).collect();
    sweep(&ctx, &args.out, &DatasetKind::FIGURE_ORDER, "eps", &xs, &MechSpec::FIGURE9_ALL, |ds| {
        (
            format!("Figure 9 (small eps): {} (d=5, exact W2)", ds.label()),
            format!("fig9_small_eps_{}", ds.label().to_lowercase()),
        )
    });
}
