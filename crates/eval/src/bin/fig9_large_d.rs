//! Figure 9(f–j): W₂ vs d ∈ {1, 5, 10, 15, 20} at ε = 5 for SEM-Geo-I vs
//! DAM (the paper's large-d regime, where it approximates W₂ with
//! Sinkhorn; every support up to d = 20 fits `w2`'s 400-cell exact-LP
//! limit, so it is solved exactly).
//! Expected shape: both curves grow with d; DAM overtakes SEM-Geo-I once
//! d is large enough that the discrete disk approximates the continuous
//! one.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::{sweep, CliArgs, EvalContext, MechSpec};

fn main() {
    // Full user counts by default, even under --fast: the sharded report
    // pipeline makes the large-d regime affordable (explicit --users
    // still caps).
    let args = CliArgs::parse().with_full_users();
    let ctx = EvalContext::from_args(&args);
    let xs: Vec<_> =
        Table4::D_LARGE.iter().map(|&d| (d.to_string(), d, Table4::EPS_LARGE_D)).collect();
    sweep(&ctx, &args.out, &DatasetKind::FIGURE_ORDER, "d", &xs, &MechSpec::FIGURE9_LARGE, |ds| {
        (
            format!("Figure 9 (large d): {} (eps=5, exact W2)", ds.label()),
            format!("fig9_large_d_{}", ds.label().to_lowercase()),
        )
    });
}
