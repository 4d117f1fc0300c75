//! Figure 9(p–t): W₂ vs ε ∈ {5..9} at d = 15 for SEM-Geo-I vs DAM (the
//! paper approximates W₂ with Sinkhorn here; `w2` solves every 225-cell
//! support exactly with the network simplex). Expected
//! shape: both fall towards zero as ε grows; DAM ahead of SEM-Geo-I at
//! large ε.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::{sweep, CliArgs, EvalContext, MechSpec};

fn main() {
    // Full user counts by default, even under --fast: the sharded report
    // pipeline makes the large-eps regime affordable (explicit --users
    // still caps).
    let args = CliArgs::parse().with_full_users();
    let ctx = EvalContext::from_args(&args);
    let xs: Vec<_> =
        Table4::EPS_LARGE.iter().map(|&eps| (format!("{eps}"), Table4::D_DEFAULT, eps)).collect();
    sweep(
        &ctx,
        &args.out,
        &DatasetKind::FIGURE_ORDER,
        "eps",
        &xs,
        &MechSpec::FIGURE9_LARGE,
        |ds| {
            (
                format!("Figure 9 (large eps): {} (d=15, exact W2)", ds.label()),
                format!("fig9_large_eps_{}", ds.label().to_lowercase()),
            )
        },
    );
}
