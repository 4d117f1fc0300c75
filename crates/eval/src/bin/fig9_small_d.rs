//! Figure 9(a–e): W₂ vs discrete side length d ∈ {1..5} at ε = 3.5, for
//! SEM-Geo-I, MDSW, HUEM, DAM and DAM-NS on all five datasets, with the
//! exact LP W₂ (the paper's small-d regime). Expected shape: W₂ grows
//! with d for every mechanism; DAM below MDSW everywhere; DAM ≥ DAM-NS gap
//! visible on the road-network (city) datasets.

use dam_data::DatasetKind;
use dam_eval::params::Table4;
use dam_eval::{sweep, CliArgs, EvalContext, MechSpec};

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let xs: Vec<_> =
        Table4::D_SMALL.iter().map(|&d| (d.to_string(), d, Table4::EPS_DEFAULT)).collect();
    sweep(&ctx, &args.out, &DatasetKind::FIGURE_ORDER, "d", &xs, &MechSpec::FIGURE9_ALL, |ds| {
        (
            format!("Figure 9 (small d): {} (eps=3.5, exact W2)", ds.label()),
            format!("fig9_small_d_{}", ds.label().to_lowercase()),
        )
    });
}
