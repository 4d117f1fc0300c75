//! # dam-eval — the experiment harness
//!
//! One binary per table/figure of the paper (`src/bin/`, each named after
//! the table or figure it regenerates). Every binary accepts:
//!
//! ```text
//! --repeats N   averaging repetitions            (default 3)
//! --users N     cap on users per dataset part    (default: full dataset)
//! --seed S      experiment seed                  (default 42)
//! --out DIR     CSV output directory             (default results/)
//! --fast        smoke-test mode: 1 repeat, 50k users, fewer MC samples
//!               (the fig9 large-d binaries keep full user counts — the
//!               sharded report pipeline makes them affordable)
//! --no-calib    use ε directly for SEM-Geo-I instead of LP calibration
//! --threads N   worker threads for the job runner, the sharded report
//!               pipeline and the split spectral EM (default: available
//!               parallelism; results are bit-identical for any value)
//! --epochs N    stream length in epochs (fig_stream, fig_service,
//!               fig_cluster; each picks its own default)
//! --window W    sliding-window length in epochs (same binaries)
//! --inject SPEC fault plan for a chaos run: a `FaultPlan` spec for
//!               fig_stream, a `NodeFaultPlan` spec for fig_cluster
//! --metrics-out PATH  write the run's dam-obs metrics registries as one
//!               JSON document (sections keyed by pipeline label; see
//!               README "Observability")
//! ```
//!
//! Results are printed as aligned tables and written as CSV under the
//! output directory.

pub mod cli;
pub mod context;
pub mod mechspec;
pub mod obs;
pub mod params;
pub mod report;
pub mod runner;

pub use cli::CliArgs;
pub use context::EvalContext;
pub use mechspec::MechSpec;
pub use report::Report;
pub use runner::{run_jobs, sweep, Job, JobResult};
