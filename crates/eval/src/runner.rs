//! Parallel experiment execution.
//!
//! Every figure is a grid of independent `(dataset, mechanism, d, ε)`
//! points; the runner hands each one to the persistent worker pool
//! (`rayon::pool::run`, one job per task) on the context's one thread
//! count and collects mean-W₂ results in input order. A mechanism's
//! sharded report pipeline and its split spectral EM run nested pool
//! batches on the same thread count, which drain on their job's thread
//! or take a worker that has run out of jobs. Each job's RNG stream
//! is keyed on the job's *content*, never its position or thread, so
//! editing a figure's grid cannot silently change any other point's
//! randomness, and every W₂ is bit-identical at any thread count.

use crate::context::EvalContext;
use crate::mechspec::MechSpec;
use crate::report::{fmt4, Report};
use dam_data::DatasetKind;
use dam_geo::rng::splitmix64;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One evaluation point.
#[derive(Debug, Clone)]
pub struct Job {
    /// Dataset to run on.
    pub dataset: DatasetKind,
    /// Mechanism selector.
    pub mech: MechSpec,
    /// Grid resolution.
    pub d: u32,
    /// Privacy budget ε.
    pub eps: f64,
}

/// FNV-1a over one field, with a terminator so adjacent fields cannot
/// alias (`"ab" + "c"` vs `"a" + "bc"`).
fn fnv1a_field(mut h: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    (h ^ 0xFF).wrapping_mul(FNV_PRIME)
}

/// Deterministic RNG stream key for a task identified by a single label
/// (the one-field analogue of [`job_stream`], e.g. one stream per
/// mechanism in a streaming figure): FNV-1a over the label mixed with
/// the experiment seed. Content-keyed — adding a task never perturbs the
/// others' randomness.
pub fn label_stream(seed: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    splitmix64(seed ^ splitmix64(fnv1a_field(FNV_OFFSET, label.as_bytes())))
}

/// Deterministic RNG stream key derived from a job's content — dataset
/// label, mechanism label, grid resolution and the exact bits of ε —
/// never from the job's position in the job vector. Inserting, removing
/// or reordering grid points therefore leaves every other job's
/// randomness (and W₂) unchanged. Repeats are separated downstream by
/// [`EvalContext::part_w2`], which mixes the repeat index into this
/// stream.
pub fn job_stream(job: &Job) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h = FNV_OFFSET;
    h = fnv1a_field(h, job.dataset.label().as_bytes());
    h = fnv1a_field(h, job.mech.label().as_bytes());
    h = fnv1a_field(h, &job.d.to_le_bytes());
    h = fnv1a_field(h, &job.eps.to_bits().to_le_bytes());
    splitmix64(h)
}

/// A finished evaluation point.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job that produced this result.
    pub job: Job,
    /// Mean W₂ (cell units) over parts and repeats.
    pub w2: f64,
    /// Wall-clock seconds spent.
    pub secs: f64,
}

/// Runs all jobs on the persistent worker pool, on up to `ctx.threads`
/// threads (default: the available parallelism). Results come back in
/// job order and are bit-identical for any thread count.
pub fn run_jobs(ctx: &EvalContext, jobs: &[Job]) -> Vec<JobResult> {
    // Pre-warm the dataset cache serially to avoid duplicated generation.
    for job in jobs {
        ctx.dataset(job.dataset);
    }
    let done = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    // One lock serializes the multi-field progress lines so they cannot
    // interleave when several jobs finish at once.
    let progress = Mutex::new(());
    rayon::pool::run(jobs.len(), ctx.threads, |i| {
        let job = &jobs[i];
        let watch = dam_obs::Stopwatch::start(crate::obs::wall());
        let mech = job.mech.build(job.eps, job.d, ctx);
        let w2 = ctx.dataset_w2(job.dataset, mech.as_ref(), job.d, job_stream(job));
        *results[i].lock() = Some(JobResult { job: job.clone(), w2, secs: watch.elapsed_secs() });
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        let _guard = progress.lock();
        eprintln!(
            "  [{}/{}] {:<12} {:<10} d={:<3} eps={:<4} -> W2 = {:.4}  ({:.1}s)",
            finished,
            jobs.len(),
            job.dataset.label(),
            job.mech.label(),
            job.d,
            job.eps,
            w2,
            watch.elapsed_secs()
        );
    });
    results.into_iter().map(|m| m.into_inner().expect("job not completed")).collect()
}

/// One W₂ figure panel: runs the whole `datasets × xs × mechs` grid as
/// one [`run_jobs`] call, then prints and writes one table per dataset —
/// a row per x point (`(row label, d, ε)`, under the `x_header` column),
/// a mean-W₂ column per mechanism. `names` gives each dataset's table
/// title and CSV file name (written under `out`). Returns the tables in
/// dataset order.
pub fn sweep(
    ctx: &EvalContext,
    out: &Path,
    datasets: &[DatasetKind],
    x_header: &str,
    xs: &[(String, u32, f64)],
    mechs: &[MechSpec],
    names: impl Fn(DatasetKind) -> (String, String),
) -> Vec<Report> {
    let mut jobs = Vec::new();
    for &dataset in datasets {
        for &(_, d, eps) in xs {
            for &mech in mechs {
                jobs.push(Job { dataset, mech, d, eps });
            }
        }
    }
    let mut results = run_jobs(ctx, &jobs).into_iter();
    let mut header = vec![x_header.to_string()];
    header.extend(mechs.iter().map(|m| m.label()));
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut reports = Vec::new();
    for &dataset in datasets {
        let (title, csv) = names(dataset);
        let mut report = Report::new(&title, &header);
        for (label, _, _) in xs {
            let mut row = vec![label.clone()];
            row.extend(results.by_ref().take(mechs.len()).map(|r| fmt4(r.w2)));
            report.push_row(row);
        }
        println!("{}", report.render());
        let path = report.write_csv(out, &csv).expect("write csv");
        println!("csv: {}", path.display());
        reports.push(report);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::CliArgs;

    fn tiny_ctx(threads: usize) -> EvalContext {
        EvalContext::from_args(&CliArgs {
            repeats: 1,
            users: Some(2000),
            no_calib: true,
            threads: Some(threads),
            ..CliArgs::default()
        })
    }

    #[test]
    fn runs_small_grid_in_order() {
        let mechs = [MechSpec::Dam, MechSpec::Mdsw, MechSpec::CfoGrr];
        let jobs: Vec<Job> = [(3, 2.0), (4, 1.0)]
            .into_iter()
            .flat_map(|(d, eps)| {
                mechs.iter().map(move |&mech| Job { dataset: DatasetKind::SZipf, mech, d, eps })
            })
            .collect();
        let serial = run_jobs(&tiny_ctx(1), &jobs);
        let pooled = run_jobs(&tiny_ctx(4), &jobs);
        assert_eq!(serial.len(), jobs.len());
        for ((job, a), b) in jobs.iter().zip(&serial).zip(&pooled) {
            assert_eq!((a.job.mech, a.job.d), (job.mech, job.d), "results come back in job order");
            assert_eq!((b.job.mech, b.job.d), (job.mech, job.d), "results come back in job order");
            assert!(a.w2.is_finite() && a.w2 >= 0.0);
            assert_eq!(
                a.w2.to_bits(),
                b.w2.to_bits(),
                "{} d={}: W2 must not depend on the thread count",
                job.mech.label(),
                job.d
            );
        }
        // The bit-identity above is vacuous unless the jobs really ran
        // side by side on the pool.
        if rayon::current_num_threads() > 1 {
            assert!(
                rayon::pool::max_observed_concurrency() >= 2,
                "jobs never ran concurrently on the pool"
            );
        }
    }

    #[test]
    fn job_stream_depends_on_every_content_field() {
        let base = Job { dataset: DatasetKind::SZipf, mech: MechSpec::Dam, d: 3, eps: 2.0 };
        let s = job_stream(&base);
        assert_eq!(s, job_stream(&base.clone()), "stream must be deterministic");
        assert_ne!(s, job_stream(&Job { dataset: DatasetKind::Normal, ..base.clone() }));
        assert_ne!(s, job_stream(&Job { mech: MechSpec::Huem, ..base.clone() }));
        assert_ne!(s, job_stream(&Job { d: 4, ..base.clone() }));
        assert_ne!(s, job_stream(&Job { eps: 2.5, ..base.clone() }));
    }

    #[test]
    fn inserting_an_unrelated_job_leaves_other_results_bit_identical() {
        // Regression: streams used to be keyed on the job's *index*, so
        // editing a figure's grid changed every other point's randomness.
        let probe = Job { dataset: DatasetKind::SZipf, mech: MechSpec::Dam, d: 3, eps: 2.0 };
        let alone = run_jobs(&tiny_ctx(1), std::slice::from_ref(&probe));
        let unrelated = Job { dataset: DatasetKind::SZipf, mech: MechSpec::CfoGrr, d: 2, eps: 1.0 };
        let shifted = run_jobs(&tiny_ctx(2), &[unrelated, probe]);
        assert_eq!(
            alone[0].w2.to_bits(),
            shifted[1].w2.to_bits(),
            "inserting a job before the probe must not change the probe's W2"
        );
    }

    #[test]
    fn sweep_pins_table_layout() {
        let args = CliArgs::parse_from(
            ["--fast", "--users", "2000", "--no-calib", "--threads", "1"]
                .map(String::from)
                .into_iter(),
        );
        let ctx = EvalContext::from_args(&args);
        let dir = std::env::temp_dir().join("dam_eval_sweep_test");
        let xs = [("d=2".to_string(), 2, 2.0), ("d=3".to_string(), 3, 2.0)];
        let mechs = [MechSpec::Dam, MechSpec::Mdsw];
        let reports = sweep(&ctx, &dir, &[DatasetKind::SZipf], "x", &xs, &mechs, |ds| {
            (format!("Sweep: {}", ds.label()), format!("sweep_{}", ds.label().to_lowercase()))
        });
        // The same grid, job by job: x points outer, mechanisms inner.
        let jobs: Vec<Job> = xs
            .iter()
            .flat_map(|&(_, d, eps)| {
                mechs.iter().map(move |&mech| Job { dataset: DatasetKind::SZipf, mech, d, eps })
            })
            .collect();
        let w2: Vec<String> = run_jobs(&ctx, &jobs).iter().map(|r| fmt4(r.w2)).collect();
        let want = [
            vec!["x", "DAM", "MDSW"],
            vec!["d=2", w2[0].as_str(), w2[1].as_str()],
            vec!["d=3", w2[2].as_str(), w2[3].as_str()],
        ];

        let csv = std::fs::read_to_string(dir.join("sweep_szipf.csv")).unwrap();
        let csv_rows: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
        assert_eq!(csv_rows, want, "CSV header, row labels and cell order");

        assert_eq!(reports.len(), 1, "one table per dataset");
        let text = reports[0].render();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("== Sweep: SZipf =="));
        let table: Vec<Vec<&str>> =
            lines.filter(|l| !l.starts_with('-')).map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(table, want, "table header, row labels and cell order");
    }
}
