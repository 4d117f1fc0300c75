//! Parallel experiment execution.
//!
//! Every figure is a grid of independent `(dataset, mechanism, d, ε)`
//! points; the runner hands each one to the persistent worker pool
//! (`rayon::pool::run`, one job per task) on the context's one thread
//! count and collects mean-W₂ results in input order. A mechanism's
//! sharded report pipeline and the split FFT run nested pool batches,
//! which drain on their job's thread or take a worker that has run out
//! of jobs, so the thread count caps the whole run. Each job's RNG stream
//! is keyed on the job's *content*, never its position or thread, so
//! editing a figure's grid cannot silently change any other point's
//! randomness, and every W₂ is bit-identical at any thread count.

use crate::context::EvalContext;
use crate::mechspec::MechSpec;
use dam_data::DatasetKind;
use dam_geo::rng::splitmix64;
use parking_lot::Mutex;
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
/// threads (default: the available parallelism). Results come back in job
/// order and are bit-identical for any thread count.
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
}
