//! Continual-observation benchmarks: the two costs a streaming
//! deployment pays every epoch.
//!
//! * **Ingest** — randomize + shard-aggregate one epoch of reports and
//!   slide the window forward (criterion, ns/report);
//! * **Window estimate** — warm-started EM under the streaming budget vs
//!   the cold 150-iteration protocol on identical window counts (manual
//!   timing over a moving-foci stream: per-window iterations and wall
//!   time, the warm-vs-cold ratio).
//!
//! Emits `BENCH_stream.json` at the repo root so later PRs can regress
//! against the recorded trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::bench_grid;
use dam_core::DamConfig;
use dam_fo::em::EmParams;
use dam_geo::rng::derived;
use dam_geo::Point;
use dam_stream::{StreamConfig, StreamingEstimator};
use rand::Rng;
use std::hint::black_box;

const D: u32 = 20;
const EPS: f64 = 3.5;
const WINDOW: usize = 6;
const INGEST_POINTS: usize = 100_000;
const EM_EPOCHS: usize = 16;
const EM_POINTS_PER_EPOCH: usize = 20_000;

/// Moving two-foci epoch (the fig_stream scenario at bench scale).
fn epoch_points(n: usize, epoch: usize) -> Vec<Point> {
    let u = (epoch as f64 * 0.03).min(1.0);
    let foci = [(0.15 + 0.70 * u, 0.25 + 0.30 * u), (0.85 - 0.70 * u, 0.75 - 0.30 * u)];
    let mut rng = derived(0xBE7C57 + epoch as u64, 11);
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.1 {
                return Point::new(rng.gen(), rng.gen());
            }
            let (cx, cy) = foci[usize::from(rng.gen::<f64>() < 0.45)];
            Point::new(
                (cx + 0.05 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                (cy + 0.05 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

fn streaming_config(em_cold: EmParams) -> StreamConfig {
    let dam = DamConfig { em: em_cold, ..DamConfig::dam(EPS) };
    StreamConfig::new(dam, WINDOW, 0xBE7C0022)
}

/// Manual warm-vs-cold measurement over a moving stream: returns
/// `(warm_iters, warm_ns, cold_iters, cold_ns)` means over full windows.
fn measure_em_per_window() -> (f64, f64, f64, f64) {
    let em_cold = EmParams { max_iters: 150, rel_tol: 1e-9, gain_tol: 1e-7 };
    let mut s = StreamingEstimator::new(bench_grid(D), streaming_config(em_cold));
    let mut acc = [0.0f64; 4];
    let mut n = 0.0f64;
    for e in 0..EM_EPOCHS {
        s.ingest_epoch(&epoch_points(EM_POINTS_PER_EPOCH, e));
        let t0 = std::time::Instant::now();
        let cold = s.estimate_window_cold();
        let cold_ns = t0.elapsed().as_nanos() as f64;
        let t1 = std::time::Instant::now();
        let warm = s.estimate_window();
        let warm_ns = t1.elapsed().as_nanos() as f64;
        if warm.warm && e + 1 >= WINDOW {
            acc[0] += warm.em_iters as f64;
            acc[1] += warm_ns;
            acc[2] += cold.em_iters as f64;
            acc[3] += cold_ns;
            n += 1.0;
        }
    }
    (acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n)
}

fn bench_streaming(c: &mut Criterion) {
    // Ingest: one epoch per iteration (report randomization, sharded
    // aggregation, window slide, ring store — the full epoch hot path).
    {
        let mut group = c.benchmark_group("stream_ingest");
        group.sample_size(10);
        let points = epoch_points(INGEST_POINTS, 3);
        let mut s = StreamingEstimator::new(
            bench_grid(D),
            streaming_config(EmParams { max_iters: 150, rel_tol: 1e-9, gain_tol: 1e-7 }),
        );
        group.bench_with_input(
            BenchmarkId::new("epoch", INGEST_POINTS),
            &INGEST_POINTS,
            |bench, _| {
                bench.iter(|| black_box(s.ingest_epoch(&points)));
            },
        );
        group.finish();
    }

    emit_bench_json(c);
}

fn emit_bench_json(c: &Criterion) {
    let median = |name: String| -> Option<f64> {
        c.results().iter().find(|(n, _)| n == &name).map(|&(_, ns)| ns)
    };
    let Some(ingest) = median(format!("stream_ingest/epoch/{INGEST_POINTS}")) else {
        eprintln!("stream_ingest results missing; not writing BENCH_stream.json");
        return;
    };
    let (warm_iters, warm_ns, cold_iters, cold_ns) = measure_em_per_window();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"streaming\",\n  \"d\": {D},\n  \"eps\": {EPS},\n  \
         \"window\": {WINDOW},\n  \"threads\": {threads},\n  \
         \"ingest\": {{\"points_per_epoch\": {INGEST_POINTS}, \
         \"median_ns_per_report\": {:.2}}},\n  \
         \"em_per_window\": {{\"points_per_epoch\": {EM_POINTS_PER_EPOCH}, \
         \"warm_iters\": {warm_iters:.1}, \"cold_iters\": {cold_iters:.1}, \
         \"iter_ratio\": {:.3}, \"warm_ns\": {warm_ns:.0}, \"cold_ns\": {cold_ns:.0}, \
         \"warm_speedup\": {:.2}}}\n}}\n",
        ingest / INGEST_POINTS as f64,
        warm_iters / cold_iters,
        cold_ns / warm_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    match std::fs::write(path, &json) {
        Ok(()) => {
            println!("wrote {path} (warm/cold EM iteration ratio {:.3})", warm_iters / cold_iters)
        }
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
