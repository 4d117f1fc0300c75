//! The query service's own telemetry:
//!
//! 1. **Counts are exact** — after a fixed query script the per-kind
//!    query counters equal the queries issued, and
//!    `range_cover_nodes_total` equals the summed node counts of the
//!    covers the pyramid walked;
//! 2. **The deterministic plane does not see the readers** — it is
//!    bit-identical for 1 reader and for 4 readers racing each other,
//!    with span recording on or off;
//! 3. **Latency is sampled 1 in 64 per worker** — under a wall clock
//!    each latency histogram holds between ⌊n/64⌋ and ⌈n/64⌉ + threads
//!    samples for n queries of its kind.

#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "scrapes the registry from scoped threads and unwraps in helpers"
)]

use std::sync::Arc;

use dam_core::DamConfig;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{QueryService, StreamConfig};

const D: u32 = 12;
const EPOCHS: usize = 4;
const WINDOW: usize = 3;
const SEED: u64 = 0x5E41_0B5E;

fn epoch_batch(epoch: usize, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let k = i + 17 * epoch;
            Point::new(((k % 89) as f64 + 0.5) / 89.0, ((k % 61) as f64 + 0.5) / 61.0)
        })
        .collect()
}

fn service() -> QueryService {
    let grid = Grid2D::new(BoundingBox::unit(), D);
    QueryService::new(
        grid,
        StreamConfig::new(DamConfig::dam(2.5).with_threads(Some(2)), WINDOW, SEED),
    )
}

#[derive(Debug, Clone, Copy)]
enum Query {
    Point(u32, u32),
    Range(u32, u32, u32, u32),
    Heatmap(u32),
}

/// A fixed script of every kind, heatmap sides off the pyramid included.
fn script(len: usize) -> Vec<Query> {
    (0..len as u32)
        .map(|i| match i % 5 {
            0 | 3 => Query::Point((i * 7) % D, (i * 3) % D),
            1 | 4 => {
                let (a, b, c, e) = ((i * 5) % D, (i * 11) % D, (i * 13) % D, (i * 2) % D);
                Query::Range(a.min(c), b.min(e), a.max(c), b.max(e))
            }
            _ => Query::Heatmap([1, 2, 3, 4, 16][(i as usize / 5) % 5]),
        })
        .collect()
}

/// Queries of each kind (point, range, heatmap) in `queries`.
fn per_kind(queries: &[Query]) -> [u64; 3] {
    let mut n = [0u64; 3];
    for q in queries {
        n[match q {
            Query::Point(..) => 0,
            Query::Range(..) => 1,
            Query::Heatmap(..) => 2,
        }] += 1;
    }
    n
}

fn ask(svc: &QueryService, q: Query) -> u64 {
    match q {
        Query::Point(x, y) => svc.point(x, y).to_bits(),
        Query::Range(x0, y0, x1, y1) => svc.range(x0, y0, x1, y1).to_bits(),
        Query::Heatmap(side) => svc.heatmap(side).map_or(0, |h| h.len() as u64),
    }
}

/// Runs `queries` split over `readers` racing threads; returns the
/// answers' bits in script order.
fn race(svc: &QueryService, queries: &[Query], readers: usize) -> Vec<u64> {
    let share = queries.len().div_ceil(readers);
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(share)
            .map(|chunk| s.spawn(move || chunk.iter().map(|&q| ask(svc, q)).collect::<Vec<_>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reader panicked")).collect()
    })
}

#[test]
fn query_counters_and_cover_total_match_the_script() {
    let svc = service();
    let queries = script(500);
    let mut cover = 0u64;
    for e in 0..EPOCHS {
        svc.ingest_epoch(&epoch_batch(e, 2_000));
        let snap = svc.snapshot();
        for &q in &queries {
            ask(&svc, q);
            if let Query::Range(x0, y0, x1, y1) = q {
                cover += snap.pyramid.range_sum_counted(x0, y0, x1, y1).1 as u64;
            }
        }
    }
    let obs = svc.obs();
    let issued = per_kind(&queries).map(|n| n * EPOCHS as u64);
    for (name, n) in ["service_queries_point", "service_queries_range", "service_queries_heatmap"]
        .iter()
        .zip(issued)
    {
        assert_eq!(obs.counter_value(name), n, "{name}");
    }
    assert!(cover > 0);
    assert_eq!(obs.counter_value("range_cover_nodes_total"), cover);
}

/// The deterministic plane and every answer after the script ran
/// between epochs on `readers` threads, with span recording `enabled`
/// and latency samples read off a wall clock (`wall`) or the default
/// frozen logical one.
fn run(readers: usize, enabled: bool, wall: bool) -> (String, Vec<u64>) {
    let svc = service();
    svc.obs().set_enabled(enabled);
    if wall {
        svc.obs().set_clock(Arc::new(dam_obs::WallClock::new()));
    }
    let queries = script(400);
    let mut answers = race(&svc, &queries, readers);
    for e in 0..EPOCHS {
        svc.ingest_epoch(&epoch_batch(e, 2_000));
        answers.extend(race(&svc, &queries, readers));
    }
    svc.snapshot_age_ns();
    (svc.obs().snapshot().deterministic_plane(), answers)
}

/// The plane without its span counts, which `set_enabled(false)`
/// removes by design.
fn without_spans(plane: &str) -> String {
    plane.lines().filter(|l| !l.starts_with("span ")).map(|l| format!("{l}\n")).collect()
}

#[test]
fn deterministic_plane_is_bit_identical_for_racing_readers_and_recording_toggle() {
    let (plane_ref, answers_ref) = run(1, true, false);
    for (readers, enabled, wall) in
        [(4, true, false), (1, true, true), (4, true, true), (1, false, false), (4, false, true)]
    {
        let (plane, answers) = run(readers, enabled, wall);
        let at = format!("{readers} readers, enabled {enabled}, wall clock {wall}");
        assert_eq!(answers_ref, answers, "answers moved at {at}");
        if enabled {
            assert_eq!(plane_ref, plane, "plane moved at {at}");
        } else {
            assert_eq!(without_spans(&plane_ref), plane, "plane moved at {at}");
        }
    }
    for needle in [
        "counter service_queries_point 800",
        "counter service_queries_range 800",
        "counter service_queries_heatmap 400",
        "counter range_cover_nodes_total",
        "gauge service_snapshot_epoch",
        "span publish count=4",
    ] {
        assert!(plane_ref.contains(needle), "deterministic plane lost {needle:?}:\n{plane_ref}");
    }
    // Latency and age are timing-plane only.
    assert!(!plane_ref.contains("service_query_point_ns"));
    assert!(!plane_ref.contains("service_snapshot_age_ns"));
}

#[test]
fn latency_is_sampled_one_in_64_per_worker() {
    let queries = script(3_001);
    for threads in [1usize, 3] {
        // A fresh service per round: every worker cell starts at zero,
        // so a cell answering c queries of a kind times ⌈c/64⌉ of them.
        let svc = service();
        svc.obs().set_clock(Arc::new(dam_obs::WallClock::new()));
        svc.ingest_epoch(&epoch_batch(0, 2_000));
        race(&svc, &queries, threads);
        let snap = svc.obs().snapshot();
        let names =
            ["service_query_point_ns", "service_query_range_ns", "service_query_heatmap_ns"];
        for (name, n) in names.iter().zip(per_kind(&queries)) {
            let got =
                snap.histograms.iter().find(|(h, _, _)| h == name).map_or(0, |(_, _, h)| h.count);
            let (lo, hi) = (n / 64, n.div_ceil(64) + threads as u64);
            assert!((lo..=hi).contains(&got), "{name}: {got} samples for {n} queries on {threads}");
        }
    }
}
