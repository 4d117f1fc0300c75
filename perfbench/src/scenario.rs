//! Workload inputs, each a pure function of `(seed, epoch)`: user
//! locations, the query bursts a reader sends, and the fault plans.
//!
//! The generator is the benchmark's own SplitMix64, not the program's
//! RNG, so a change to the program's random streams cannot change what
//! the benchmark feeds it.

use dam_fault::{FaultPlan, NodeFaultPlan};
use dam_geo::Point;

/// SplitMix64: a counter-based stream, seeded by one `u64`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream keyed by `(seed, salt, index)`.
    pub fn keyed(seed: u64, salt: u64, index: u64) -> Self {
        Rng(mix(seed ^ mix(salt ^ mix(index))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Two independent standard normal draws (Box–Muller).
    pub fn normal_pair(&mut self) -> (f64, f64) {
        let u = 1.0 - self.unit(); // (0, 1]: ln stays finite
        let r = (-2.0 * u.ln()).sqrt();
        let (s, c) = (std::f64::consts::TAU * self.unit()).sin_cos();
        (r * c, r * s)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_POINTS: u64 = 0xBE7C_0001;
const SALT_QUERIES: u64 = 0xBE7C_0002;
const SALT_FAULTS: u64 = 0xBE7C_0003;

/// Share of users reporting from the uniform background.
const BACKGROUND: f64 = 0.1;
/// Epochs per orbit of the foci: they never stop moving, so every
/// stretch of the stream is statistically alike and the window must
/// keep tracking.
const ORBIT_EPOCHS: f64 = 96.0;
/// Spread of a focus (standard deviation, unit-square units).
const FOCUS_SD: f64 = 0.05;

/// Where one user stands relative to the scene. Single precision keeps
/// the table at 12 MiB, so `peak_rss_mb` is mostly the program's.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// At a fixed uniform location.
    Background(f32, f32),
    /// At an offset from focus 0 or 1.
    Focus(u8, f32, f32),
}

/// Places drawn per run: an epoch of fewer users takes a different
/// stretch of them each time.
const PLACES: usize = 1 << 20;

/// The users of a run: two foci on counter-rotating orbits plus a
/// uniform background. [`PLACES`] places are drawn once from the seed;
/// epoch `e` moves the foci, takes `users` consecutive places from a
/// `(seed, e)`-keyed start, and mirrors the focus offsets. Drawing every
/// epoch afresh would cost more than the 1M-user epoch it feeds.
#[derive(Debug, Clone)]
pub struct Population {
    seed: u64,
    users: usize,
    places: Vec<Place>,
}

impl Population {
    pub fn new(seed: u64, users: usize) -> Self {
        let mut rng = Rng::keyed(seed, SALT_POINTS, u64::MAX);
        let places = (0..PLACES.max(users))
            .map(|_| {
                if rng.unit() < BACKGROUND {
                    return Place::Background(rng.unit() as f32, rng.unit() as f32);
                }
                let focus = u8::from(rng.unit() < 0.45);
                let (nx, ny) = rng.normal_pair();
                Place::Focus(focus, (FOCUS_SD * nx) as f32, (FOCUS_SD * ny) as f32)
            })
            .collect();
        Self { seed, users, places }
    }

    /// Epoch `epoch`'s user locations in the unit square.
    pub fn epoch(&self, epoch: usize) -> Vec<Point> {
        let theta = std::f64::consts::TAU * epoch as f64 / ORBIT_EPOCHS;
        let foci = [
            (0.5 + 0.25 * theta.cos(), 0.5 + 0.25 * theta.sin()),
            (0.5 - 0.2 * theta.sin(), 0.5 + 0.3 * theta.cos()),
        ];
        let draw = Rng::keyed(self.seed, SALT_POINTS, epoch as u64).next_u64();
        let start = (draw % self.places.len() as u64) as usize;
        let (sx, sy) = (mirror(draw >> 62), mirror(draw >> 63));
        let (head, tail) = self.places.split_at(start);
        tail.iter()
            .chain(head)
            .take(self.users)
            .map(|&place| match place {
                Place::Background(x, y) => Point::new(x.into(), y.into()),
                Place::Focus(f, dx, dy) => Point::new(
                    (foci[f as usize].0 + sx * f64::from(dx)).clamp(0.0, 1.0),
                    (foci[f as usize].1 + sy * f64::from(dy)).clamp(0.0, 1.0),
                ),
            })
            .collect()
    }
}

fn mirror(bit: u64) -> f64 {
    if bit & 1 == 1 {
        -1.0
    } else {
        1.0
    }
}

/// One query against a published snapshot, in cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Point {
        x: u32,
        y: u32,
    },
    /// Inclusive cell rectangle.
    Range {
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    },
    /// The `side × side` dyadic aggregate plane.
    Heatmap {
        side: u32,
    },
}

/// Range selectivities (share of the grid's cells) a burst cycles through.
pub const SELECTIVITIES: [f64; 3] = [0.125, 0.25, 0.5];

/// A uniformly placed rectangle covering `sel` of a `d × d` grid
/// (`d × d·sel` when `sel ≥ 1/2`, else `d/2 × 2d·sel`).
fn range(rng: &mut Rng, d: u32, sel: f64) -> Query {
    let (w, h) = if sel >= 0.5 {
        (d, ((d as f64 * sel).round() as u32).max(1))
    } else {
        let w = (d / 2).max(1);
        (w, ((2.0 * d as f64 * sel).round() as u32).clamp(1, d))
    };
    let (w, h) = if rng.unit() < 0.5 { (w, h) } else { (h, w) };
    let x0 = rng.below(d - w + 1);
    let y0 = rng.below(d - h + 1);
    Query::Range { x0, y0, x1: x0 + w - 1, y1: y0 + h - 1 }
}

/// The heatmap side a burst asks for: a quarter of the padded side.
pub fn heatmap_side(d: u32) -> u32 {
    (d.next_power_of_two() / 4).max(1)
}

/// Burst `index` of the closed-loop reader: `per_kind` point queries,
/// `per_kind` ranges at each selectivity of [`SELECTIVITIES`], and
/// `per_kind` heatmaps, interleaved.
pub fn mixed_burst(seed: u64, index: usize, d: u32, per_kind: usize) -> Vec<Query> {
    let mut rng = Rng::keyed(seed, SALT_QUERIES, index as u64);
    let side = heatmap_side(d);
    let mut out = Vec::with_capacity(per_kind * 5);
    for _ in 0..per_kind {
        out.push(Query::Point { x: rng.below(d), y: rng.below(d) });
        for sel in SELECTIVITIES {
            out.push(range(&mut rng, d, sel));
        }
        out.push(Query::Heatmap { side });
    }
    out
}

/// `n` queries of one kind (`0` point, `1` range at the selectivities in
/// turn, `2` heatmap) for the per-kind latencies of the traced run.
pub fn kind_batch(seed: u64, index: usize, d: u32, kind: usize, n: usize) -> Vec<Query> {
    let mut rng = Rng::keyed(seed ^ (kind as u64 + 1) << 56, SALT_QUERIES, index as u64);
    (0..n)
        .map(|i| match kind {
            0 => Query::Point { x: rng.below(d), y: rng.below(d) },
            1 => range(&mut rng, d, SELECTIVITIES[i % SELECTIVITIES.len()]),
            _ => Query::Heatmap { side: heatmap_side(d) },
        })
        .collect()
}

// The fault schedules are part of a workload's definition, like its
// grid size: keyed by a constant, not by the run's seed, so every run
// meets the same number of crashes and malformed reports. A handful of
// crash draws per run would otherwise move the delivered share and the
// epoch times by several percent from seed to seed.

/// Report corruption for the 1M-users workload: 2/3 % of reports hit,
/// three quarters of those malformed (out of domain, `NaN` or `∞`
/// coordinates, ~0.5 % of reports), the rest duplicated.
pub fn report_faults() -> FaultPlan {
    FaultPlan { corrupt: 0.02 / 3.0, ..FaultPlan::clean(SALT_FAULTS) }
}

/// Node faults for the durable cluster: crashes that keep a node down
/// for two epochs, deliveries delayed up to nine ticks (the longest miss
/// the coordinator's four polls at +0, +1, +3, +7), duplicates, and
/// corrupted planes.
pub fn node_faults() -> NodeFaultPlan {
    NodeFaultPlan {
        crash: 0.02,
        crash_len: 2,
        delay: 0.1,
        delay_max: 9,
        dup: 0.05,
        corrupt: 0.02,
        ..NodeFaultPlan::clean(SALT_FAULTS)
    }
}

/// Jacobi sweeps of one stencil probe (~1 ms on the fast state of a
/// 2 GHz core).
const PROBE_SWEEPS: usize = 600;
/// Tasks per pool thread a pool probe splits its work into, claimed one
/// by one as the program claims its shards, so a thread that falls behind
/// hands work to the others.
const POOL_PROBE_TASKS_PER_THREAD: usize = 4;
/// Query-shaped operations in one reader probe (~0.4 ms on the fast
/// state, about as long as its half of the stencil work).
const READER_PROBE_OPS: usize = 4000;

/// Host-speed control of the program's thread pool: one stencil probe's
/// work per thread of the program's default budget, run as small tasks on
/// the pool its parallel layers run on (no threads of the benchmark's
/// own). On a quiet host it takes ~1 ms; a busy vCPU slows it as it slows
/// the program's parallel epochs. Returns a sum of the work so it cannot
/// be optimised away.
pub fn pool_probe() -> f64 {
    let threads = rayon::current_num_threads();
    let tasks = POOL_PROBE_TASKS_PER_THREAD * threads;
    let sums = std::sync::Mutex::new(0.0);
    rayon::pool::run(tasks, None, |_| {
        let s = stencil(PROBE_SWEEPS / POOL_PROBE_TASKS_PER_THREAD);
        *sums.lock().unwrap_or_else(|e| e.into_inner()) += s;
    });
    sums.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Host-speed control of the reader's thread, made like a query: half a
/// stencil probe of arithmetic, then [`READER_PROBE_OPS`] operations each
/// of two clock reads, a reference-count round trip, a short row sum and
/// two atomic adds (a `QueryService` query times, snapshots and counts
/// itself around its pyramid lookup). The two halves take about equal
/// time and slow down differently on a busy host, the arithmetic more,
/// and together they slow as the reader's bursts do.
pub fn reader_probe() -> f64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    const ROWS: usize = 64 * 64;
    let table: Arc<Vec<f64>> = Arc::new((0..ROWS + 64).map(|i| (i % 13) as f64).collect());
    let counter = AtomicU64::new(0);
    let mut rng = Rng::keyed(0, SALT_QUERIES, u64::MAX);
    let mut sum = stencil(PROBE_SWEEPS / 2);
    for _ in 0..READER_PROBE_OPS {
        let t0 = Instant::now();
        let row = Arc::clone(&table);
        let start = rng.below(ROWS as u32) as usize;
        let len = 1 + rng.below(24) as usize;
        sum += row[start..start + len].iter().sum::<f64>();
        counter.fetch_add(1, Ordering::Relaxed);
        counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    std::hint::black_box(counter.load(Ordering::Relaxed));
    sum
}

/// Jacobi sweeps of a 5-point stencil over a fixed 64 × 64 plane: no
/// program code, so a change in its time is a change in the host.
fn stencil(sweeps: usize) -> f64 {
    const N: usize = 64;
    let mut a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64).collect();
    let mut b = vec![0.0; N * N];
    for _ in 0..sweeps {
        for y in 1..N - 1 {
            for x in 1..N - 1 {
                let i = y * N + x;
                b[i] = 0.25 * (a[i - 1] + a[i + 1] + a[i - N] + a[i + N]);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    std::hint::black_box(&a).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(points: &[Point]) -> Vec<(u64, u64)> {
        points.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let epoch = |seed, e| bits(&Population::new(seed, 500).epoch(e));
        assert_eq!(epoch(7, 3), epoch(7, 3));
        assert_ne!(epoch(7, 3), epoch(8, 3));
        assert_ne!(epoch(7, 3), epoch(7, 4));
        assert_eq!(mixed_burst(7, 2, 20, 3), mixed_burst(7, 2, 20, 3));
        assert_ne!(mixed_burst(7, 2, 20, 3), mixed_burst(7, 3, 20, 3));
        assert_eq!(kind_batch(7, 2, 64, 1, 9), kind_batch(7, 2, 64, 1, 9));
    }

    #[test]
    fn points_stay_in_the_unit_square() {
        let pts = Population::new(1, 20_000).epoch(17);
        assert_eq!(pts.len(), 20_000);
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
    }

    #[test]
    fn ranges_fit_the_grid_and_hit_their_selectivity() {
        for d in [20u32, 64] {
            for q in mixed_burst(3, 0, d, 40) {
                match q {
                    Query::Point { x, y } => assert!(x < d && y < d),
                    Query::Range { x0, y0, x1, y1 } => {
                        assert!(x0 <= x1 && x1 < d && y0 <= y1 && y1 < d);
                        let share = ((x1 - x0 + 1) * (y1 - y0 + 1)) as f64 / (d * d) as f64;
                        assert!(SELECTIVITIES.iter().any(|s| (share - s).abs() < 0.03), "{share}");
                    }
                    Query::Heatmap { side } => assert!(side.is_power_of_two() && side <= d),
                }
            }
        }
    }

    #[test]
    fn report_faults_break_about_half_a_percent() {
        let mut pts = Population::new(2, 100_000).epoch(0);
        report_faults().corrupt_points(0, &mut pts);
        let malformed = pts
            .iter()
            .filter(|p| !p.x.is_finite() || !p.y.is_finite() || p.x > 1.0 || p.x < 0.0)
            .count();
        assert!((400..600).contains(&malformed), "{malformed}");
    }
}
