//! Grid-separable entropic OT: Sinkhorn between histograms on a shared
//! `d × d` grid, in `O(d³)` work and `O(d²)` memory per iteration.
//!
//! For two histograms on the *same* grid with the squared-Euclidean
//! cell-unit cost `C = Δx² + Δy²`, the Gibbs kernel factorizes as a
//! row ⊗ column product of 1-D kernels:
//!
//! ```text
//! exp(-C/η) = exp(-Δy²/η) · exp(-Δx²/η)
//! ```
//!
//! so one Sinkhorn scaling update is a pair of axis-wise kernel
//! applications — `O(d³) = O(n^{3/2})` multiply-adds on `O(d²)` state —
//! instead of a dense solver's `O(n²)` sweep over a materialized
//! `n × n` cost matrix (134 MB at `d = 64`). Everything downstream of the
//! iterations stays factorized too:
//!
//! * **log-domain stabilization** — potentials live in the log domain and
//!   every axis pass absorbs the running maximum before exponentiating
//!   (a shared per-row maximum on the x pass, a shared per-column maximum
//!   on the y pass), so the inner `d³` loops are pure multiply-adds over
//!   weights in `[0, 1]` and the solver never overflows however small the
//!   regularisation gets;
//! * **feasible cost** — the approximate coupling is rounded onto the
//!   transport polytope (Altschuler, Weed & Rigollet 2017, Algorithm 2)
//!   entirely in factorized form: the row/column scalings absorb into the
//!   dual potentials, the transport cost splits per axis through
//!   cost-weighted 1-D kernels (`Δ² · exp(-Δ²/η)`), and the rank-one
//!   deficit correction reduces to axis marginals — the coupling is never
//!   materialized, and the returned value is the cost of a *feasible*
//!   coupling, i.e. an upper bound on the optimum that converges to it as
//!   the regularisation shrinks.
//!
//! The solver is serial: one call runs on its caller's thread in one fixed
//! arithmetic order. At the largest grid any figure measures (`d = 64`)
//! an axis pass is `d³ ≈ 2.6·10⁵` multiply-adds, below the ~10⁶ at which
//! handing rows to a worker pool pays for its handoff; parallelism lives
//! one level up, where the figure runner runs independent W₂ jobs as
//! units of the persistent pool.
//!
//! The ε-scaling schedule, warm-start iteration cap and stopping rule are
//! those of the textbook dense log-domain solver, which the test module
//! keeps as the equivalence reference: on full-support grids (where both
//! derive the same regularisation scale) the two costs agree to roundoff.

use crate::exact::{check_finite, TransportError};

/// Tuning knobs for [`grid_sinkhorn_cost`].
#[derive(Debug, Clone, Copy)]
pub struct SinkhornParams {
    /// Final regularisation strength, *relative to the largest ground cost*
    /// (`reg_abs = reg_rel · max(C)`). Smaller is more accurate but slower.
    pub reg_rel: f64,
    /// Maximum Sinkhorn iterations in the *final* ε-scaling stage.
    pub max_iters: usize,
    /// Stop a stage when the L1 marginal violation drops below this.
    pub tol: f64,
    /// Iteration cap for every *intermediate* ε-scaling stage. Warm-start
    /// stages only need to move the dual potentials into the right
    /// neighbourhood before the regularisation halves again, so running
    /// them to `max_iters`/`tol` wastes almost their entire budget; a
    /// small cap reserves the budget for the final stage (the measured
    /// speedup is recorded in `BENCH_w2.json`). Use `usize::MAX` for the
    /// legacy run-every-stage-to-convergence behaviour.
    pub warm_start_iters: usize,
}

impl Default for SinkhornParams {
    fn default() -> Self {
        Self { reg_rel: 2e-3, max_iters: 2000, tol: 1e-9, warm_start_iters: 10 }
    }
}

/// Floor for log-sum-exp results feeding a potential update, slightly
/// inside `ln(f64::MIN_POSITIVE)`. The axis passes stabilise with the
/// *potential* maxima only (that is what keeps the inner loops pure
/// multiply-adds), so a pass can underflow to an all-zero sum — `-∞` —
/// for a mass-bearing cell when `1/reg_rel` exceeds ~745. Flooring the
/// LSE there keeps the dual update finite ("everything looks ~745·reg
/// away"); the rounding step then routes that cell's mass through the
/// rank-one correction, so the returned cost stays feasible.
const LSE_FLOOR: f64 = -745.0;

/// Computes an entropically-regularised transport cost between two
/// histograms on the same `d × d` grid (row-major, `d·iy + ix` indexing)
/// under the squared-Euclidean cell-unit cost, returning the cost of a
/// feasible (rounded) coupling.
///
/// Masses are rescaled to sum to one, like [`crate::exact::solve_exact`]; zero
/// cells are allowed anywhere (including whole empty rows/columns of the
/// grid) — they simply pin the matching dual potential at `-∞`.
///
/// # Panics
/// Panics if `a` or `b` is not `d²` long.
pub fn grid_sinkhorn_cost(
    a: &[f64],
    b: &[f64],
    d: usize,
    params: SinkhornParams,
) -> Result<f64, TransportError> {
    let n = d * d;
    assert_eq!(a.len(), n, "source histogram does not match a {d}x{d} grid");
    assert_eq!(b.len(), n, "target histogram does not match a {d}x{d} grid");
    check_finite(a)?;
    check_finite(b)?;
    let sa: f64 = a.iter().sum();
    let sb: f64 = b.iter().sum();
    if sa <= 0.0 || sb <= 0.0 {
        return Err(TransportError::EmptyDistribution);
    }
    if ((sa - sb) / sa.max(sb)).abs() > 1e-6 {
        return Err(TransportError::UnbalancedMass { source: sa, target: sb });
    }
    let av: Vec<f64> = a.iter().map(|&x| (x / sa).max(0.0)).collect();
    let bv: Vec<f64> = b.iter().map(|&x| (x / sb).max(0.0)).collect();

    // Regularisation scale: the per-axis support extents give
    // `max Δx² + max Δy²`, an upper bound on the largest support-pair
    // cost within a factor of 2 (and exactly that `max(C)` whenever both
    // extremes are attained by one pair, e.g. on full-grid supports). A
    // scale, not a correctness condition.
    let (ax, ay) = support_extent(&av, d);
    let (bx, by) = support_extent(&bv, d);
    let axis_gap = |(amin, amax): (usize, usize), (bmin, bmax): (usize, usize)| -> f64 {
        (amax as i64 - bmin as i64).max(bmax as i64 - amin as i64).max(0) as f64
    };
    let cmax = axis_gap(ax, bx).powi(2) + axis_gap(ay, by).powi(2);
    if cmax == 0.0 {
        return Ok(0.0); // both supports share a single cell
    }
    let reg_final = (params.reg_rel * cmax).max(1e-300);

    let la: Vec<f64> = av.iter().map(|x| x.ln()).collect();
    let lb: Vec<f64> = bv.iter().map(|x| x.ln()).collect();
    let mut f = vec![0.0f64; n];
    let mut g = vec![0.0f64; n];
    let mut lse = vec![0.0f64; n];
    let mut pass = AxisPass::new(d);

    // ε-scaling: the regularisation decays geometrically from half the
    // cost scale. Intermediate stages only warm-start the potentials, so
    // they run under the (small) `warm_start_iters` cap; the final stage
    // gets the whole `max_iters`/`tol` budget. Potentials in cost units
    // carry across stages unchanged.
    let mut reg = (0.5 * cmax).max(reg_final);
    loop {
        let iters = if reg <= reg_final {
            params.max_iters
        } else {
            params.warm_start_iters.min(params.max_iters)
        };
        let k = plain_kernel(d, reg);
        for _ in 0..iters {
            // f update: f_i = reg * (log a_i - LSE_j((g_j - C_ij)/reg));
            // zero-mass cells keep their potential pinned at -∞.
            pass.apply(&g, reg, &k, &k, &mut lse);
            for i in 0..n {
                f[i] = if la[i] == f64::NEG_INFINITY {
                    f64::NEG_INFINITY
                } else {
                    reg * (la[i] - lse[i].max(LSE_FLOOR))
                };
            }
            // g update, with the column-marginal residual read off the
            // same LSE terms: with the fresh `f`, column `j` of the
            // coupling under the *old* `g` sums to
            // `exp(g_j/reg + LSE_i((f_i - C_ij)/reg))`, so the L1
            // residual needs no coupling materialisation.
            pass.apply(&f, reg, &k, &k, &mut lse);
            let mut err = 0.0;
            for j in 0..n {
                err += ((g[j] / reg + lse[j]).exp() - bv[j]).abs();
                g[j] = if lb[j] == f64::NEG_INFINITY {
                    f64::NEG_INFINITY
                } else {
                    reg * (lb[j] - lse[j].max(LSE_FLOOR))
                };
            }
            if err < params.tol {
                break;
            }
        }
        if reg <= reg_final {
            break;
        }
        reg = (reg * 0.5).max(reg_final);
    }
    // --- Rounding onto the transport polytope, in factorized form. ---
    // Diagonal scalings absorb into the dual potentials: scaling row i by
    // s ≤ 1 is f_i += reg·ln s, so the "almost coupling" stays implicit.
    let reg = reg_final;
    let k = plain_kernel(d, reg);

    // Scale rows down to at most their target marginal.
    pass.apply(&g, reg, &k, &k, &mut lse);
    for i in 0..n {
        let lrow = f[i] / reg + lse[i];
        if lrow > la[i] {
            f[i] -= reg * (lrow - la[i]);
        }
    }
    // Scale columns down to at most their target marginal; the clamped
    // columns have zero deficit, the rest `b_j - col_j` exactly.
    pass.apply(&f, reg, &k, &k, &mut lse);
    let mut erb = vec![0.0f64; n];
    for j in 0..n {
        let lcol = g[j] / reg + lse[j];
        if lcol > lb[j] {
            g[j] -= reg * (lcol - lb[j]);
        } else {
            erb[j] = (bv[j] - lcol.exp()).max(0.0);
        }
    }
    // Row deficits after both scalings.
    pass.apply(&g, reg, &k, &k, &mut lse);
    let mut era = vec![0.0f64; n];
    for i in 0..n {
        era[i] = (av[i] - (f[i] / reg + lse[i]).exp()).max(0.0);
    }

    // Transport cost of the scaled coupling: C = Δx² + Δy² splits per
    // axis, so ⟨P, C⟩ is two more pass pairs with a cost-weighted kernel
    // on one axis and the plain kernel on the other.
    let kc = cost_kernel(d, reg);
    let mut total = 0.0;
    for (weighted_x, weighted_y) in [(&kc, &k), (&k, &kc)] {
        pass.apply(&g, reg, weighted_x, weighted_y, &mut lse);
        for i in 0..n {
            let term = (f[i] / reg + lse[i]).exp();
            if term > 0.0 {
                total += term;
            }
        }
    }

    // Rank-one deficit correction era ⊗ erb / ‖era‖₁: its cost also
    // splits per axis through the deficits' axis marginals, so the
    // correction is never materialized either.
    let ta: f64 = era.iter().sum();
    if ta > 0.0 {
        let (eax, eay) = axis_marginals(&era, d);
        let (ebx, eby) = axis_marginals(&erb, d);
        let mut corr = 0.0;
        for (ea, eb) in [(&eax, &ebx), (&eay, &eby)] {
            for (i, &wa) in ea.iter().enumerate() {
                if wa == 0.0 {
                    continue;
                }
                for (j, &wb) in eb.iter().enumerate() {
                    let delta = i.abs_diff(j) as f64;
                    corr += wa * wb * delta * delta;
                }
            }
        }
        total += corr / ta;
    }
    Ok(total)
}

/// `(min, max)` nonzero index along x and y of a row-major `d × d` mass
/// vector (the caller guarantees at least one positive cell).
fn support_extent(v: &[f64], d: usize) -> ((usize, usize), (usize, usize)) {
    let (mut x0, mut x1, mut y0, mut y1) = (usize::MAX, 0, usize::MAX, 0);
    for (i, &m) in v.iter().enumerate() {
        if m > 0.0 {
            let (ix, iy) = (i % d, i / d);
            x0 = x0.min(ix);
            x1 = x1.max(ix);
            y0 = y0.min(iy);
            y1 = y1.max(iy);
        }
    }
    ((x0, x1), (y0, y1))
}

/// 1-D Gibbs kernel `k[Δ] = exp(-Δ²/reg)` for offsets `0..d`.
fn plain_kernel(d: usize, reg: f64) -> Vec<f64> {
    (0..d).map(|delta| (-((delta * delta) as f64) / reg).exp()).collect()
}

/// Cost-weighted 1-D kernel `k[Δ] = Δ² · exp(-Δ²/reg)` (the per-axis
/// factor of ⟨P, C⟩; its `Δ = 0` entry is zero by construction).
fn cost_kernel(d: usize, reg: f64) -> Vec<f64> {
    (0..d).map(|delta| ((delta * delta) as f64) * (-((delta * delta) as f64) / reg).exp()).collect()
}

/// Sums a row-major `d × d` vector onto its x and y axis marginals.
fn axis_marginals(v: &[f64], d: usize) -> (Vec<f64>, Vec<f64>) {
    let mut mx = vec![0.0f64; d];
    let mut my = vec![0.0f64; d];
    for (i, &m) in v.iter().enumerate() {
        mx[i % d] += m;
        my[i / d] += m;
    }
    (mx, my)
}

/// Reusable scratch for one separable log-domain kernel application.
///
/// [`AxisPass::apply`] computes, for a potential `φ` in cost units,
///
/// ```text
/// out[iy·d + ix] = LSE_{jy,jx}( ln ky[|iy-jy|] + ln kx[|ix-jx|] + φ[jy·d + jx]/reg )
/// ```
///
/// as four row sweeps: stabilised x-axis weights, the x-axis
/// kernel contraction, stabilised y-axis weights, the y-axis kernel
/// contraction — `2·d³` multiply-adds and `2·d²` exponentials total.
struct AxisPass {
    d: usize,
    /// Row-stabilised weights `exp((φ - rowmax)/reg)` for the x pass.
    w: Vec<f64>,
    /// Log x-axis contractions `rowmax/reg + ln Σ_jx kx·w`.
    t: Vec<f64>,
    /// Column maxima of `t` (the y-pass stabiliser).
    colmax: Vec<f64>,
    /// Column-stabilised weights `exp(t - colmax)` for the y pass.
    u: Vec<f64>,
}

impl AxisPass {
    fn new(d: usize) -> Self {
        Self {
            d,
            w: vec![0.0; d * d],
            t: vec![0.0; d * d],
            colmax: vec![0.0; d],
            u: vec![0.0; d * d],
        }
    }

    fn apply(&mut self, phi: &[f64], reg: f64, kx: &[f64], ky: &[f64], out: &mut [f64]) {
        let Self { d, w, t, colmax, u } = self;
        let d = *d;
        // Pass 1 — x-axis weights, stabilised by the shared row maximum
        // (shared so the weights can be reused by every output column):
        // all-empty rows (whole grid rows of zero mass, `max = -∞`) get
        // zero weight rather than `exp(-∞ + ∞) = NaN`.
        for (jy, row) in w.chunks_mut(d).enumerate() {
            let m = row_max(&phi[jy * d..(jy + 1) * d]);
            if m == f64::NEG_INFINITY {
                row.fill(0.0);
            } else {
                for (jx, wv) in row.iter_mut().enumerate() {
                    *wv = ((phi[jy * d + jx] - m) / reg).exp();
                }
            }
        }
        // Pass 2 — x-axis kernel contraction per source row; the row
        // maximum is recomputed (d ops against d² multiply-adds) so the
        // sweep needs no cross-row scratch.
        for (jy, row) in t.chunks_mut(d).enumerate() {
            let m = row_max(&phi[jy * d..(jy + 1) * d]);
            if m == f64::NEG_INFINITY {
                row.fill(f64::NEG_INFINITY);
                continue;
            }
            let wrow = &w[jy * d..(jy + 1) * d];
            for (ix, tv) in row.iter_mut().enumerate() {
                let mut s = 0.0;
                for (jx, &wv) in wrow.iter().enumerate() {
                    s += kx[ix.abs_diff(jx)] * wv;
                }
                *tv = m / reg + s.ln();
            }
        }
        // Column maxima (serial O(d²): strided reads, negligible work).
        colmax.fill(f64::NEG_INFINITY);
        for jy in 0..d {
            for (ix, cm) in colmax.iter_mut().enumerate() {
                *cm = cm.max(t[jy * d + ix]);
            }
        }
        // Pass 3 — y-axis weights, stabilised by the shared column
        // maximum (same all-empty guard as pass 1, per element).
        for (jy, row) in u.chunks_mut(d).enumerate() {
            for (ix, uv) in row.iter_mut().enumerate() {
                let tv = t[jy * d + ix];
                *uv = if tv == f64::NEG_INFINITY { 0.0 } else { (tv - colmax[ix]).exp() };
            }
        }
        // Pass 4 — y-axis kernel contraction into the output rows; the
        // inner loop runs over contiguous `u` rows so it vectorises.
        for (iy, row) in out.chunks_mut(d).enumerate() {
            row.fill(0.0);
            for jy in 0..d {
                let kv = ky[iy.abs_diff(jy)];
                let urow = &u[jy * d..(jy + 1) * d];
                for (acc, &uv) in row.iter_mut().zip(urow) {
                    *acc += kv * uv;
                }
            }
            for (ix, acc) in row.iter_mut().enumerate() {
                *acc = colmax[ix] + acc.ln();
            }
        }
    }
}

/// Maximum of a slice with `-∞` as the empty/all-`-∞` value.
fn row_max(xs: &[f64]) -> f64 {
    xs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::CostMatrix;
    use crate::exact::solve_exact;
    use dam_geo::Point;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The dense log-domain Sinkhorn solver that [`grid_sinkhorn_cost`]
    /// factorizes, kept only as its equivalence reference: the same
    /// ε-scaling schedule, warm-start cap, stopping rule and polytope
    /// rounding, run on an explicit support-pair cost matrix (`O(m·n)`
    /// per iteration). Masses are rescaled to sum to one.
    pub(crate) fn dense_sinkhorn_cost(
        a: &[f64],
        b: &[f64],
        cost: &CostMatrix,
        params: SinkhornParams,
    ) -> f64 {
        let (sa, sb): (f64, f64) = (a.iter().sum(), b.iter().sum());
        let rows: Vec<usize> = (0..a.len()).filter(|&i| a[i] > 0.0).collect();
        let cols: Vec<usize> = (0..b.len()).filter(|&j| b[j] > 0.0).collect();
        let (m, n) = (rows.len(), cols.len());
        let av: Vec<f64> = rows.iter().map(|&i| a[i] / sa).collect();
        let bv: Vec<f64> = cols.iter().map(|&j| b[j] / sb).collect();
        let mut c = vec![0.0f64; m * n];
        for (ii, &i) in rows.iter().enumerate() {
            for (jj, &j) in cols.iter().enumerate() {
                c[ii * n + jj] = cost.at(i, j);
            }
        }
        let cmax = c.iter().fold(0.0f64, |x, &y| x.max(y));
        if cmax == 0.0 {
            return 0.0;
        }
        let reg_final = (params.reg_rel * cmax).max(1e-300);
        let log_a: Vec<f64> = av.iter().map(|x| x.ln()).collect();
        let log_b: Vec<f64> = bv.iter().map(|x| x.ln()).collect();
        let (mut f, mut g) = (vec![0.0f64; m], vec![0.0f64; n]);
        let mut scratch = vec![0.0f64; m.max(n)];
        let mut reg = (0.5 * cmax).max(reg_final);
        loop {
            let iters = if reg <= reg_final {
                params.max_iters
            } else {
                params.warm_start_iters.min(params.max_iters)
            };
            for _ in 0..iters {
                for i in 0..m {
                    for (j, s) in scratch[..n].iter_mut().enumerate() {
                        *s = (g[j] - c[i * n + j]) / reg;
                    }
                    f[i] = reg * (log_a[i] - logsumexp(&scratch[..n]));
                }
                let mut err = 0.0;
                for j in 0..n {
                    for (i, s) in scratch[..m].iter_mut().enumerate() {
                        *s = (f[i] - c[i * n + j]) / reg;
                    }
                    let lse = logsumexp(&scratch[..m]);
                    err += ((g[j] / reg + lse).exp() - log_b[j].exp()).abs();
                    g[j] = reg * (log_b[j] - lse);
                }
                if err < params.tol {
                    break;
                }
            }
            if reg <= reg_final {
                break;
            }
            reg = (reg * 0.5).max(reg_final);
        }
        let mut p = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                p[i * n + j] = ((f[i] + g[j] - c[i * n + j]) / reg_final).exp();
            }
        }
        round_to_polytope(&mut p, &av, &bv, m, n);
        p.iter().zip(&c).map(|(x, y)| x * y).sum()
    }

    fn logsumexp(xs: &[f64]) -> f64 {
        let mx = row_max(xs);
        if mx == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        mx + xs.iter().map(|x| (x - mx).exp()).sum::<f64>().ln()
    }

    /// Altschuler, Weed & Rigollet (2017), Algorithm 2 on a dense
    /// coupling: scale rows, then columns, down to their marginals and
    /// add the rank-one deficit correction.
    fn round_to_polytope(p: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize) {
        for i in 0..m {
            let row: f64 = p[i * n..(i + 1) * n].iter().sum();
            if row > a[i] && row > 0.0 {
                let s = a[i] / row;
                for v in &mut p[i * n..(i + 1) * n] {
                    *v *= s;
                }
            }
        }
        let col_sum = |p: &[f64], j: usize| (0..m).map(|i| p[i * n + j]).sum::<f64>();
        for j in 0..n {
            let col = col_sum(p, j);
            if col > b[j] && col > 0.0 {
                let s = b[j] / col;
                for i in 0..m {
                    p[i * n + j] *= s;
                }
            }
        }
        let era: Vec<f64> =
            (0..m).map(|i| (a[i] - p[i * n..(i + 1) * n].iter().sum::<f64>()).max(0.0)).collect();
        let erb: Vec<f64> = (0..n).map(|j| (b[j] - col_sum(p, j)).max(0.0)).collect();
        let ta: f64 = era.iter().sum();
        if ta > 0.0 {
            for i in 0..m {
                for j in 0..n {
                    p[i * n + j] += era[i] * erb[j] / ta;
                }
            }
        }
    }

    /// Cell-center support points of a full `d × d` grid, matching the
    /// convention of `metrics::cell_unit_support`.
    fn grid_points(d: usize) -> Vec<Point> {
        (0..d * d).map(|i| Point::new((i % d) as f64 + 0.5, (i / d) as f64 + 0.5)).collect()
    }

    fn normalized(mut v: Vec<f64>) -> Vec<f64> {
        let s: f64 = v.iter().sum();
        for x in &mut v {
            *x /= s;
        }
        v
    }

    fn random_grid_dist(d: usize, rng: &mut impl Rng) -> Vec<f64> {
        normalized((0..d * d).map(|_| rng.gen::<f64>() + 0.01).collect())
    }

    /// Normalized mass vectors over a `d × d` grid with zero cells allowed
    /// (roughly half the cells empty on average), so the separable solver
    /// sees sparse supports, empty grid rows/columns and non-uniform masses.
    fn grid_masses(d: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(0.0f64..1.0, d * d)
            .prop_map(|v| {
                // Threshold to a sparse mask: draws below ½ become empty
                // cells, the rest keep their (non-uniform) mass.
                v.into_iter().map(|x| if x < 0.5 { 0.0 } else { x }).collect::<Vec<f64>>()
            })
            .prop_filter("needs some mass", |v: &Vec<f64>| v.iter().sum::<f64>() > 0.0)
            .prop_map(normalized)
    }

    /// A grid side and two full-support mass vectors on it.
    fn full_support_pair() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
        (3usize..8).prop_flat_map(|d| {
            let full = move || prop::collection::vec(0.01f64..1.0, d * d).prop_map(normalized);
            (Just(d), full(), full())
        })
    }

    /// Relative gap between the grid solver and the dense reference.
    fn rel_gap(grid: f64, dense: f64) -> f64 {
        (grid - dense).abs() / dense
    }

    #[test]
    fn matches_dense_sinkhorn_and_exact_on_random_grids() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for d in [4usize, 6, 8] {
            let a = random_grid_dist(d, &mut rng);
            let b = random_grid_dist(d, &mut rng);
            let pts = grid_points(d);
            let cost = CostMatrix::euclidean_pow(&pts, &pts, 2);
            let exact = solve_exact(&a, &b, &cost).unwrap().cost;
            let dense = dense_sinkhorn_cost(&a, &b, &cost, SinkhornParams::default());
            let grid = grid_sinkhorn_cost(&a, &b, d, SinkhornParams::default()).unwrap();
            // Rounded coupling => feasible => cost >= optimum.
            assert!(grid >= exact - 1e-9, "d={d}: grid {grid} below exact {exact}");
            assert!(
                (grid - exact).abs() <= 0.05 * exact.max(0.05),
                "d={d}: grid {grid} vs exact {exact}"
            );
            // Full supports give both solvers the same regularisation
            // scale, so the factorized iteration must reproduce the dense
            // one to roundoff — not merely to entropic tolerance.
            assert!(rel_gap(grid, dense) <= 1e-9, "d={d}: grid {grid} vs dense {dense}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The grid-separable solver, the dense reference and the exact LP
        /// agree within entropic tolerance on the same grid instance —
        /// including sparse masks (zero cells, empty grid rows/columns)
        /// and non-uniform masses, where the grid solver's per-axis cost
        /// scale differs from the dense `max(C)`. The grid cost must also
        /// stay feasible (≥ the optimum) thanks to polytope rounding.
        #[test]
        fn grid_sinkhorn_matches_dense_and_exact(
            a in grid_masses(5),
            b in grid_masses(5),
        ) {
            let d = 5usize;
            let pts = grid_points(d);
            let cost = CostMatrix::euclidean_pow(&pts, &pts, 2);
            let exact = solve_exact(&a, &b, &cost).unwrap().cost;
            let dense = dense_sinkhorn_cost(&a, &b, &cost, SinkhornParams::default());
            let grid = grid_sinkhorn_cost(&a, &b, d, SinkhornParams::default()).unwrap();
            prop_assert!(grid >= exact - 1e-9, "grid {grid} below optimum {exact}");
            let tol = 0.05 * exact.max(0.05);
            prop_assert!((grid - exact).abs() <= tol, "grid {grid} vs exact {exact}");
            prop_assert!((grid - dense).abs() <= tol, "grid {grid} vs dense {dense}");
        }

        /// On full supports the factorization is exact: grid ≡ dense to
        /// 1e-9 relative at every grid side.
        #[test]
        fn grid_sinkhorn_equals_dense_on_full_support(case in full_support_pair()) {
            let (d, a, b) = case;
            let pts = grid_points(d);
            let cost = CostMatrix::euclidean_pow(&pts, &pts, 2);
            let dense = dense_sinkhorn_cost(&a, &b, &cost, SinkhornParams::default());
            let grid = grid_sinkhorn_cost(&a, &b, d, SinkhornParams::default()).unwrap();
            prop_assert!(rel_gap(grid, dense) <= 1e-9, "d={d}: grid {grid} vs dense {dense}");
        }
    }

    #[test]
    fn identical_distributions_cost_near_zero() {
        // The residual is pure entropic blur, proportional to
        // `reg_rel · cmax` (= 0.256 on a 9×9 grid): a few % of the
        // nearest-neighbour cost, far below any real displacement.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = random_grid_dist(9, &mut rng);
        let cost = grid_sinkhorn_cost(&a, &a, 9, SinkhornParams::default()).unwrap();
        assert!(cost < 0.1, "cost {cost}");
    }

    #[test]
    fn delta_to_delta_is_the_squared_cell_distance() {
        // With singleton supports the only feasible coupling is the atom
        // pair, so rounding recovers the exact cost.
        let d = 16usize;
        let mut a = vec![0.0; d * d];
        let mut b = vec![0.0; d * d];
        a[2 * d + 3] = 1.0; // (x=3, y=2)
        b[11 * d + 9] = 1.0; // (x=9, y=11)
        let want = (9.0f64 - 3.0).powi(2) + (11.0f64 - 2.0).powi(2);
        let got = grid_sinkhorn_cost(&a, &b, d, SinkhornParams::default()).unwrap();
        assert!((got - want).abs() <= 1e-6 * want, "got {got} want {want}");
    }

    #[test]
    fn handles_empty_grid_rows_and_columns() {
        // Mass confined to disjoint horizontal bands: whole grid rows
        // (and the transpose: columns) carry zero mass on each side.
        let d = 8usize;
        let mut a = vec![0.0; d * d];
        let mut b = vec![0.0; d * d];
        for ix in 0..d {
            a[ix] = 1.0; // bottom row only
            b[(d - 1) * d + ix] = 1.0; // top row only
        }
        let pts = grid_points(d);
        let cost = CostMatrix::euclidean_pow(&pts, &pts, 2);
        let exact =
            solve_exact(&normalized(a.clone()), &normalized(b.clone()), &cost).unwrap().cost;
        let grid = grid_sinkhorn_cost(&a, &b, d, SinkhornParams::default()).unwrap();
        assert!(grid >= exact - 1e-9);
        assert!((grid - exact).abs() <= 0.05 * exact, "grid {grid} exact {exact}");

        let mut at = vec![0.0; d * d];
        let mut bt = vec![0.0; d * d];
        for iy in 0..d {
            at[iy * d] = 1.0; // left column only
            bt[iy * d + (d - 1)] = 1.0; // right column only
        }
        let gt = grid_sinkhorn_cost(&at, &bt, d, SinkhornParams::default()).unwrap();
        assert!((gt - grid).abs() <= 1e-9 + 0.01 * grid, "transpose symmetry: {gt} vs {grid}");
    }

    #[test]
    fn single_cell_supports_coincide() {
        let mut a = vec![0.0; 25];
        a[7] = 3.0;
        assert_eq!(grid_sinkhorn_cost(&a, &a, 5, SinkhornParams::default()).unwrap(), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        let z = vec![0.0; 9];
        assert!(matches!(
            grid_sinkhorn_cost(&z, &z, 3, SinkhornParams::default()),
            Err(TransportError::EmptyDistribution)
        ));
        let mut a = vec![0.0; 9];
        let mut b = vec![0.0; 9];
        a[0] = 1.0;
        b[8] = 2.0;
        assert!(matches!(
            grid_sinkhorn_cost(&a, &b, 3, SinkhornParams::default()),
            Err(TransportError::UnbalancedMass { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_masses_on_every_solver_entry() {
        // NaN defeats the magnitude guards (`NaN <= 0` and `NaN > tol`
        // are both false), so each entry point must reject it explicitly
        // — from either argument, with the offending index reported.
        let mut a = vec![1.0; 9];
        let b = vec![1.0; 9];
        a[4] = f64::NAN;
        assert_eq!(
            grid_sinkhorn_cost(&a, &b, 3, SinkhornParams::default()),
            Err(TransportError::NonFinite { index: 4 })
        );
        assert_eq!(
            grid_sinkhorn_cost(&b, &a, 3, SinkhornParams::default()),
            Err(TransportError::NonFinite { index: 4 })
        );
        a[4] = f64::INFINITY;
        assert_eq!(
            grid_sinkhorn_cost(&a, &b, 3, SinkhornParams::default()),
            Err(TransportError::NonFinite { index: 4 })
        );
        let pts = grid_points(3);
        let cost = CostMatrix::euclidean_pow(&pts, &pts, 2);
        a[4] = f64::NAN;
        assert_eq!(
            crate::exact::solve_exact(&a, &b, &cost).unwrap_err(),
            TransportError::NonFinite { index: 4 }
        );
    }
}
