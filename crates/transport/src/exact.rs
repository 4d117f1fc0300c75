//! Exact optimal transport via the transportation simplex.
//!
//! This is the "Linear Programming" solver of Equation 17 in the paper: it
//! finds the coupling `R` minimising `Σ_{ij} M_{ij} R_{ij}` subject to the
//! row/column-marginal constraints, using the classical transportation
//! simplex (northwest-corner initial basis + MODI/u-v pivoting).
//!
//! Degeneracy is avoided with the standard perturbation trick: supplies are
//! perturbed by strictly increasing multiples of a tiny `δ` (and the last
//! demand absorbs the total perturbation), which makes every basic feasible
//! solution non-degenerate, so the simplex cannot cycle. The perturbation
//! changes the optimal cost by at most `δ · m² · max_cost`, far below any
//! tolerance used in this workspace.

use crate::cost::CostMatrix;

/// An optimal coupling between two discrete distributions.
#[derive(Debug, Clone)]
pub struct TransportPlan {
    /// `(source index, target index, mass)` triples with positive mass.
    pub flows: Vec<(usize, usize, f64)>,
    /// Total transport cost `Σ mass · cost` of the plan.
    pub cost: f64,
}

/// Error returned when the solver cannot produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// Input masses were empty or summed to zero.
    EmptyDistribution,
    /// Row and column masses differ by more than a relative tolerance.
    UnbalancedMass {
        /// Total source mass.
        source: f64,
        /// Total target mass.
        target: f64,
    },
    /// The simplex failed to converge within its iteration budget
    /// (should not happen; kept instead of looping forever).
    IterationLimit,
    /// An input mass is `NaN` or infinite. Rejected explicitly because
    /// `NaN` slips through every magnitude comparison (`NaN <= 0` and
    /// `NaN > tol` are both false), so without this check a corrupted
    /// histogram would sail past the emptiness and balance guards and
    /// poison the solve.
    NonFinite {
        /// Flat index of the first offending entry.
        index: usize,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::EmptyDistribution => write!(f, "empty distribution"),
            TransportError::UnbalancedMass { source, target } => {
                write!(f, "unbalanced masses: source {source} vs target {target}")
            }
            TransportError::IterationLimit => write!(f, "transportation simplex iteration limit"),
            TransportError::NonFinite { index } => {
                write!(f, "non-finite mass at index {index}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Rejects the first non-finite entry of a mass vector with a structured
/// error (shared by every solver entry point — see
/// [`TransportError::NonFinite`] for why the magnitude guards alone
/// cannot catch `NaN`).
pub(crate) fn check_finite(masses: &[f64]) -> Result<(), TransportError> {
    match masses.iter().position(|m| !m.is_finite()) {
        Some(index) => Err(TransportError::NonFinite { index }),
        None => Ok(()),
    }
}

/// Basic cell of the transportation tableau.
#[derive(Debug, Clone, Copy)]
struct Basic {
    i: usize,
    j: usize,
    flow: f64,
}

/// Solves the balanced transportation problem exactly.
///
/// `a` are source masses (length `cost.rows()`), `b` target masses (length
/// `cost.cols()`). Masses must be non-negative and have (approximately)
/// equal totals; both sides are rescaled to sum to 1 internally and the
/// reported cost is for the rescaled problem — i.e. for probability
/// distributions, which is what every caller in this workspace passes.
pub fn solve_exact(
    a: &[f64],
    b: &[f64],
    cost: &CostMatrix,
) -> Result<TransportPlan, TransportError> {
    assert_eq!(a.len(), cost.rows(), "source mass length mismatch");
    assert_eq!(b.len(), cost.cols(), "target mass length mismatch");
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

    // Drop zero-mass atoms; they can never carry flow.
    let rows: Vec<usize> = (0..a.len()).filter(|&i| a[i] > 0.0).collect();
    let cols: Vec<usize> = (0..b.len()).filter(|&j| b[j] > 0.0).collect();
    let m = rows.len();
    let n = cols.len();
    if m == 0 || n == 0 {
        return Err(TransportError::EmptyDistribution);
    }

    // Normalised, perturbed supplies/demands (anti-degeneracy).
    let delta = 1e-11 / m as f64;
    let supply: Vec<f64> = rows.iter().map(|&i| a[i] / sa + delta).collect();
    let mut demand: Vec<f64> = cols.iter().map(|&j| b[j] / sb).collect();
    let total_pert = delta * m as f64;
    demand[n - 1] += total_pert;

    let cost_at = |bi: usize, bj: usize| cost.at(rows[bi], cols[bj]);

    // --- Northwest-corner initial basic feasible solution. ---
    let mut basis: Vec<Basic> = Vec::with_capacity(m + n - 1);
    {
        let (mut i, mut j) = (0usize, 0usize);
        let mut srem = supply.clone();
        let mut drem = demand.clone();
        loop {
            let f = srem[i].min(drem[j]);
            basis.push(Basic { i, j, flow: f });
            srem[i] -= f;
            drem[j] -= f;
            if i == m - 1 && j == n - 1 {
                break;
            }
            // With the perturbation only one side can be (numerically)
            // exhausted; prefer advancing the exhausted side.
            if srem[i] <= drem[j] && i < m - 1 {
                i += 1;
            } else if j < n - 1 {
                j += 1;
            } else {
                i += 1;
            }
        }
    }
    debug_assert_eq!(basis.len(), m + n - 1);

    // --- MODI iterations. ---
    let max_iters = 64 * (m + n) * (m + n) + 1024;
    let mut u = vec![0.0f64; m];
    let mut v = vec![0.0f64; n];
    let mut row_adj: Vec<Vec<usize>> = vec![Vec::new(); m]; // basic indices per row
    let mut col_adj: Vec<Vec<usize>> = vec![Vec::new(); n];

    for _iter in 0..max_iters {
        // Potentials via traversal of the basis spanning tree.
        for adj in &mut row_adj {
            adj.clear();
        }
        for adj in &mut col_adj {
            adj.clear();
        }
        for (k, bc) in basis.iter().enumerate() {
            row_adj[bc.i].push(k);
            col_adj[bc.j].push(k);
        }
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; n];
        u[0] = 0.0;
        row_done[0] = true;
        // Queue of (is_row, index) nodes whose potential is known.
        let mut queue: Vec<(bool, usize)> = vec![(true, 0)];
        while let Some((is_row, idx)) = queue.pop() {
            let adj = if is_row { &row_adj[idx] } else { &col_adj[idx] };
            for &k in adj {
                let bc = basis[k];
                if is_row && !col_done[bc.j] {
                    v[bc.j] = cost_at(bc.i, bc.j) - u[bc.i];
                    col_done[bc.j] = true;
                    queue.push((false, bc.j));
                } else if !is_row && !row_done[bc.i] {
                    u[bc.i] = cost_at(bc.i, bc.j) - v[bc.j];
                    row_done[bc.i] = true;
                    queue.push((true, bc.i));
                }
            }
        }
        debug_assert!(row_done.iter().all(|&x| x) && col_done.iter().all(|&x| x));

        // Entering cell: most negative reduced cost.
        let mut best = (-1e-12, usize::MAX, usize::MAX);
        for i in 0..m {
            for j in 0..n {
                let rc = cost_at(i, j) - u[i] - v[j];
                if rc < best.0 {
                    best = (rc, i, j);
                }
            }
        }
        if best.1 == usize::MAX {
            // Optimal: assemble the plan in original index space.
            let mut flows = Vec::with_capacity(basis.len());
            let mut total_cost = 0.0;
            for bc in &basis {
                if bc.flow > 1e-15 {
                    flows.push((rows[bc.i], cols[bc.j], bc.flow));
                    total_cost += bc.flow * cost_at(bc.i, bc.j);
                }
            }
            return Ok(TransportPlan { flows, cost: total_cost });
        }
        let (ei, ej) = (best.1, best.2);

        // Find the unique cycle: path from row `ei` to col `ej` through the
        // basis tree, then close it with the entering cell.
        #[expect(
            clippy::expect_used,
            reason = "the simplex basis stays a spanning tree across pivots, so a path always exists"
        )]
        let path = tree_path(&basis, &row_adj, &col_adj, m, n, ei, ej)
            .expect("basis must be a spanning tree");

        // Edges along the path alternate -,+,-,+,... starting at the edge
        // incident to row `ei`; the entering cell takes +θ.
        let mut theta = f64::INFINITY;
        let mut leave = usize::MAX;
        for (pos, &k) in path.iter().enumerate() {
            if pos % 2 == 0 {
                // minus edge
                if basis[k].flow < theta {
                    theta = basis[k].flow;
                    leave = k;
                }
            }
        }
        debug_assert!(leave != usize::MAX);
        for (pos, &k) in path.iter().enumerate() {
            if pos % 2 == 0 {
                basis[k].flow -= theta;
            } else {
                basis[k].flow += theta;
            }
        }
        basis[leave] = Basic { i: ei, j: ej, flow: theta };
    }
    Err(TransportError::IterationLimit)
}

/// Finds the sequence of basic-cell indices forming the tree path from row
/// `start_row` to column `end_col`. Returned edges are ordered from the row
/// end to the column end, so they alternate (row→col), (col→row), … which
/// means even positions are the "minus" edges of the pivot cycle.
fn tree_path(
    basis: &[Basic],
    row_adj: &[Vec<usize>],
    col_adj: &[Vec<usize>],
    m: usize,
    n: usize,
    start_row: usize,
    end_col: usize,
) -> Option<Vec<usize>> {
    // BFS over nodes: rows are 0..m, cols are m..m+n.
    let total = m + n;
    let target = m + end_col;
    let mut prev_edge = vec![usize::MAX; total];
    let mut prev_node = vec![usize::MAX; total];
    let mut visited = vec![false; total];
    let mut queue = std::collections::VecDeque::new();
    visited[start_row] = true;
    queue.push_back(start_row);
    while let Some(node) = queue.pop_front() {
        if node == target {
            break;
        }
        let (is_row, idx) = if node < m { (true, node) } else { (false, node - m) };
        let adj = if is_row { &row_adj[idx] } else { &col_adj[idx] };
        for &k in adj {
            let bc = basis[k];
            let next = if is_row { m + bc.j } else { bc.i };
            if !visited[next] {
                visited[next] = true;
                prev_edge[next] = k;
                prev_node[next] = node;
                queue.push_back(next);
            }
        }
    }
    if !visited[target] {
        return None;
    }
    let mut path = Vec::new();
    let mut node = target;
    while node != start_row {
        path.push(prev_edge[node]);
        node = prev_node[node];
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_geo::Point;

    fn grid_points(d: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for iy in 0..d {
            for ix in 0..d {
                pts.push(Point::new(ix as f64, iy as f64));
            }
        }
        pts
    }

    #[test]
    fn identical_distributions_cost_zero() {
        let pts = grid_points(3);
        let w = vec![1.0 / 9.0; 9];
        let c = CostMatrix::euclidean_pow(&pts, &pts, 2);
        let plan = solve_exact(&w, &w, &c).unwrap();
        assert!(plan.cost.abs() < 1e-9, "cost {}", plan.cost);
    }

    #[test]
    fn single_atom_translation() {
        let a = [Point::new(0.0, 0.0)];
        let b = [Point::new(3.0, 4.0)];
        let c = CostMatrix::euclidean_pow(&a, &b, 2);
        let plan = solve_exact(&[1.0], &[1.0], &c).unwrap();
        assert!((plan.cost - 25.0).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_assignment() {
        // Equal uniform weights on n=n atoms: optimum is the best
        // permutation (Birkhoff), which we can enumerate for n = 5.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let n = 5;
            let a: Vec<Point> =
                (0..n).map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>())).collect();
            let b: Vec<Point> =
                (0..n).map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>())).collect();
            let c = CostMatrix::euclidean_pow(&a, &b, 2);
            let w = vec![1.0 / n as f64; n];
            let plan = solve_exact(&w, &w, &c).unwrap();

            // Brute force over permutations.
            let mut perm: Vec<usize> = (0..n).collect();
            let mut best = f64::INFINITY;
            permute(&mut perm, 0, &mut |p| {
                let cst: f64 = p.iter().enumerate().map(|(i, &j)| c.at(i, j) / n as f64).sum();
                if cst < best {
                    best = cst;
                }
            });
            assert!(
                (plan.cost - best).abs() < 1e-8,
                "trial {trial}: simplex {} vs brute {}",
                plan.cost,
                best
            );
        }
    }

    fn permute(p: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == p.len() {
            f(p);
            return;
        }
        for i in k..p.len() {
            p.swap(k, i);
            permute(p, k + 1, f);
            p.swap(k, i);
        }
    }

    #[test]
    fn plan_is_feasible() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pts_a = grid_points(4);
        let pts_b = grid_points(4);
        let mut a: Vec<f64> = (0..16).map(|_| rng.gen::<f64>()).collect();
        let mut b: Vec<f64> = (0..16).map(|_| rng.gen::<f64>()).collect();
        let (sa, sb): (f64, f64) = (a.iter().sum(), b.iter().sum());
        for x in &mut a {
            *x /= sa;
        }
        for x in &mut b {
            *x /= sb;
        }
        let c = CostMatrix::euclidean_pow(&pts_a, &pts_b, 2);
        let plan = solve_exact(&a, &b, &c).unwrap();
        let mut row_sum = [0.0; 16];
        let mut col_sum = [0.0; 16];
        for &(i, j, f) in &plan.flows {
            assert!(f >= 0.0);
            row_sum[i] += f;
            col_sum[j] += f;
        }
        for i in 0..16 {
            assert!((row_sum[i] - a[i]).abs() < 1e-6, "row {i}");
            assert!((col_sum[i] - b[i]).abs() < 1e-6, "col {i}");
        }
    }

    #[test]
    fn mismatched_masses_rejected() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let c = CostMatrix::euclidean_pow(&pts, &pts, 2);
        let err = solve_exact(&[1.0, 0.0], &[3.0, 0.0], &c).unwrap_err();
        assert!(matches!(err, TransportError::UnbalancedMass { .. }));
        let err = solve_exact(&[0.0, 0.0], &[0.0, 0.0], &c).unwrap_err();
        assert_eq!(err, TransportError::EmptyDistribution);
    }

    #[test]
    fn one_dimensional_case_matches_closed_form() {
        // Mass on a line: W₁ has the CDF closed form; compare on W₁ costs.
        let a_pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.0)).collect();
        let a = [0.3, 0.1, 0.1, 0.1, 0.2, 0.2];
        let b = [0.1, 0.2, 0.3, 0.2, 0.1, 0.1];
        let c = CostMatrix::euclidean_pow(&a_pts, &a_pts, 1);
        let plan = solve_exact(&a, &b, &c).unwrap();
        // Closed form: sum over i of |CDF_a(i) - CDF_b(i)| * spacing.
        let mut cdf_a = 0.0;
        let mut cdf_b = 0.0;
        let mut w1 = 0.0;
        for i in 0..5 {
            cdf_a += a[i];
            cdf_b += b[i];
            w1 += (cdf_a - cdf_b).abs();
        }
        assert!((plan.cost - w1).abs() < 1e-9, "simplex {} vs cdf {}", plan.cost, w1);
    }
}
