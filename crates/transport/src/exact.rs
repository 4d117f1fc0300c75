//! Exact optimal transport via the network simplex.
//!
//! This is the "Linear Programming" solver of Equation 17 in the paper: it
//! finds the coupling `R` minimising `Σ_{ij} c(i, j) R_{ij}` subject to the
//! row/column-marginal constraints. That LP is an uncapacitated min-cost
//! flow from the sources to the sinks of a complete bipartite graph, and
//! this module solves it with the primal network simplex (Bonneel et al.,
//! SIGGRAPH Asia 2011; the design of LEMON and POT's `emd`):
//!
//! * **tree** — the basis is a spanning tree of `m + n − 1` arcs, started
//!   by the northwest-corner rule. Every node keeps its parent, parent arc,
//!   depth and potential (`u_i + v_j = c(i, j)` on every tree arc) and the
//!   list of its tree arcs;
//! * **pricing** — block search over the `m·n` arcs: blocks of about
//!   `√(m·n)` arcs are scanned from a cyclic cursor, and the most negative
//!   reduced cost of the first block that has one enters. A full sweep
//!   that finds none proves the tree optimal;
//! * **pivot** — the deeper endpoint of the entering arc walks upward
//!   until the two endpoints meet, which traces the cycle the arc closes.
//!   The leaving arc is the "minus" arc (crossed from sink to source) of
//!   least flow θ;
//! * **tree update** — the subtree the leaving arc cuts off is re-hung
//!   from the entering arc, and one DFS over it resets its parents, depths
//!   and potentials.
//!
//! Arc costs come from the caller's closure when a step needs them, so no
//! `m × n` cost matrix is ever stored.
//!
//! Degeneracy is avoided by perturbation: every supply gets the same tiny
//! `δ = 1e-11 / m` and the last demand gets `m·δ`. Then no proper subset of
//! the sources holds exactly the mass of a subset of the sinks, so every
//! basic flow is positive, every pivot moves a positive θ, and the simplex
//! needs no anti-cycling rule. The perturbation moves the optimal cost by
//! about `m·δ·max c = 1e-11 · max c`, far below any tolerance used in this
//! workspace.

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
            TransportError::IterationLimit => write!(f, "network simplex pivot limit"),
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

/// Arc of the spanning-tree basis: compact source `i` to compact sink
/// `j`, carrying `flow`.
#[derive(Debug, Clone, Copy)]
struct Basic {
    i: usize,
    j: usize,
    flow: f64,
}

/// Marks the root's missing parent and an empty pricing result.
const NONE: usize = usize::MAX;

/// The basis spanning tree. Node `k < m` is source `k`, node `m + j` is
/// sink `j`; the root is source 0.
struct Tree {
    m: usize,
    parent: Vec<usize>,
    parent_arc: Vec<usize>,
    depth: Vec<usize>,
    potential: Vec<f64>,
    /// Tree arcs (indices into the basis) at each node.
    arcs: Vec<Vec<usize>>,
    stack: Vec<usize>,
}

impl Tree {
    /// Resets the parents, depths and potentials below `root`, whose own
    /// are already set, by one DFS over its subtree.
    fn relabel_below(&mut self, basis: &[Basic], cost: &impl Fn(usize, usize) -> f64, root: usize) {
        self.stack.push(root);
        while let Some(x) = self.stack.pop() {
            for &k in &self.arcs[x] {
                if k == self.parent_arc[x] {
                    continue;
                }
                let Basic { i, j, .. } = basis[k];
                let y = if x < self.m { self.m + j } else { i };
                self.parent[y] = x;
                self.parent_arc[y] = k;
                self.depth[y] = self.depth[x] + 1;
                self.potential[y] = cost(i, j) - self.potential[x];
                self.stack.push(y);
            }
        }
    }
}

/// Solves the balanced transportation problem exactly.
///
/// `a` are source masses, `b` target masses, and `cost(i, j)` is the cost
/// of moving one unit of mass from `a[i]` to `b[j]` (original indices).
/// Non-positive masses are dropped as empty atoms, and the positive ones
/// must have (approximately) equal totals; both sides are rescaled to sum
/// to 1 internally and the reported cost is for the rescaled problem —
/// i.e. for probability distributions, which is what every caller in this
/// workspace passes.
pub fn solve_exact(
    a: &[f64],
    b: &[f64],
    cost: impl Fn(usize, usize) -> f64,
) -> Result<TransportPlan, TransportError> {
    check_finite(a)?;
    check_finite(b)?;
    // Zero-mass atoms can never carry flow: the solve runs on the
    // positive atoms only, in compact indices.
    let rows: Vec<usize> = (0..a.len()).filter(|&i| a[i] > 0.0).collect();
    let cols: Vec<usize> = (0..b.len()).filter(|&j| b[j] > 0.0).collect();
    let sa: f64 = rows.iter().map(|&i| a[i]).sum();
    let sb: f64 = cols.iter().map(|&j| b[j]).sum();
    if sa <= 0.0 || sb <= 0.0 {
        return Err(TransportError::EmptyDistribution);
    }
    if ((sa - sb) / sa.max(sb)).abs() > 1e-6 {
        return Err(TransportError::UnbalancedMass { source: sa, target: sb });
    }
    let (m, n) = (rows.len(), cols.len());

    // Normalised, perturbed supplies/demands (anti-degeneracy).
    let delta = 1e-11 / m as f64;
    let mut supply: Vec<f64> = rows.iter().map(|&i| a[i] / sa + delta).collect();
    let mut demand: Vec<f64> = cols.iter().map(|&j| b[j] / sb).collect();
    demand[n - 1] += delta * m as f64;

    let c = |i: usize, j: usize| cost(rows[i], cols[j]);

    // --- Northwest-corner initial tree. ---
    let mut basis: Vec<Basic> = Vec::with_capacity(m + n - 1);
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let f = supply[i].min(demand[j]);
        basis.push(Basic { i, j, flow: f });
        supply[i] -= f;
        demand[j] -= f;
        if i == m - 1 && j == n - 1 {
            break;
        }
        // With the perturbation only one side can be (numerically)
        // exhausted; prefer advancing the exhausted side.
        if supply[i] <= demand[j] && i < m - 1 {
            i += 1;
        } else if j < n - 1 {
            j += 1;
        } else {
            i += 1;
        }
    }
    debug_assert_eq!(basis.len(), m + n - 1);
    let mut tree = Tree {
        m,
        parent: vec![NONE; m + n],
        parent_arc: vec![NONE; m + n],
        depth: vec![0; m + n],
        potential: vec![0.0; m + n],
        arcs: vec![Vec::new(); m + n],
        stack: Vec::new(),
    };
    for (k, arc) in basis.iter().enumerate() {
        tree.arcs[arc.i].push(k);
        tree.arcs[m + arc.j].push(k);
    }
    tree.relabel_below(&basis, &c, 0);

    // --- Network simplex pivots. ---
    let arcs = m * n;
    let block = ((arcs as f64).sqrt().ceil() as usize).max(1);
    // The pricing cursor, and the cycle's nodes below its apex, each with
    // whether its parent arc is a minus arc.
    let (mut ci, mut cj) = (0usize, 0usize);
    let mut cycle: Vec<(usize, bool)> = Vec::new();
    let max_pivots = 64 * (m + n) * (m + n) + 1024;
    for _ in 0..max_pivots {
        // Entering arc: block search from the cursor.
        let mut best = (-1e-12, NONE, NONE);
        let mut in_block = 0;
        for _ in 0..arcs {
            let rc = c(ci, cj) - tree.potential[ci] - tree.potential[m + cj];
            if rc < best.0 {
                best = (rc, ci, cj);
            }
            cj += 1;
            if cj == n {
                cj = 0;
                ci = if ci + 1 == m { 0 } else { ci + 1 };
            }
            in_block += 1;
            if in_block == block {
                if best.1 != NONE {
                    break;
                }
                in_block = 0;
            }
        }
        if best.1 == NONE {
            // Optimal: assemble the plan in original index space.
            let mut flows = Vec::with_capacity(basis.len());
            let mut total_cost = 0.0;
            for arc in &basis {
                if arc.flow > 1e-15 {
                    flows.push((rows[arc.i], cols[arc.j], arc.flow));
                    total_cost += arc.flow * c(arc.i, arc.j);
                }
            }
            return Ok(TransportPlan { flows, cost: total_cost });
        }
        let (p, q) = (best.1, m + best.2);

        // The cycle runs p → q on the entering arc, then back through the
        // tree. On p's side it crosses each arc downward, from parent to
        // child, so a child source marks a minus arc; on q's side it
        // crosses upward, so a child sink does.
        cycle.clear();
        let (mut x, mut y) = (p, q);
        while x != y {
            if tree.depth[x] >= tree.depth[y] {
                cycle.push((x, x < m));
                x = tree.parent[x];
            } else {
                cycle.push((y, y >= m));
                y = tree.parent[y];
            }
        }
        let mut theta = f64::INFINITY;
        let mut out = NONE;
        for &(x, minus) in &cycle {
            let flow = basis[tree.parent_arc[x]].flow;
            if minus && flow < theta {
                theta = flow;
                out = x;
            }
        }
        debug_assert!(out != NONE);
        for &(x, minus) in &cycle {
            let arc = &mut basis[tree.parent_arc[x]];
            arc.flow += if minus { -theta } else { theta };
        }

        // The entering arc takes the leaving arc's slot; the subtree below
        // the leaving arc (holding p when `out` is on p's side, i.e. a
        // source) re-hangs from the entering arc.
        let leave = tree.parent_arc[out];
        let Basic { i, j, .. } = basis[leave];
        tree.arcs[i].retain(|&k| k != leave);
        tree.arcs[m + j].retain(|&k| k != leave);
        basis[leave] = Basic { i: p, j: q - m, flow: theta };
        tree.arcs[p].push(leave);
        tree.arcs[q].push(leave);
        let (root, parent) = if out < m { (p, q) } else { (q, p) };
        tree.parent[root] = parent;
        tree.parent_arc[root] = leave;
        tree.depth[root] = tree.depth[parent] + 1;
        tree.potential[root] = c(p, q - m) - tree.potential[parent];
        tree.relabel_below(&basis, &c, root);
    }
    Err(TransportError::IterationLimit)
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
        let plan = solve_exact(&w, &w, |i, j| pts[i].dist_sq(pts[j])).unwrap();
        assert!(plan.cost.abs() < 1e-9, "cost {}", plan.cost);
    }

    #[test]
    fn single_atom_translation() {
        let a = [Point::new(0.0, 0.0)];
        let b = [Point::new(3.0, 4.0)];
        let plan = solve_exact(&[1.0], &[1.0], |i, j| a[i].dist_sq(b[j])).unwrap();
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
            let c = |i: usize, j: usize| a[i].dist_sq(b[j]);
            let w = vec![1.0 / n as f64; n];
            let plan = solve_exact(&w, &w, c).unwrap();

            // Brute force over permutations.
            let mut perm: Vec<usize> = (0..n).collect();
            let mut best = f64::INFINITY;
            permute(&mut perm, 0, &mut |p| {
                let cst: f64 = p.iter().enumerate().map(|(i, &j)| c(i, j) / n as f64).sum();
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
        let plan = solve_exact(&a, &b, |i, j| pts_a[i].dist_sq(pts_b[j])).unwrap();
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
        let c = |i: usize, j: usize| pts[i].dist_sq(pts[j]);
        let err = solve_exact(&[1.0, 0.0], &[3.0, 0.0], c).unwrap_err();
        assert!(matches!(err, TransportError::UnbalancedMass { .. }));
        let err = solve_exact(&[0.0, 0.0], &[0.0, 0.0], c).unwrap_err();
        assert_eq!(err, TransportError::EmptyDistribution);
    }

    #[test]
    fn one_dimensional_case_matches_closed_form() {
        // Mass on a line: W₁ has the CDF closed form; compare on W₁ costs.
        let a_pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.0)).collect();
        let a = [0.3, 0.1, 0.1, 0.1, 0.2, 0.2];
        let b = [0.1, 0.2, 0.3, 0.2, 0.1, 0.1];
        let plan = solve_exact(&a, &b, |i, j| a_pts[i].dist(a_pts[j])).unwrap();
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
