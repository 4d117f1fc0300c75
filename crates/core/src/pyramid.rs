//! Hierarchical estimate pyramids with post-process consistency.
//!
//! Every estimate in the workspace used to be a flat `d × d` plane;
//! answering a large range query meant summing O(cells) noisy leaves.
//! A [`Pyramid`] is the hierarchical view of such a plane: a stack of
//! dyadic levels — the root is one node covering the whole grid, each
//! level quarters its parent's nodes — down to cell granularity, so an
//! axis-aligned range decomposes into a **node cover** whose size is
//! proportional to the range *boundary* (O(d·log d) worst case) instead
//! of its area, read in one pass per level. Every pyramid is full depth:
//! its leaf level holds one node per cell.
//!
//! Three construction paths:
//!
//! * [`Pyramid::from_plane`] — exact bottom-up aggregation of a plane
//!   (parent = sum of its four children by construction);
//! * [`Pyramid::constrained`] — Hay-style **constrained inference** over
//!   mutually independent noisy per-level estimates (the LDP hierarchy
//!   regime of `dam-range`'s oracle, after Hay et al., *Boosting the
//!   Accuracy of Differentially Private Histograms Through Consistency*,
//!   and the consistency step of Cormode et al., *Differentially Private
//!   Spatial Decompositions*): a bottom-up inverse-variance fusion pass
//!   followed by a top-down discrepancy-distribution pass, after which
//!   every node equals the sum of its children **and** every node's
//!   variance is no worse than its independent estimate's;
//! * [`Pyramid::uniform`] — the non-informative fallback, matching the
//!   PR-6 graceful-degradation convention for degenerate inputs.
//!
//! # Non-power-of-two grids
//!
//! Levels are dyadic over the *padded* side `P = next_pow2(d)`, so the
//! four children of a node always tile exactly that node — the property
//! constrained inference and the cover walk both rely on. Nodes are
//! clamped to the real grid (the `div_ceil` edge-node convention: the
//! last node along an axis covers the `d − (side − 1)·per` remaining
//! cells); nodes entirely past the edge are *empty* — pinned to zero
//! with zero variance, excluded from discrepancy distribution, and
//! skipped by the cover walk.

/// One dyadic level of a [`Pyramid`]: `side × side` nodes (row-major),
/// each covering `per × per` cells of the padded grid.
#[derive(Debug, Clone)]
pub struct PyramidLevel {
    side: u32,
    per: u32,
    values: Vec<f64>,
}

impl PyramidLevel {
    /// Nodes per axis (a power of two; 1 at the root).
    #[inline]
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Padded-grid cells per node per axis (`P / side`).
    #[inline]
    pub fn per(&self) -> u32 {
        self.per
    }

    /// Node values, row-major over `side × side` (edge-clamped empty
    /// nodes hold zero).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The real-cell extent `(cx0, cy0, cx1, cy1)` (inclusive) of node
    /// `(nx, ny)` on a `d × d` grid, or `None` for an empty edge node.
    #[inline]
    fn extent(&self, d: u32, nx: u32, ny: u32) -> Option<(u32, u32, u32, u32)> {
        let cx0 = nx * self.per;
        let cy0 = ny * self.per;
        if cx0 >= d || cy0 >= d {
            return None;
        }
        Some((cx0, cy0, (cx0 + self.per - 1).min(d - 1), (cy0 + self.per - 1).min(d - 1)))
    }
}

/// One level's independent noisy estimate entering
/// [`Pyramid::constrained`].
#[derive(Debug, Clone, Copy)]
pub struct NoisyLevel<'a> {
    /// `side² ` node values, row-major (side = `2^ℓ` for level `ℓ`).
    pub values: &'a [f64],
    /// Per-node noise variance, in any common unit — only the ratios
    /// between levels matter. `0.0` marks an exactly-known level (e.g.
    /// the root of a normalized distribution), [`f64::INFINITY`] an
    /// unobserved one.
    pub variance: f64,
}

/// A stack of dyadic aggregate levels over a `d × d` plane in which
/// every node equals the sum of its four children.
#[derive(Debug, Clone)]
pub struct Pyramid {
    d: u32,
    levels: Vec<PyramidLevel>,
}

impl Pyramid {
    /// Number of levels a full-depth pyramid over a `d × d` grid has
    /// (`log₂ next_pow2(d) + 1`: root through cell granularity).
    pub fn n_levels_for(d: u32) -> usize {
        assert!(d > 0, "pyramid needs at least one cell");
        d.next_power_of_two().trailing_zeros() as usize + 1
    }

    /// Builds the exact full-depth pyramid over a row-major `d × d`
    /// plane (leaf level = the plane itself; parents aggregate).
    pub fn from_plane(plane: &[f64], d: u32) -> Self {
        let n_levels = Self::n_levels_for(d);
        assert_eq!(plane.len(), (d as usize) * (d as usize), "plane does not match grid size");
        let padded = d.next_power_of_two();
        let mut levels = Vec::with_capacity(n_levels);
        // Leaf level: the plane laid out on the padded side (`0.0 + v`
        // turns a negative zero into the positive zero a summing
        // accumulator would hold).
        let side = padded as usize;
        let mut leaf = vec![0.0; side * side];
        for (row, src) in leaf.chunks_exact_mut(side).zip(plane.chunks_exact(d as usize)) {
            for (node, &v) in row.iter_mut().zip(src) {
                *node = 0.0 + v;
            }
        }
        // Parents: each node the sum of its four children. `top` is the
        // finest level built so far, so the loop needs no `last()`
        // lookups (and no unwraps) on the growing vector.
        let mut top = PyramidLevel { side: padded, per: 1, values: leaf };
        while top.side > 1 {
            let child = &top;
            let side = child.side / 2;
            let mut values = vec![0.0; (side as usize) * (side as usize)];
            for ny in 0..side {
                for nx in 0..side {
                    let mut acc = 0.0;
                    for dy in 0..2u32 {
                        for dx in 0..2u32 {
                            acc +=
                                child.values[((2 * ny + dy) * child.side + 2 * nx + dx) as usize];
                        }
                    }
                    values[(ny * side + nx) as usize] = acc;
                }
            }
            let parent = PyramidLevel { side, per: child.per * 2, values };
            levels.push(std::mem::replace(&mut top, parent));
        }
        levels.push(top);
        levels.reverse();
        Self { d, levels }
    }

    /// The uniform full-depth pyramid (every cell `1/d²`) — the
    /// non-informative estimate degenerate inputs degrade to.
    pub fn uniform(d: u32) -> Self {
        let n = (d as usize) * (d as usize);
        Self::from_plane(&vec![1.0 / n as f64; n], d)
    }

    /// Wraps independently-estimated per-level values verbatim —
    /// **without** enforcing consistency (`levels[ℓ]` holds `4^ℓ` node
    /// values). The cover walk stays well-defined, but different covers
    /// of the same range may disagree; this is the raw-levels view
    /// [`Pyramid::constrained`] reconciles, kept constructible so the
    /// two can be compared on identical inputs.
    pub fn from_levels(levels: &[Vec<f64>], d: u32) -> Self {
        let n_levels = Self::n_levels_for(d);
        assert_eq!(levels.len(), n_levels, "need every pyramid level");
        let padded = d.next_power_of_two();
        let levels = levels
            .iter()
            .enumerate()
            .map(|(li, values)| {
                let side = 1u32 << li;
                let n = (side as usize) * (side as usize);
                assert_eq!(values.len(), n, "level {li} does not have {n} nodes");
                PyramidLevel { side, per: padded >> li, values: values.clone() }
            })
            .collect();
        Self { d, levels }
    }

    /// Hay-style constrained inference over independent per-level noisy
    /// estimates: returns the unique (generalized-least-squares) pyramid
    /// in which every node equals the sum of its children.
    ///
    /// `levels[ℓ]` must hold `4^ℓ` values (side `2^ℓ`), one entry per
    /// full-depth pyramid level. Two passes:
    ///
    /// 1. **Bottom-up fusion** — each internal node's own estimate is
    ///    combined with the sum of its children's fused estimates by
    ///    inverse-variance weighting (Hay's weighted recurrence;
    ///    variance 0 pins a value, ∞ marks it unobserved, empty edge
    ///    nodes are exact zeros);
    /// 2. **Top-down consistency** — the root keeps its fused value and
    ///    each node's residual `h(v) − Σ z(children)` is distributed
    ///    over its children proportionally to their fused variances (the
    ///    least-certain child absorbs the most), which preserves the
    ///    fused values' optimality while enforcing `parent = Σ children`
    ///    exactly.
    pub fn constrained(levels: &[NoisyLevel<'_>], d: u32) -> Self {
        let n_levels = Self::n_levels_for(d);
        assert_eq!(levels.len(), n_levels, "constrained inference needs every pyramid level");
        let padded = d.next_power_of_two();
        let shape: Vec<PyramidLevel> = (0..n_levels)
            .map(|li| {
                let side = 1u32 << li;
                let n = (side as usize) * (side as usize);
                assert_eq!(levels[li].values.len(), n, "level {li} does not have {n} nodes");
                PyramidLevel { side, per: padded >> li, values: vec![0.0; n] }
            })
            .collect();

        // Pass 1 (bottom-up): fused estimates z and their variances.
        let mut z: Vec<Vec<f64>> = shape.iter().map(|l| vec![0.0; l.values.len()]).collect();
        let mut var: Vec<Vec<f64>> = shape.iter().map(|l| vec![0.0; l.values.len()]).collect();
        for li in (0..n_levels).rev() {
            let side = shape[li].side;
            for ny in 0..side {
                for nx in 0..side {
                    let i = (ny * side + nx) as usize;
                    if shape[li].extent(d, nx, ny).is_none() {
                        // Empty edge node: exactly zero.
                        (z[li][i], var[li][i]) = (0.0, 0.0);
                        continue;
                    }
                    let y = levels[li].values[i];
                    let var_y = levels[li].variance;
                    if li + 1 == n_levels {
                        (z[li][i], var[li][i]) = (y, var_y);
                        continue;
                    }
                    let (mut cs, mut var_cs) = (0.0, 0.0);
                    let child_side = shape[li + 1].side;
                    for dy in 0..2u32 {
                        for dx in 0..2u32 {
                            let ci = ((2 * ny + dy) * child_side + 2 * nx + dx) as usize;
                            cs += z[li + 1][ci];
                            var_cs += var[li + 1][ci];
                        }
                    }
                    (z[li][i], var[li][i]) = fuse(y, var_y, cs, var_cs);
                }
            }
        }

        // Pass 2 (top-down): distribute each node's residual over its
        // children by variance share.
        let mut h: Vec<Vec<f64>> = z.clone();
        for li in 0..n_levels - 1 {
            let side = shape[li].side;
            let child_side = shape[li + 1].side;
            for ny in 0..side {
                for nx in 0..side {
                    let i = (ny * side + nx) as usize;
                    if shape[li].extent(d, nx, ny).is_none() {
                        continue;
                    }
                    let child = |dx: u32, dy: u32| -> usize {
                        ((2 * ny + dy) * child_side + 2 * nx + dx) as usize
                    };
                    let mut cs = 0.0;
                    let mut var_tot = 0.0;
                    let mut inf_children = 0usize;
                    for dy in 0..2u32 {
                        for dx in 0..2u32 {
                            let ci = child(dx, dy);
                            cs += z[li + 1][ci];
                            if var[li + 1][ci].is_infinite() {
                                inf_children += 1;
                            } else {
                                var_tot += var[li + 1][ci];
                            }
                        }
                    }
                    let deficit = h[li][i] - cs;
                    for dy in 0..2u32 {
                        for dx in 0..2u32 {
                            let ci = child(dx, dy);
                            let v = var[li + 1][ci];
                            // Unobserved children absorb the whole
                            // residual in equal parts; otherwise each
                            // child takes its variance share (exact
                            // children — zeros included — take none).
                            let share = if inf_children > 0 {
                                if v.is_infinite() {
                                    1.0 / inf_children as f64
                                } else {
                                    0.0
                                }
                            } else if var_tot > 0.0 {
                                v / var_tot
                            } else {
                                0.0
                            };
                            h[li + 1][ci] = z[li + 1][ci] + share * deficit;
                        }
                    }
                }
            }
        }

        let levels = shape
            .into_iter()
            .zip(h)
            .map(|(mut l, values)| {
                l.values = values;
                l
            })
            .collect();
        Self { d, levels }
    }

    /// Side of the (real) grid the pyramid covers.
    #[inline]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Side of the padded dyadic domain (`next_pow2(d)`).
    #[inline]
    pub fn padded(&self) -> u32 {
        self.d.next_power_of_two()
    }

    /// Number of levels (root through leaf).
    #[inline]
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// The levels, coarsest (root) first.
    #[inline]
    pub fn levels(&self) -> &[PyramidLevel] {
        &self.levels
    }

    /// Level `li` (0 = root).
    #[inline]
    pub fn level(&self, li: usize) -> &PyramidLevel {
        &self.levels[li]
    }

    /// The level with `side × side` nodes, if the pyramid has one
    /// (`side` must be a power of two no larger than the leaf side).
    pub fn level_for_side(&self, side: u32) -> Option<&PyramidLevel> {
        if !side.is_power_of_two() {
            return None;
        }
        let li = side.trailing_zeros() as usize;
        self.levels.get(li).filter(|l| l.side == side)
    }

    /// Leaf value at cell `(ix, iy)`.
    pub fn cell(&self, ix: u32, iy: u32) -> f64 {
        assert!(ix < self.d && iy < self.d, "cell exceeds the grid");
        self.range_sum(ix, iy, ix, iy)
    }

    /// Sum over the inclusive cell rectangle `x0..=x1 × y0..=y1` read
    /// through the minimal node cover (coarsest fully-contained nodes).
    pub fn range_sum(&self, x0: u32, y0: u32, x1: u32, y1: u32) -> f64 {
        self.range_sum_counted(x0, y0, x1, y1).0
    }

    /// [`Pyramid::range_sum`] plus the number of nodes the cover read —
    /// the quantity the `range` bench pins against naive O(cells)
    /// summation.
    ///
    /// The cover is walked level by level: at each level the nodes wholly
    /// inside the query form a rectangle, and the nodes to emit are that
    /// rectangle minus the (doubled) rectangle already emitted at the
    /// coarser level — a thin ring summed as contiguous row slices. The
    /// leaf ring is the query's unaligned cell fringe itself.
    pub fn range_sum_counted(&self, x0: u32, y0: u32, x1: u32, y1: u32) -> (f64, usize) {
        assert!(x0 <= x1 && y0 <= y1, "inverted range");
        assert!(x1 < self.d && y1 < self.d, "query exceeds the grid");
        let mut sum = 0.0;
        let mut nodes = 0usize;
        // The previous level's contained node rectangle (lo inclusive,
        // hi exclusive), in that level's node coordinates.
        let mut prev: Option<(u32, u32, u32, u32)> = None;
        for lv in &self.levels {
            let per = lv.per;
            // Nodes wholly inside the query, by the *unclamped* dyadic
            // geometry (an edge-clamped node is never "contained", so
            // its real cells are emitted at finer levels instead —
            // exact, since its out-of-grid children hold zero).
            let nx_lo = x0.div_ceil(per);
            let nx_hi = (x1 + 1) / per;
            let ny_lo = y0.div_ceil(per);
            let ny_hi = (y1 + 1) / per;
            if nx_lo >= nx_hi || ny_lo >= ny_hi {
                continue;
            }
            let side = lv.side;
            let mut row = |ny: u32, a: u32, b: u32| {
                if a < b {
                    let base = (ny * side) as usize;
                    sum += lv.values[base + a as usize..base + b as usize].iter().sum::<f64>();
                    nodes += (b - a) as usize;
                }
            };
            match prev {
                None => {
                    for ny in ny_lo..ny_hi {
                        row(ny, nx_lo, nx_hi);
                    }
                }
                Some((px_lo, py_lo, px_hi, py_hi)) => {
                    // The hole: the coarser rectangle in this level's
                    // coordinates (always inside the current one).
                    let (hx_lo, hy_lo, hx_hi, hy_hi) = (2 * px_lo, 2 * py_lo, 2 * px_hi, 2 * py_hi);
                    for ny in ny_lo..hy_lo {
                        row(ny, nx_lo, nx_hi);
                    }
                    for ny in hy_lo..hy_hi {
                        row(ny, nx_lo, hx_lo);
                        row(ny, hx_hi, nx_hi);
                    }
                    for ny in hy_hi..ny_hi {
                        row(ny, nx_lo, nx_hi);
                    }
                }
            }
            prev = Some((nx_lo, ny_lo, nx_hi, ny_hi));
        }
        (sum, nodes)
    }

    /// Largest `|node − Σ children|` across the pyramid — 0 (to float
    /// roundoff) after [`Pyramid::from_plane`] or
    /// [`Pyramid::constrained`]; the consistency certificate tests and
    /// the `range` bench record.
    pub fn max_inconsistency(&self) -> f64 {
        let mut worst = 0.0f64;
        for li in 0..self.levels.len().saturating_sub(1) {
            let (parent, child) = (&self.levels[li], &self.levels[li + 1]);
            for ny in 0..parent.side {
                for nx in 0..parent.side {
                    let mut cs = 0.0;
                    for dy in 0..2u32 {
                        for dx in 0..2u32 {
                            cs += child.values[((2 * ny + dy) * child.side + 2 * nx + dx) as usize];
                        }
                    }
                    worst = worst.max((parent.values[(ny * parent.side + nx) as usize] - cs).abs());
                }
            }
        }
        worst
    }
}

/// Inverse-variance fusion of a node's own estimate `(y, var_y)` with
/// the sum of its children's fused estimates `(cs, var_cs)`.
fn fuse(y: f64, var_y: f64, cs: f64, var_cs: f64) -> (f64, f64) {
    if var_y == 0.0 {
        return (y, 0.0);
    }
    if var_cs == 0.0 {
        return (cs, 0.0);
    }
    match (var_y.is_infinite(), var_cs.is_infinite()) {
        (true, true) => (cs, f64::INFINITY),
        (true, false) => (cs, var_cs),
        (false, true) => (y, var_y),
        (false, false) => {
            let (w1, w2) = (1.0 / var_y, 1.0 / var_cs);
            ((w1 * y + w2 * cs) / (w1 + w2), 1.0 / (w1 + w2))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(d: u32, f: impl Fn(u32, u32) -> f64) -> Vec<f64> {
        (0..d * d).map(|i| f(i % d, i / d)).collect()
    }

    fn naive(plane: &[f64], d: u32, q: (u32, u32, u32, u32)) -> f64 {
        let mut acc = 0.0;
        for y in q.1..=q.3 {
            for x in q.0..=q.2 {
                acc += plane[(y * d + x) as usize];
            }
        }
        acc
    }

    #[test]
    fn level_shapes_cover_root_to_cells() {
        for d in [1u32, 2, 6, 8, 20] {
            let p = Pyramid::uniform(d);
            assert_eq!(p.n_levels(), Pyramid::n_levels_for(d));
            assert_eq!(p.levels()[0].side(), 1);
            assert_eq!(p.levels().last().unwrap().per(), 1);
            for (li, lv) in p.levels().iter().enumerate() {
                assert_eq!(lv.side(), 1 << li);
                assert_eq!(lv.side() * lv.per(), d.next_power_of_two());
            }
        }
    }

    #[test]
    fn from_plane_is_consistent_and_exact() {
        for d in [4u32, 6, 13] {
            let pl = plane(d, |x, y| (1 + x * 3 + y * 7) as f64);
            let p = Pyramid::from_plane(&pl, d);
            assert!(p.max_inconsistency() < 1e-9, "inconsistent at d={d}");
            // Root equals the total mass.
            let total: f64 = pl.iter().sum();
            assert!((p.levels()[0].values()[0] - total).abs() < 1e-9);
            // Every rectangle matches naive summation exactly.
            for q in [(0, 0, d - 1, d - 1), (1, 0, d - 2, d - 2), (2, 2, 2, 2), (0, 1, d - 1, 1)] {
                let (got, nodes) = p.range_sum_counted(q.0, q.1, q.2, q.3);
                assert!((got - naive(&pl, d, q)).abs() < 1e-9, "q={q:?} at d={d}");
                assert!(nodes >= 1);
            }
        }
    }

    #[test]
    fn edge_clamped_nodes_hold_zero_and_are_skipped() {
        // d = 6 pads to 8: the side-8 leaf level has 28 empty nodes and
        // the side-4 level one empty column/row pair.
        let d = 6;
        let pl = plane(d, |_, _| 1.0);
        let p = Pyramid::from_plane(&pl, d);
        let l4 = p.level_for_side(4).unwrap();
        // Node (3, 0) covers padded cells 6..7 — entirely past the edge.
        assert_eq!(l4.values()[3], 0.0);
        // Node (2, 0) covers cells 4..5: clamped but real.
        assert_eq!(l4.values()[2], 4.0);
        assert_eq!(p.range_sum(0, 0, 5, 5), 36.0);
    }

    #[test]
    fn cell_reads_the_plane_at_full_depth() {
        let d = 5;
        let pl = plane(d, |x, y| (x + 10 * y) as f64);
        let p = Pyramid::from_plane(&pl, d);
        for y in 0..d {
            for x in 0..d {
                assert!((p.cell(x, y) - pl[(y * d + x) as usize]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn uniform_pyramid_spreads_mass_by_area() {
        let p = Pyramid::uniform(6);
        assert!((p.levels()[0].values()[0] - 1.0).abs() < 1e-12);
        // A clamped side-4 node covering a 2×2-cell corner holds 4/36.
        let l4 = p.level_for_side(4).unwrap();
        assert!((l4.values()[2] - 4.0 / 36.0).abs() < 1e-12);
        assert!((p.range_sum(0, 0, 2, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn constrained_recovers_exact_levels_and_enforces_consistency() {
        // Feed the true aggregates of a known plane with small per-level
        // variances: inference must return a consistent pyramid close to
        // the truth, and *exactly* consistent regardless of input noise.
        let d = 6;
        let pl = plane(d, |x, y| if x < 2 && y < 2 { 3.0 } else { 0.5 });
        let exact = Pyramid::from_plane(&pl, d);
        let noisy: Vec<Vec<f64>> = exact
            .levels()
            .iter()
            .enumerate()
            .map(|(li, lv)| {
                lv.values()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        // Deterministic "noise", zeroed on empty nodes
                        // and on the exactly-known (variance 0) root.
                        let eps = if v == 0.0 || li == 0 {
                            0.0
                        } else {
                            0.05 * ((li + i) % 3) as f64 - 0.05
                        };
                        v + eps
                    })
                    .collect()
            })
            .collect();
        let levels: Vec<NoisyLevel> = noisy
            .iter()
            .enumerate()
            .map(|(li, v)| NoisyLevel { values: v, variance: if li == 0 { 0.0 } else { 0.01 } })
            .collect();
        let p = Pyramid::constrained(&levels, d);
        assert!(p.max_inconsistency() < 1e-9, "constrained output must be consistent");
        // Root was pinned exactly.
        assert!((p.levels()[0].values()[0] - exact.levels()[0].values()[0]).abs() < 1e-9);
        // Leaf estimates stay close to the truth.
        for (got, want) in
            p.levels().last().unwrap().values().iter().zip(exact.levels().last().unwrap().values())
        {
            assert!((got - want).abs() < 0.2, "leaf {got} vs {want}");
        }
    }

    #[test]
    fn constrained_averaging_beats_the_noisiest_level() {
        // One very noisy level between two accurate ones: fusion must
        // pull the noisy level toward the (consistent) truth.
        let d = 4;
        let pl = plane(d, |x, _| x as f64);
        let exact = Pyramid::from_plane(&pl, d);
        let mut mid = exact.levels()[1].values().to_vec();
        for v in &mut mid {
            *v += 2.0; // grossly biased side-2 level
        }
        let l0 = exact.levels()[0].values().to_vec();
        let l2 = exact.levels()[2].values().to_vec();
        let levels = [
            NoisyLevel { values: &l0, variance: 0.0 },
            NoisyLevel { values: &mid, variance: 100.0 },
            NoisyLevel { values: &l2, variance: 0.01 },
        ];
        let p = Pyramid::constrained(&levels, d);
        let err_in: f64 =
            mid.iter().zip(exact.levels()[1].values()).map(|(a, b)| (a - b).abs()).sum();
        let err_out: f64 = p.levels()[1]
            .values()
            .iter()
            .zip(exact.levels()[1].values())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err_out < 0.2 * err_in, "fusion err {err_out} vs raw {err_in}");
    }

    #[test]
    fn unobserved_levels_inherit_their_children() {
        // Only the leaf level observed: every ancestor must aggregate it.
        let d = 4;
        let pl = plane(d, |x, y| (1 + x + y) as f64);
        let exact = Pyramid::from_plane(&pl, d);
        let leaf = exact.levels()[2].values().to_vec();
        let zeros1 = vec![0.0; 1];
        let zeros2 = vec![0.0; 4];
        let levels = [
            NoisyLevel { values: &zeros1, variance: f64::INFINITY },
            NoisyLevel { values: &zeros2, variance: f64::INFINITY },
            NoisyLevel { values: &leaf, variance: 1.0 },
        ];
        let p = Pyramid::constrained(&levels, d);
        assert!(p.max_inconsistency() < 1e-9);
        for (got, want) in p.levels()[1].values().iter().zip(exact.levels()[1].values()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "query exceeds the grid")]
    fn rejects_out_of_grid_ranges() {
        Pyramid::uniform(4).range_sum(0, 0, 4, 1);
    }
}
