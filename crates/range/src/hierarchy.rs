//! A hierarchical interval oracle in the HIO style (Wang et al. \[9\]),
//! rebuilt on the shared [`dam_core::Pyramid`].
//!
//! The grid is decomposed into the pyramid's dyadic quadtree: level 0 is
//! the whole domain, level `ℓ` partitions it into `4^ℓ` square nodes,
//! down to cell granularity over the padded power-of-two side. Each user
//! samples one informative level uniformly and reports their node at
//! that level through OUE with the *full* budget (sampling a level costs
//! no privacy; this is the standard HIO budget split — `1/(L−1)` of the
//! population per estimated level). The root needs no reporters: a
//! normalized distribution has total mass exactly 1.
//!
//! The per-level OUE estimates are mutually independent and therefore
//! mutually *inconsistent* — a parent node rarely equals the sum of its
//! children, so two covers of the same range disagree. The oracle feeds
//! all levels (with their `∝ 1/reporters` noise variances) through
//! [`Pyramid::constrained`], after which every node equals the sum of
//! its children and [`HierarchicalOracle::answer`] is a plain
//! minimal-node-cover walk. [`HierarchicalOracle::answer_independent`]
//! keeps the pre-consistency walk on the raw levels — same nested cover,
//! no reconciliation — as the ablation baseline `fig_service` compares.
//!
//! This is the baseline the paper's "combine with HIO" remark refers to;
//! `dam-eval --bin range_queries` compares it against DAM-backed
//! answering.

use crate::query::RangeQuery;
use dam_core::{NoisyLevel, Pyramid};
use dam_fo::Oue;
use dam_geo::{Grid2D, Point};
use rand::Rng;

/// A trained hierarchical range oracle: the constrained (consistent)
/// pyramid plus the raw independent per-level estimates it was fused
/// from.
#[derive(Debug, Clone)]
pub struct HierarchicalOracle {
    consistent: Pyramid,
    raw: Pyramid,
}

impl HierarchicalOracle {
    /// Runs the full LDP protocol over `points` and builds the oracle.
    ///
    /// Zero points yields the uniform pyramid (the workspace's graceful
    /// degradation convention) rather than panicking; the estimate is
    /// then non-informative but every query stays answerable.
    pub fn fit(points: &[Point], grid: &Grid2D, eps: f64, rng: &mut (impl Rng + ?Sized)) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        let d = grid.d();
        let n_levels = Pyramid::n_levels_for(d);
        if points.is_empty() || n_levels == 1 {
            let uniform = Pyramid::uniform(d);
            return Self { consistent: uniform.clone(), raw: uniform };
        }
        let padded = d.next_power_of_two();
        // Informative levels 1..n_levels (the root is exact for free).
        let reported = n_levels - 1;
        let mut oracles: Vec<Oue> = Vec::with_capacity(reported);
        let mut supports: Vec<Vec<f64>> = Vec::with_capacity(reported);
        let mut reporters = vec![0usize; reported];
        for li in 1..n_levels {
            let side = 1u32 << li;
            let n = ((side as usize) * (side as usize)).max(2);
            oracles.push(Oue::new(n, eps));
            supports.push(vec![0.0; n]);
        }

        for &p in points {
            let k = rng.gen_range(0..reported);
            let side = 1u32 << (k + 1);
            let per = padded >> (k + 1);
            let c = grid.cell_of(p);
            let node = ((c.iy / per) * side + c.ix / per) as usize;
            let rep = oracles[k].perturb(node, rng);
            oracles[k].accumulate(&rep, &mut supports[k]);
            reporters[k] += 1;
        }

        // Raw per-level estimates, clamped to the simplex so every level
        // is a distribution over its nodes (total mass 1, matching the
        // exact root), plus their OUE noise variances.
        let mut raw_levels: Vec<Vec<f64>> = Vec::with_capacity(n_levels);
        let mut variances = Vec::with_capacity(n_levels);
        raw_levels.push(vec![1.0]);
        variances.push(0.0);
        for k in 0..reported {
            let side = 1u32 << (k + 1);
            let n = (side as usize) * (side as usize);
            if reporters[k] == 0 {
                raw_levels.push(vec![0.0; n]);
                variances.push(f64::INFINITY);
                continue;
            }
            let mut f = oracles[k].estimate(&supports[k], reporters[k]);
            f.truncate(n);
            let mut total = 0.0;
            for x in &mut f {
                *x = x.max(0.0);
                total += *x;
            }
            if total > 0.0 {
                for x in &mut f {
                    *x /= total;
                }
            } else {
                f.fill(1.0 / n as f64);
            }
            raw_levels.push(f);
            // OUE frequency variance: 4e^ε / (m (e^ε − 1)²) per node —
            // only the 1/m ratio between levels matters to the fusion.
            let e = eps.exp();
            variances.push(4.0 * e / (reporters[k] as f64 * (e - 1.0) * (e - 1.0)));
        }

        let noisy: Vec<NoisyLevel> = raw_levels
            .iter()
            .zip(&variances)
            .map(|(values, &variance)| NoisyLevel { values, variance })
            .collect();
        Self {
            consistent: Pyramid::constrained(&noisy, d),
            raw: Pyramid::from_levels(&raw_levels, d),
        }
    }

    /// Number of levels in the hierarchy (root through cell
    /// granularity).
    pub fn n_levels(&self) -> usize {
        self.consistent.n_levels()
    }

    /// The constrained (consistent) pyramid queries are answered from.
    pub fn pyramid(&self) -> &Pyramid {
        &self.consistent
    }

    /// Answers a range query by the minimal node cover on the consistent
    /// pyramid. Because every node equals the sum of its children, the
    /// answer is independent of which cover is walked, and answers over
    /// a partition of a range sum exactly to the range's own answer.
    pub fn answer(&self, q: &RangeQuery) -> f64 {
        self.consistent.range_sum(q.x0, q.y0, q.x1, q.y1)
    }

    /// The pre-consistency ablation: the same minimal-node-cover walk —
    /// fringe nodes refined strictly within their parent's extent, the
    /// restriction the old `answer_partial` indirection dropped — but
    /// reading the raw independent per-level estimates, so coarse nodes
    /// and their refined fringes come from levels that need not agree.
    pub fn answer_independent(&self, q: &RangeQuery) -> f64 {
        self.raw.range_sum(q.x0, q.y0, q.x1, q.y1)
    }
}

/// Mechanism name used in reports.
pub const HIO_NAME: &str = "HIO";

#[cfg(test)]
mod tests {
    use super::*;
    use dam_geo::BoundingBox;
    use rand::SeedableRng;

    fn clustered_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| if i % 4 == 0 { Point::new(0.1, 0.1) } else { Point::new(0.8, 0.8) })
            .collect()
    }

    #[test]
    fn full_range_answers_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(230);
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let oracle = HierarchicalOracle::fit(&clustered_points(20_000), &grid, 3.0, &mut rng);
        let full = RangeQuery::new(0, 0, 7, 7);
        // The root is exact under constrained inference: the full range
        // answers exactly 1 (up to roundoff), not merely approximately.
        let ans = oracle.answer(&full);
        assert!((ans - 1.0).abs() < 1e-9, "full-range answer {ans}");
    }

    #[test]
    fn recovers_cluster_masses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(231);
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let pts = clustered_points(60_000);
        let oracle = HierarchicalOracle::fit(&pts, &grid, 4.0, &mut rng);
        // Bottom-left quadrant holds 25% of the mass.
        let q = RangeQuery::new(0, 0, 3, 3);
        let ans = oracle.answer(&q);
        assert!((ans - 0.25).abs() < 0.06, "quadrant answer {ans}");
        // Top-right quadrant holds 75%.
        let q2 = RangeQuery::new(4, 4, 7, 7);
        let ans2 = oracle.answer(&q2);
        assert!((ans2 - 0.75).abs() < 0.06, "quadrant answer {ans2}");
    }

    #[test]
    fn level_structure_spans_root_to_cells() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(232);
        let grid = Grid2D::new(BoundingBox::unit(), 16);
        let oracle = HierarchicalOracle::fit(&clustered_points(1000), &grid, 1.0, &mut rng);
        assert_eq!(oracle.n_levels(), 5); // sides 1, 2, 4, 8, 16
        assert_eq!(oracle.pyramid().levels().last().unwrap().per(), 1);
    }

    #[test]
    fn empty_points_degrade_to_the_uniform_pyramid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(233);
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let oracle = HierarchicalOracle::fit(&[], &grid, 2.0, &mut rng);
        assert!((oracle.answer(&RangeQuery::new(0, 0, 7, 7)) - 1.0).abs() < 1e-12);
        assert!((oracle.answer(&RangeQuery::new(0, 0, 3, 3)) - 0.25).abs() < 1e-12);
        assert!((oracle.answer_independent(&RangeQuery::new(4, 0, 7, 3)) - 0.25).abs() < 1e-12);
    }

    /// The double-counting pin (satellite): at non-power-of-two `d` the
    /// old per-level `div_ceil` node geometry let a refined fringe node
    /// straddle its parent, so answers over a partition of the domain
    /// summed to more than the full-domain answer. The dyadic pyramid's
    /// nested walk makes both the consistent and the independent path
    /// exactly additive.
    #[test]
    fn partition_answers_are_additive_at_non_pow2_d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(234);
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let pts: Vec<Point> = (0..30_000)
            .map(|i| Point::new(((i % 83) as f64 + 0.5) / 83.0, ((i % 59) as f64 + 0.5) / 59.0))
            .collect();
        let oracle = HierarchicalOracle::fit(&pts, &grid, 3.0, &mut rng);
        // Consistent path: any partition is exactly additive — the old
        // geometry re-counted cell column 2 on the x split at 2|3 (its
        // side-4 node covering columns 2..3 straddled the side-2 split).
        let whole = oracle.answer(&RangeQuery::new(0, 0, 5, 5));
        let left = oracle.answer(&RangeQuery::new(0, 0, 2, 5));
        let right = oracle.answer(&RangeQuery::new(3, 0, 5, 5));
        assert!((left + right - whole).abs() < 1e-9, "partition {left} + {right} != {whole}");
        // Independent path: raw levels disagree across depths, so only
        // node-aligned partitions must be additive — the cell strip
        // x 2..3 and its y split both cover exactly three side-4 nodes
        // (row 2 edge-clamped); the old straddling walk apportioned
        // across that boundary and double-counted.
        let strip = oracle.answer_independent(&RangeQuery::new(2, 0, 3, 5));
        let low = oracle.answer_independent(&RangeQuery::new(2, 0, 3, 1));
        let high = oracle.answer_independent(&RangeQuery::new(2, 2, 3, 5));
        assert!((low + high - strip).abs() < 1e-9, "strip {low} + {high} != {strip}");
        // And consistency makes the constrained path's covers agree with
        // direct leaf summation.
        let leaf = oracle.pyramid().levels().last().unwrap();
        let naive: f64 = (0..3u32)
            .flat_map(|x| (0..6u32).map(move |y| (x, y)))
            .map(|(x, y)| {
                // Leaf level is over the padded side-8 grid; real cells
                // only.
                leaf.values()[(y * leaf.side() + x) as usize]
            })
            .sum();
        let covered = oracle.answer(&RangeQuery::new(0, 0, 2, 5));
        assert!((covered - naive).abs() < 1e-9, "cover {covered} vs leaves {naive}");
    }

    #[test]
    fn consistent_answers_are_cover_invariant_but_raw_are_not_forced_to_be() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(235);
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let oracle = HierarchicalOracle::fit(&clustered_points(5_000), &grid, 1.0, &mut rng);
        // Quadrants partition the domain: consistent answers sum to the
        // exact root mass.
        let quads = [
            RangeQuery::new(0, 0, 3, 3),
            RangeQuery::new(4, 0, 7, 3),
            RangeQuery::new(0, 4, 3, 7),
            RangeQuery::new(4, 4, 7, 7),
        ];
        let total: f64 = quads.iter().map(|q| oracle.answer(q)).sum();
        assert!((total - 1.0).abs() < 1e-9, "quadrants sum to {total}");
        assert!(oracle.pyramid().max_inconsistency() < 1e-9);
    }
}
