//! Discrete disk geometry: cell classification and border shrinkage (§VI-A).
//!
//! After bucketization the high-probability region of the Disk Area
//! Mechanism is the circle `Bp` of radius `b̂` (cell units) around the
//! input cell. Output cells fall into three classes (Figure 4):
//!
//! * **pure high** `Ap` — center inside or on `Bp`;
//! * **mixed** `Am` — the cell intersects `Bp` but its center is outside;
//! * **pure low** `Aq` — no intersection.
//!
//! Each mixed cell is split by the *shrinkage* construction of Theorem
//! VI.1 into a high part (a rectangle of area `4(δx + ½)(δy + ½)`,
//! `δ = b̂/√(x² + y²) − 1`) and a low remainder. [`DiskGeometry`]
//! precomputes the per-offset high-area fraction for the shrunken kernel,
//! the non-shrunken ablation (DAM-NS) and the exact-intersection reference.
//!
//! The closed-form counting results of Theorems VI.2–VI.4 and Equation 14
//! are implemented alongside and unit-tested against brute-force
//! enumeration. Note: the published form of Theorem VI.4 over-counts by
//! exactly `|E^(m)|` (a `− |S^O_b̂|` term is dropped between Equations 18
//! and 19 of the appendix); [`strict_quarter_pure_count`] implements the
//! corrected form, and the test suite demonstrates agreement with
//! enumeration for `b̂ = 1..60`.

use dam_geo::circle::{circle_intersects_rect, circle_rect_intersection_area};
use dam_geo::{BoundingBox, Point};

/// Classification of an output cell against the high-probability circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Center inside or on the circle: reported with `p̂` over its full area.
    PureHigh,
    /// Intersects the circle with center outside: split by shrinkage.
    Mixed,
    /// Disjoint from the circle: reported with `q̂`.
    PureLow,
}

/// Which discrete kernel geometry to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The paper's DAM: mixed cells carry their shrunken-rectangle area.
    Shrunken,
    /// DAM-NS: no mixed handling; a cell is high iff its center is within
    /// the circle.
    NonShrunken,
    /// Reference: mixed cells carry their *exact* circle–cell
    /// intersection area (the quantity the shrunken rectangle
    /// approximates); the shrinkage tests and kernel audits compare
    /// against it.
    ExactIntersection,
}

/// Classifies the cell at integer offset `(dx, dy)` from the input cell
/// against the circle of radius `b_hat` centered at the input cell center.
pub fn classify_offset(dx: i64, dy: i64, b_hat: u32) -> CellClass {
    let b = b_hat as f64;
    let r2 = (dx * dx + dy * dy) as f64;
    if r2 <= b * b {
        return CellClass::PureHigh;
    }
    let rect = cell_box(dx, dy);
    // Touching on a measure-zero boundary contributes no area; require a
    // strictly closer point for Mixed.
    if circle_intersects_rect(Point::new(0.0, 0.0), b, &rect) && closest_dist_sq(dx, dy) < b * b {
        CellClass::Mixed
    } else {
        CellClass::PureLow
    }
}

/// Squared distance from the origin to the closest point of the unit cell
/// at offset `(dx, dy)`.
fn closest_dist_sq(dx: i64, dy: i64) -> f64 {
    let fx = (dx.abs() as f64 - 0.5).max(0.0);
    let fy = (dy.abs() as f64 - 0.5).max(0.0);
    fx * fx + fy * fy
}

/// Unit bounding box of the cell at offset `(dx, dy)` (cell units, input
/// cell center at the origin).
fn cell_box(dx: i64, dy: i64) -> BoundingBox {
    BoundingBox::new(dx as f64 - 0.5, dy as f64 - 0.5, dx as f64 + 0.5, dy as f64 + 0.5)
}

/// Shrunken-rectangle area of a *mixed* cell (Theorem VI.1):
/// `S = 4(δ·|x| + ½)(δ·|y| + ½)` with `δ = b̂/√(x² + y²) − 1`.
///
/// For cells the circle only barely clips at a corner the construction can
/// collapse (the rectangle center `CN` falls outside the cell); the area is
/// clamped to `[0, 1]`, so such cells contribute nothing to the high
/// region — the same limit behaviour as the exact intersection area.
///
/// # Panics
/// Panics (debug) if the cell is not mixed.
pub fn shrunken_area(dx: i64, dy: i64, b_hat: u32) -> f64 {
    debug_assert_eq!(classify_offset(dx, dy, b_hat), CellClass::Mixed);
    let (x, y) = (dx.abs() as f64, dy.abs() as f64);
    let r = (x * x + y * y).sqrt();
    let delta = b_hat as f64 / r - 1.0;
    let area = 4.0 * (delta * x + 0.5) * (delta * y + 0.5);
    area.clamp(0.0, 1.0)
}

/// Exact circle–cell intersection area at an offset, as a fraction of the
/// unit cell.
pub fn exact_high_area(dx: i64, dy: i64, b_hat: u32) -> f64 {
    circle_rect_intersection_area(Point::new(0.0, 0.0), b_hat as f64, &cell_box(dx, dy))
        .clamp(0.0, 1.0)
}

/// Precomputed per-offset high-probability area fractions for one kernel
/// geometry: the `(2b̂+1)²` box of offsets that can carry high mass.
#[derive(Debug, Clone)]
pub struct DiskGeometry {
    b_hat: u32,
    kind: KernelKind,
    side: usize,
    high: Vec<f64>,
}

impl DiskGeometry {
    /// Builds the geometry for radius `b_hat` (cells) under `kind`.
    ///
    /// # Panics
    /// Panics if `b_hat == 0` (the paper's mechanisms always report a disk;
    /// `b̂ ≥ 1` is enforced upstream by
    /// [`crate::radius::optimal_b_cells`]).
    pub fn new(b_hat: u32, kind: KernelKind) -> Self {
        assert!(b_hat >= 1, "disk radius must be at least one cell");
        let side = 2 * b_hat as usize + 1;
        let mut high = vec![0.0f64; side * side];
        let b = b_hat as i64;
        for dy in -b..=b {
            for dx in -b..=b {
                let idx = ((dy + b) as usize) * side + (dx + b) as usize;
                high[idx] = match (kind, classify_offset(dx, dy, b_hat)) {
                    (_, CellClass::PureHigh) => 1.0,
                    (KernelKind::Shrunken, CellClass::Mixed) => shrunken_area(dx, dy, b_hat),
                    (KernelKind::NonShrunken, CellClass::Mixed) => 0.0,
                    (KernelKind::ExactIntersection, CellClass::Mixed) => {
                        exact_high_area(dx, dy, b_hat)
                    }
                    (_, CellClass::PureLow) => 0.0,
                };
            }
        }
        Self { b_hat, kind, side, high }
    }

    /// Disk radius in cells.
    #[inline]
    pub fn b_hat(&self) -> u32 {
        self.b_hat
    }

    /// Kernel geometry variant.
    #[inline]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Side length of the offset box (`2b̂ + 1`).
    #[inline]
    pub fn box_side(&self) -> usize {
        self.side
    }

    /// High-area fraction of the cell at offset `(dx, dy)`; zero outside
    /// the box.
    pub fn high_fraction(&self, dx: i64, dy: i64) -> f64 {
        let b = self.b_hat as i64;
        if dx.abs() > b || dy.abs() > b {
            return 0.0;
        }
        self.high[((dy + b) as usize) * self.side + (dx + b) as usize]
    }

    /// Total high-probability area `S_H` (the paper's
    /// `S_H = |A_p| + Σ S^{m,p}` accounting, before the `+1`-free form —
    /// here the center cell is included).
    pub fn sh(&self) -> f64 {
        self.high.iter().sum()
    }

    /// Iterates `(dx, dy, high_fraction)` over the offset box.
    pub fn offsets(&self) -> impl Iterator<Item = (i64, i64, f64)> + '_ {
        let b = self.b_hat as i64;
        (0..self.side * self.side).map(move |i| {
            let dy = (i / self.side) as i64 - b;
            let dx = (i % self.side) as i64 - b;
            (dx, dy, self.high[i])
        })
    }
}

// --- Closed-form counting results (validated against enumeration). ---

/// Theorem VI.2: the pure-low area for an input domain of side `d` and
/// radius `b̂` is `d² + 4b̂d − 4b̂ − 1` — equivalently, the full output
/// grid `(d + 2b̂)²` minus the `(2b̂+1)²` bounding box of the disk.
pub fn aq_area_closed_form(d: u32, b_hat: u32) -> f64 {
    let (d, b) = (d as f64, b_hat as f64);
    d * d + 4.0 * b * d - 4.0 * b - 1.0
}

/// Theorem VI.3's *candidate* cells before degeneracy filtering: one per
/// row `i`, at column `x_i = ⌈√(b̂² − (i − ½)²) − ½⌉` — the cell whose
/// bottom border is crossed by the circle.
fn strict_quarter_candidates(b_hat: u32) -> Vec<(u32, u32)> {
    let count = strict_quarter_mixed_count_theorem(b_hat);
    let b = b_hat as f64;
    (1..=count)
        .map(|i| {
            let y = i as f64 - 0.5;
            let x = ((b * b - y * y).sqrt() - 0.5).ceil() as u32;
            (x, i)
        })
        .collect()
}

/// Theorem VI.3: the *strict quarter* mixed cells — mixed cells with
/// direction strictly between 0 and π/4 (i.e. `1 ≤ y < x`) — as `(x, y)`
/// index pairs, one per row.
///
/// The paper's closed form implicitly assumes the circle passes through no
/// cell center (generic position). For Pythagorean radii (b̂ = 5, 10, 13,
/// …) the boundary cell's center lies *exactly on* the circle, making it
/// pure-high rather than mixed; those degenerate candidates are filtered
/// out here so the result matches the geometric definition for every `b̂`.
pub fn strict_quarter_mixed_cells(b_hat: u32) -> Vec<(u32, u32)> {
    let b2 = (b_hat * b_hat) as u64;
    strict_quarter_candidates(b_hat)
        .into_iter()
        .filter(|&(x, y)| (x as u64 * x as u64 + y as u64 * y as u64) > b2)
        .collect()
}

/// Number of strict-quarter mixed cells (degeneracy-corrected).
pub fn strict_quarter_mixed_count(b_hat: u32) -> u32 {
    strict_quarter_mixed_cells(b_hat).len() as u32
}

/// Theorem VI.3's count formula as printed: `⌈b̂/√2 − ½⌉ − ⌊r/b̂⌋` with
/// `r = √(r₁² + 1 + √2·r₁)`, `r₁ = ⌊b̂/√2 − ½⌋·√2 + 1/√2`. Exact for
/// radii in generic position (no lattice point on the circle within the
/// strict quarter).
pub fn strict_quarter_mixed_count_theorem(b_hat: u32) -> u32 {
    let b = b_hat as f64;
    let sqrt2 = std::f64::consts::SQRT_2;
    let h = (b / sqrt2 - 0.5).ceil();
    let r1 = (b / sqrt2 - 0.5).floor() * sqrt2 + 1.0 / sqrt2;
    let r = (r1 * r1 + 1.0 + sqrt2 * r1).sqrt();
    let correction = (r / b).floor();
    (h - correction).max(0.0) as u32
}

/// Theorem VI.4 (corrected; see module docs): the number of *strict
/// quarter* pure-high cells.
///
/// In terms of the paper's generic-position quantities
/// (`H = ⌈b̂/√2 − ½⌉`, `m` = Theorem VI.3's count, `x_i` its columns) the
/// corrected closed form is `½H(H − 2m − 1) + Σᵢ x_i − m`; every
/// degenerate (Pythagorean, center-on-circle) candidate filtered out of
/// the mixed set is pure-high instead, adding one each.
pub fn strict_quarter_pure_count(b_hat: u32) -> u32 {
    let b = b_hat as f64;
    let h = (b / std::f64::consts::SQRT_2 - 0.5).ceil();
    let candidates = strict_quarter_candidates(b_hat);
    let m = candidates.len() as f64;
    let sum_x: f64 = candidates.iter().map(|&(x, _)| x as f64).sum();
    let b2 = (b_hat * b_hat) as u64;
    let hits = candidates
        .iter()
        .filter(|&&(x, y)| (x as u64 * x as u64 + y as u64 * y as u64) <= b2)
        .count() as f64;
    let val = 0.5 * h * (h - 2.0 * m - 1.0) + sum_x - m + hits;
    val.max(0.0).round() as u32
}

/// Equation 14: the shrunken area of the diagonal (π/4-direction) mixed
/// cell — `4(b' − b̂_{π/4})²` when that quantity's root is below ½,
/// otherwise the diagonal boundary cell is pure (area 1).
/// Here `b' = b̂/√2 − ½` and `b̂_{π/4} = ⌊b'⌋`.
pub fn diagonal_shrunken_area(b_hat: u32) -> f64 {
    let bp = b_hat as f64 / std::f64::consts::SQRT_2 - 0.5;
    let k = bp.floor();
    let frac = bp - k;
    if frac < 0.5 {
        4.0 * frac * frac
    } else {
        1.0
    }
}

/// Number of pure-high cells along one diagonal arm (`b̂_{π/4} = ⌊b̂/√2 − ½⌋`
/// when the fractional part is below ½, one more otherwise — i.e. the count
/// of diagonal cells whose center distance `k√2` is within `b̂`).
pub fn diagonal_pure_count(b_hat: u32) -> u32 {
    (b_hat as f64 / std::f64::consts::SQRT_2).floor() as u32
}

/// The paper's closed-form `S_H` (§VI-A):
/// `S_H = 1 + 4(b̂ + b̂_{π/4} + S^{m,p}_{π/4}) + 8(|E^(p)| + Σ_a S_a^{m,p})`
/// — center cell, four axis arms, four diagonal arms (pure + mixed part),
/// and eight copies of the strict quarter. Only valid for the
/// [`KernelKind::Shrunken`] geometry.
pub fn sh_closed_form(b_hat: u32) -> f64 {
    let diag_pure = diagonal_pure_count(b_hat) as f64;
    let diag_mixed = if diagonal_shrunken_area(b_hat) < 1.0 {
        diagonal_shrunken_area(b_hat)
    } else {
        // Eq. 14's "else" branch: the boundary diagonal cell is pure and
        // already counted in `diag_pure`.
        0.0
    };
    let quarter_pure = strict_quarter_pure_count(b_hat) as f64;
    let quarter_mixed_sum: f64 = strict_quarter_mixed_cells(b_hat)
        .iter()
        .map(|&(x, y)| shrunken_area(x as i64, y as i64, b_hat))
        .sum();
    1.0 + 4.0 * (b_hat as f64 + diag_pure + diag_mixed) + 8.0 * (quarter_pure + quarter_mixed_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force strict-quarter mixed cells: `1 ≤ y < x`, Mixed class.
    fn enum_quarter_mixed(b_hat: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let lim = b_hat as i64 + 2;
        for y in 1..lim {
            for x in (y + 1)..lim {
                if classify_offset(x, y, b_hat) == CellClass::Mixed {
                    out.push((x as u32, y as u32));
                }
            }
        }
        out.sort_by_key(|&(_, y)| y);
        out
    }

    /// Brute-force strict-quarter pure-high cells.
    fn enum_quarter_pure(b_hat: u32) -> u32 {
        let mut n = 0;
        let lim = b_hat as i64 + 2;
        for y in 1..lim {
            for x in (y + 1)..lim {
                if classify_offset(x, y, b_hat) == CellClass::PureHigh {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn classification_basics() {
        // b̂ = 2: center and axis arms are pure high.
        assert_eq!(classify_offset(0, 0, 2), CellClass::PureHigh);
        assert_eq!(classify_offset(2, 0, 2), CellClass::PureHigh);
        assert_eq!(classify_offset(1, 1, 2), CellClass::PureHigh);
        // (2,1): center √5 > 2 but closest point √2.5 < 2 → mixed.
        assert_eq!(classify_offset(2, 1, 2), CellClass::Mixed);
        // (2,2): closest point √4.5 > 2 → pure low.
        assert_eq!(classify_offset(2, 2, 2), CellClass::PureLow);
        assert_eq!(classify_offset(3, 0, 2), CellClass::PureLow);
    }

    #[test]
    fn paper_example_b7() {
        // Figure 6 for b̂ = 7: four strict-quarter mixed cells and
        // thirteen strict-quarter pure cells.
        let mixed = strict_quarter_mixed_cells(7);
        assert_eq!(mixed, vec![(7, 1), (7, 2), (7, 3), (6, 4)]);
        assert_eq!(strict_quarter_pure_count(7), 13);
        assert_eq!(enum_quarter_mixed(7), mixed);
        assert_eq!(enum_quarter_pure(7), 13);
    }

    #[test]
    fn theorem_vi3_matches_enumeration() {
        for b in 1..=60 {
            let closed = strict_quarter_mixed_cells(b);
            let brute = enum_quarter_mixed(b);
            assert_eq!(closed, brute, "b̂ = {b}");
            assert_eq!(closed.len() as u32, strict_quarter_mixed_count(b), "b̂ = {b}");
        }
    }

    #[test]
    fn theorem_vi4_matches_enumeration() {
        for b in 1..=60 {
            assert_eq!(strict_quarter_pure_count(b), enum_quarter_pure(b), "b̂ = {b}");
        }
    }

    #[test]
    fn theorem_vi2_is_box_complement() {
        for d in 1..=25u32 {
            for b in 1..=10u32 {
                let n_out = (d + 2 * b) as f64 * (d + 2 * b) as f64;
                let bbox = (2.0 * b as f64 + 1.0).powi(2);
                assert!((aq_area_closed_form(d, b) - (n_out - bbox)).abs() < 1e-9, "d {d} b {b}");
            }
        }
    }

    #[test]
    fn sh_closed_form_matches_geometry() {
        for b in 1..=40 {
            let geo = DiskGeometry::new(b, KernelKind::Shrunken);
            let brute = geo.sh();
            let closed = sh_closed_form(b);
            assert!(
                (brute - closed).abs() < 1e-9,
                "b̂ = {b}: geometric {brute} vs closed form {closed}"
            );
        }
    }

    #[test]
    fn shrunken_area_is_a_valid_fraction() {
        for b in 1..=30u32 {
            for (dx, dy, _) in DiskGeometry::new(b, KernelKind::Shrunken).offsets() {
                if classify_offset(dx, dy, b) == CellClass::Mixed {
                    // Barely-clipped corner cells may collapse to zero area
                    // (see shrunken_area docs); all others must be in (0,1].
                    let s = shrunken_area(dx, dy, b);
                    assert!((0.0..=1.0).contains(&s), "b̂ {b} offset ({dx},{dy}): {s}");
                }
            }
        }
    }

    #[test]
    fn shrunken_approximates_exact_area() {
        // The shrunken rectangle is an approximation of the exact
        // circle–cell intersection; they must at least be on the same
        // order for every mixed cell.
        for b in [2u32, 5, 11, 23] {
            for (dx, dy, _) in DiskGeometry::new(b, KernelKind::Shrunken).offsets() {
                if classify_offset(dx, dy, b) == CellClass::Mixed {
                    let s = shrunken_area(dx, dy, b);
                    let e = exact_high_area(dx, dy, b);
                    assert!((s - e).abs() < 0.5, "b̂ {b} ({dx},{dy}): shrunken {s} vs exact {e}");
                }
            }
        }
    }

    #[test]
    fn geometry_symmetry() {
        // The disk is 8-fold symmetric; the per-offset areas must be too.
        let geo = DiskGeometry::new(6, KernelKind::Shrunken);
        for (dx, dy, h) in geo.offsets() {
            assert_eq!(h, geo.high_fraction(-dx, dy), "x mirror at ({dx},{dy})");
            assert_eq!(h, geo.high_fraction(dx, -dy), "y mirror at ({dx},{dy})");
            assert_eq!(h, geo.high_fraction(dy, dx), "diagonal mirror at ({dx},{dy})");
        }
    }

    #[test]
    fn nonshrunken_is_center_rule() {
        let b = 4;
        let ns = DiskGeometry::new(b, KernelKind::NonShrunken);
        for (dx, dy, h) in ns.offsets() {
            let expect = if (dx * dx + dy * dy) as f64 <= (b * b) as f64 { 1.0 } else { 0.0 };
            assert_eq!(h, expect, "offset ({dx},{dy})");
        }
    }

    #[test]
    fn sh_ordering_between_kernels() {
        // Non-shrunken discards mixed area, so its S_H is smallest; the
        // shrunken S_H adds positive mixed parts.
        for b in 1..=20 {
            let s = DiskGeometry::new(b, KernelKind::Shrunken).sh();
            let ns = DiskGeometry::new(b, KernelKind::NonShrunken).sh();
            let ex = DiskGeometry::new(b, KernelKind::ExactIntersection).sh();
            assert!(s >= ns, "b̂ {b}: shrunken {s} < non-shrunken {ns}");
            assert!(ex >= ns, "b̂ {b}: exact {ex} < non-shrunken {ns}");
            // Away from the tiny-radius regime (where cell-granularity
            // error dominates — the paper's own small-d caveat in
            // §VII-C2), both approximate the true disk area π b̂².
            if b >= 3 {
                let disk = std::f64::consts::PI * (b * b) as f64;
                for (name, v) in [("shrunken", s), ("exact", ex)] {
                    assert!((v - disk).abs() / disk < 0.35, "b̂ {b} {name}: S_H {v} vs disk {disk}");
                }
            }
        }
    }

    #[test]
    fn exact_kernel_sh_converges_to_disk_area() {
        // With exact intersection areas, S_H → πb̂² as b̂ grows.
        let b = 40;
        let sh = DiskGeometry::new(b, KernelKind::ExactIntersection).sh();
        let disk = std::f64::consts::PI * (b * b) as f64;
        assert!((sh - disk).abs() / disk < 0.01, "S_H {sh} vs {disk}");
    }

    #[test]
    fn diagonal_closed_forms() {
        for b in 1..=40u32 {
            // Count diagonal pure cells by enumeration.
            let mut pure = 0;
            let mut mixed_area = 0.0;
            for k in 1..=(b as i64 + 1) {
                match classify_offset(k, k, b) {
                    CellClass::PureHigh => pure += 1,
                    CellClass::Mixed => mixed_area += shrunken_area(k, k, b),
                    CellClass::PureLow => {}
                }
            }
            assert_eq!(diagonal_pure_count(b), pure, "b̂ {b} diagonal pure");
            let eq14 = diagonal_shrunken_area(b);
            if eq14 < 1.0 {
                assert!(
                    (eq14 - mixed_area).abs() < 1e-9,
                    "b̂ {b}: eq14 {eq14} vs enumerated {mixed_area}"
                );
            } else {
                assert_eq!(mixed_area, 0.0, "b̂ {b}: no mixed diagonal expected");
            }
        }
    }
}
