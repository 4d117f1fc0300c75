//! Bit-level pins of [`dam_core::Pyramid`]'s answers.
//!
//! `pyramid_props.rs` checks the cover walk against naive summation to a
//! tolerance; this suite pins the exact bits. A point query must return
//! exactly what the 1×1 cover returns, and every `range_sum_counted`
//! answer and node count is folded into one FNV-1a hash, so a change to
//! the walk's node set or summation order moves the pin.
//!
//! The planes are irregular (values spread over five decades, so the
//! summation order shows in the low bits), sit on non-power-of-two
//! sides except d = 64, and carry a `−0.0` leaf that the pyramid is
//! built around verbatim.

use dam_core::Pyramid;
use dam_geo::rng::splitmix64;

/// The cell whose leaf holds `−0.0` (inside every grid below).
const NEG_ZERO_CELL: (u32, u32) = (3, 2);

/// A deterministic irregular plane: uniform draws scaled by 10^(k % 5).
fn plane(d: u32) -> Vec<f64> {
    (0..u64::from(d * d))
        .map(|i| {
            let z = splitmix64(i ^ (u64::from(d) << 40));
            let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            unit * 10f64.powi((z % 5) as i32 - 2)
        })
        .collect()
}

/// The exact pyramid over [`plane`], rebuilt through
/// [`Pyramid::from_levels`] with the leaf at [`NEG_ZERO_CELL`] set to
/// `−0.0` (which [`Pyramid::from_plane`] would normalize to `+0.0`).
fn pyramid(d: u32) -> Pyramid {
    let exact = Pyramid::from_plane(&plane(d), d);
    let mut levels: Vec<Vec<f64>> = exact.levels().iter().map(|lv| lv.values().to_vec()).collect();
    let leaf = levels.last_mut().expect("at least one level");
    let (x, y) = NEG_ZERO_CELL;
    leaf[(y * d.next_power_of_two() + x) as usize] = -0.0;
    Pyramid::from_levels(&levels, d)
}

#[test]
fn point_queries_match_the_one_cell_cover_bit_for_bit() {
    for d in [6u32, 20, 64] {
        for p in [Pyramid::from_plane(&plane(d), d), pyramid(d)] {
            for iy in 0..d {
                for ix in 0..d {
                    let (cell, cover) = (p.cell(ix, iy), p.range_sum(ix, iy, ix, iy));
                    assert_eq!(cell.to_bits(), cover.to_bits(), "d={d} cell ({ix}, {iy})");
                }
            }
        }
        // The `−0.0` leaf answers `+0.0`, as a summing accumulator does.
        let (x, y) = NEG_ZERO_CELL;
        assert_eq!(pyramid(d).cell(x, y).to_bits(), 0f64.to_bits());
    }
}

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn answer(&mut self, p: &Pyramid, x0: u32, y0: u32, x1: u32, y1: u32) {
        let (sum, nodes) = p.range_sum_counted(x0, y0, x1, y1);
        self.fold(sum.to_bits());
        self.fold(nodes as u64);
    }
}

/// Every range at d ∈ {6, 20} and 4096 keyed ranges at d = 64, answers
/// and node counts. The constant was computed on the `div_ceil` walk
/// this suite was written against.
#[test]
fn range_answers_and_covers_match_pinned_bits() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for d in [6u32, 20] {
        let p = pyramid(d);
        for y0 in 0..d {
            for y1 in y0..d {
                for x0 in 0..d {
                    for x1 in x0..d {
                        h.answer(&p, x0, y0, x1, y1);
                    }
                }
            }
        }
    }
    let d = 64u32;
    let p = pyramid(d);
    for k in 0..4096u64 {
        let z = splitmix64(k ^ 0x5EED_0064);
        let [a, b, c, e] = [0, 16, 32, 48].map(|s| ((z >> s) & 0xFFFF) as u32 % d);
        h.answer(&p, a.min(c), b.min(e), a.max(c), b.max(e));
    }
    assert_eq!(h.0, PINNED, "pyramid answers moved: {:#018x}", h.0);
}

const PINNED: u64 = 0x0e1c_527c_ede8_eb0c;
