//! Oracle suite for `GridAreaResponse`: the report sampler must make
//! exactly the RNG draws of the direct rectangle-decomposition sampler and
//! land in the same output cell, for every input cell of every shape
//! below. The reference is deliberately the plain form — a `%`/`/` split
//! of the alias pick and up to four far-field rectangles — so any later
//! sampler change is checked against it rather than against itself.

use dam_core::kernel::DiscreteKernel;
use dam_core::response::GridAreaResponse;
use dam_core::{DamClient, DamConfig, SamVariant};
use dam_fo::alias::AliasTable;
use dam_geo::rng::keyed;
use dam_geo::{BoundingBox, CellIndex, Grid2D, Point};
use rand::{Rng, RngCore};

/// Salt naming this suite's per-input-cell streams.
const ORACLE_SALT: u64 = 0x0AC1_E5A3_B1E5_0017;

/// The rectangle-decomposition sampler: one alias draw over the box
/// offsets plus a far outcome, the offset split by `%`/`/`, and the far
/// field drawn uniformly over up to four rectangles.
struct Reference {
    kernel: DiscreteKernel,
    alias: AliasTable,
}

impl Reference {
    fn new(kernel: DiscreteKernel) -> Self {
        let box_cells = kernel.box_side() * kernel.box_side();
        let far_cells = kernel.n_out() - box_cells;
        let mut weights = Vec::with_capacity(box_cells + 1);
        weights.extend_from_slice(kernel.offset_masses());
        weights.push(far_cells as f64 * kernel.q_hat());
        let alias = AliasTable::new(&weights);
        Self { kernel, alias }
    }

    fn respond(&self, input: CellIndex, rng: &mut (impl Rng + ?Sized)) -> CellIndex {
        let d = self.kernel.d();
        assert!(input.ix < d && input.iy < d, "input cell out of grid");
        let b = self.kernel.b_hat();
        let side = self.kernel.box_side();
        let box_cells = side * side;
        let pick = self.alias.sample(rng);
        if pick < box_cells {
            let dx = (pick % side) as i64 - b as i64;
            let dy = (pick / side) as i64 - b as i64;
            CellIndex::new(
                (input.ix as i64 + b as i64 + dx) as u32,
                (input.iy as i64 + b as i64 + dy) as u32,
            )
        } else {
            self.sample_far(input, rng)
        }
    }

    fn sample_far(&self, input: CellIndex, rng: &mut (impl Rng + ?Sized)) -> CellIndex {
        let out_d = self.kernel.out_d() as u64;
        // The box in output coordinates: [bx0, bx1] × [by0, by1].
        let bx0 = input.ix as u64;
        let bx1 = input.ix as u64 + 2 * self.kernel.b_hat() as u64;
        let by0 = input.iy as u64;
        let by1 = input.iy as u64 + 2 * self.kernel.b_hat() as u64;
        debug_assert!(bx1 < out_d && by1 < out_d);

        // (x0, x1, y0, y1) inclusive rectangles.
        let mut rects: [(u64, u64, u64, u64); 4] = [(0, 0, 0, 0); 4];
        let mut areas = [0u64; 4];
        let mut n = 0;
        if by0 > 0 {
            rects[n] = (0, out_d - 1, 0, by0 - 1);
            n += 1;
        }
        if by1 + 1 < out_d {
            rects[n] = (0, out_d - 1, by1 + 1, out_d - 1);
            n += 1;
        }
        if bx0 > 0 {
            rects[n] = (0, bx0 - 1, by0, by1);
            n += 1;
        }
        if bx1 + 1 < out_d {
            rects[n] = (bx1 + 1, out_d - 1, by0, by1);
            n += 1;
        }
        assert!(n > 0, "far-field sampling requires d >= 2 or was mis-weighted");
        let mut total = 0u64;
        for k in 0..n {
            let (x0, x1, y0, y1) = rects[k];
            areas[k] = (x1 - x0 + 1) * (y1 - y0 + 1);
            total += areas[k];
        }
        let mut t = rng.gen_range(0..total);
        for k in 0..n {
            if t < areas[k] {
                let (x0, x1, y0, _) = rects[k];
                let w = x1 - x0 + 1;
                return CellIndex::new((x0 + t % w) as u32, (y0 + t / w) as u32);
            }
            t -= areas[k];
        }
        unreachable!("rectangle areas summed to total");
    }
}

/// Every shape the suite covers, as `(name, variant, ε, d, b̂)`: no far
/// field (d = 1), the smallest far field (d = 2), the randomized-response
/// limit (b̂ = 0), the `ingest-1m` shape (d = 20, b̂ = 4), the `stream-fft`
/// shape (d = 64, b̂ = 14), and the DAM-NS and HUEM kernels. Every d ≥ 3
/// shape includes the inputs with a one-cell side strip (`ix = 1`,
/// `ix = d − 2`).
const SHAPES: [(&str, SamVariant, f64, u32, u32); 7] = [
    ("d1", SamVariant::Dam, 1.0, 1, 3),
    ("d2", SamVariant::Dam, 0.5, 2, 1),
    ("rr", SamVariant::Dam, 2.0, 5, 0),
    ("ingest", SamVariant::Dam, 3.5, 20, 4),
    ("fft", SamVariant::Dam, 3.0, 64, 14),
    ("dam-ns", SamVariant::DamNonShrunken, 1.5, 9, 3),
    ("huem", SamVariant::Huem, 2.0, 8, 3),
];

fn client(variant: SamVariant, eps: f64, d: u32, b_hat: u32) -> DamClient {
    let config = DamConfig { variant, b_hat: Some(b_hat), ..DamConfig::dam(eps) };
    let client = DamClient::new(Grid2D::new(BoundingBox::unit(), d), &config);
    assert_eq!(client.kernel().b_hat(), b_hat);
    client
}

#[test]
fn sampler_matches_reference_draw_for_draw() {
    for (name, variant, eps, d, b_hat) in SHAPES {
        let kernel = client(variant, eps, d, b_hat).kernel().clone();
        let reference = Reference::new(kernel.clone());
        let sampler = GridAreaResponse::new(kernel);
        // About 200k draws per shape, at least 50 per input cell.
        let per_cell = (200_000 / (d * d) as usize).max(50);
        let mut far = 0usize;
        for iy in 0..d {
            for ix in 0..d {
                let input = CellIndex::new(ix, iy);
                let mut a = keyed(17, ORACLE_SALT, u64::from(iy * d + ix));
                let mut b = a.clone();
                for draw in 0..per_cell {
                    let want = reference.respond(input, &mut a);
                    let got = sampler.respond(input, &mut b);
                    assert_eq!(
                        (got.ix, got.iy),
                        (want.ix, want.iy),
                        "{name}: input ({ix},{iy}) draw {draw}"
                    );
                    if want.ix.abs_diff(ix + b_hat) > b_hat || want.iy.abs_diff(iy + b_hat) > b_hat
                    {
                        far += 1;
                    }
                }
                // Same number of draws consumed, not just the same cells.
                assert_eq!(a.next_u64(), b.next_u64(), "{name}: input ({ix},{iy}) stream drift");
            }
        }
        if d > 1 {
            assert!(far > 0, "{name}: the far field was never exercised");
        }
    }
}

/// Deterministic point cloud covering the unit square.
fn span_points(n: usize) -> Vec<Point> {
    (0..n).map(|i| Point::new((i % 101) as f64 / 101.0, ((i * 7) % 89) as f64 / 89.0)).collect()
}

/// FNV-1a over the `report_batch` planes of every shape in
/// [`sampler_matches_pinned_bits`], as the direct rectangle-decomposition
/// sampler produces them.
const SAMPLER_BITS: u64 = 0x5fe2_1ff7_d17b_3537;

/// Pins the whole report pipeline bit for bit: any change to which draw
/// feeds which cell moves the hash.
#[test]
fn sampler_matches_pinned_bits() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let points = span_points(20_000);
    for (_, variant, eps, d, b_hat) in SHAPES {
        let client = client(variant, eps, d, b_hat);
        let plane = client.report_batch(&points, 0x5A3B_1E00 + u64::from(d), Some(1));
        assert_eq!(plane.iter().sum::<f64>(), points.len() as f64);
        for byte in plane.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(h, SAMPLER_BITS, "report planes moved: got {h:#018x}");
}
