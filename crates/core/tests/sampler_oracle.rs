//! Oracle suite for `GridAreaResponse`: the report sampler must make
//! exactly the RNG draws of the direct mixture sampler and land in the
//! same output cell, for every input cell of every shape below. The
//! reference is deliberately the plain form — `AliasTable::sample` over
//! the box excess `δ` then one floor outcome `q̂` per output cell, a box
//! pick split by `%`/`/` and a floor pick taken as an absolute cell — so
//! any later sampler change is checked against it rather than against
//! itself.

use dam_core::kernel::DiscreteKernel;
use dam_core::response::GridAreaResponse;
use dam_core::{DamClient, DamConfig, SamVariant};
use dam_fo::alias::AliasTable;
use dam_geo::rng::keyed;
use dam_geo::{BoundingBox, CellIndex, Grid2D, Point};
use rand::{Rng, RngCore};

/// Salt naming this suite's per-input-cell streams.
const ORACLE_SALT: u64 = 0x0AC1_E5A3_B1E5_0017;

/// The mixture sampler `M[o, i] = q̂ + δ(o − i)`: one alias draw over the
/// box offsets weighted `δ` and the output cells weighted `q̂`.
struct Reference {
    kernel: DiscreteKernel,
    alias: AliasTable,
}

impl Reference {
    fn new(kernel: DiscreteKernel) -> Self {
        let mut weights = kernel.offset_excess();
        weights.extend(std::iter::repeat_n(kernel.q_hat(), kernel.n_out()));
        let alias = AliasTable::new(&weights);
        Self { kernel, alias }
    }

    fn respond(&self, input: CellIndex, rng: &mut (impl Rng + ?Sized)) -> CellIndex {
        let d = self.kernel.d();
        assert!(input.ix < d && input.iy < d, "input cell out of grid");
        let side = self.kernel.box_side();
        let box_cells = side * side;
        let pick = self.alias.sample(rng);
        if pick < box_cells {
            // The box's lower-left corner sits at the input's own index
            // in output coordinates.
            CellIndex::new(input.ix + (pick % side) as u32, input.iy + (pick / side) as u32)
        } else {
            let out_d = self.kernel.out_d() as usize;
            let cell = pick - box_cells;
            CellIndex::new((cell % out_d) as u32, (cell / out_d) as u32)
        }
    }
}

/// Every shape the suite covers, as `(name, variant, ε, d, b̂)`: a box
/// that covers the whole output grid (d = 1), the smallest far field
/// (d = 2), the randomized-response limit (b̂ = 0), the `ingest-1m` shape
/// (d = 20, b̂ = 4), the `stream-fft` shape (d = 64, b̂ = 14), and the
/// DAM-NS and HUEM kernels.
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
/// [`sampler_matches_pinned_bits`], as the mixture sampler produces them.
const SAMPLER_BITS: u64 = 0x433f_cbc6_57dc_3697;

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
