//! Street-grid city simulator.
//!
//! Stands in for the Chicago Crimes and NYC Green Taxi datasets, whose
//! portals are not reachable offline (see the crate docs). Points are
//! drawn from a mixture of:
//!
//! * **streets** — axis-aligned road segments (a Manhattan grid) with
//!   small perpendicular jitter, weighted towards a downtown center, and
//! * **hotspots** — isotropic Gaussian clusters (crime hot blocks / taxi
//!   stands).
//!
//! The resulting point clouds concentrate on 1-D axis-aligned manifolds
//! with skewed intensity — the structural property of road-network data
//! that drives the paper's DAM-vs-DAM-NS comparison (§VII-C2).

use crate::synthetic::standard_normal;
use dam_geo::{BoundingBox, Point};
use rand::Rng;

/// Configuration of the simulator.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Region covered by the city.
    pub bbox: BoundingBox,
    /// Number of horizontal streets.
    pub streets_h: usize,
    /// Number of vertical streets.
    pub streets_v: usize,
    /// Perpendicular jitter around a street's centreline, as a fraction of
    /// the bbox side.
    pub street_sigma: f64,
    /// Downtown center (streets closer to it carry more traffic).
    pub downtown: Point,
    /// Exponential decay rate of street weight with distance from
    /// downtown, in units of the bbox side.
    pub decay: f64,
    /// Gaussian hotspots: `(center, sigma_fraction, weight)`.
    pub hotspots: Vec<(Point, f64, f64)>,
    /// Fraction of points drawn from hotspots rather than streets.
    pub hotspot_mass: f64,
}

impl CityConfig {
    /// A Chicago-like layout: sparse wide grid, south-side hotspots.
    pub fn chicago_like(bbox: BoundingBox) -> Self {
        let c = bbox.center();
        let w = bbox.side();
        Self {
            bbox,
            streets_h: 28,
            streets_v: 22,
            street_sigma: 0.002,
            downtown: Point::new(c.x + 0.18 * w, c.y + 0.05 * w),
            decay: 2.0,
            hotspots: vec![
                (Point::new(c.x - 0.05 * w, c.y - 0.28 * w), 0.03, 2.0),
                (Point::new(c.x + 0.10 * w, c.y - 0.10 * w), 0.04, 1.5),
                (Point::new(c.x - 0.20 * w, c.y + 0.15 * w), 0.05, 1.0),
            ],
            hotspot_mass: 0.35,
        }
    }

    /// An NYC-like layout: dense avenue grid, strong midtown hotspots.
    pub fn nyc_like(bbox: BoundingBox) -> Self {
        let c = bbox.center();
        let w = bbox.side();
        Self {
            bbox,
            streets_h: 44,
            streets_v: 16,
            street_sigma: 0.0015,
            downtown: Point::new(c.x - 0.08 * w, c.y + 0.12 * w),
            decay: 2.6,
            hotspots: vec![
                (Point::new(c.x - 0.08 * w, c.y + 0.12 * w), 0.025, 3.0),
                (Point::new(c.x + 0.15 * w, c.y - 0.20 * w), 0.03, 1.2),
            ],
            hotspot_mass: 0.45,
        }
    }
}

/// Generates `n` points from a city layout.
pub fn generate_city(cfg: &CityConfig, n: usize, rng: &mut (impl Rng + ?Sized)) -> Vec<Point> {
    assert!(cfg.streets_h >= 1 && cfg.streets_v >= 1, "need at least one street per axis");
    assert!((0.0..=1.0).contains(&cfg.hotspot_mass), "hotspot mass is a fraction");
    let b = cfg.bbox;
    let side = b.side();

    // Street centrelines with deterministic small stagger so the layout is
    // a function of the config, not the point stream.
    let street_pos = |count: usize, lo: f64, extent: f64, phase: f64| -> Vec<f64> {
        (0..count)
            .map(|i| {
                let frac =
                    (i as f64 + 0.5 + 0.2 * ((i as f64 * 2.39996 + phase).sin())) / count as f64;
                lo + frac * extent
            })
            .collect()
    };
    let rows = street_pos(cfg.streets_h, b.min_y, b.height(), 0.3);
    let cols = street_pos(cfg.streets_v, b.min_x, b.width(), 1.1);

    // Street weights decay with centreline distance from downtown.
    let row_w: Vec<f64> =
        rows.iter().map(|&y| (-cfg.decay * (y - cfg.downtown.y).abs() / side).exp()).collect();
    let col_w: Vec<f64> =
        cols.iter().map(|&x| (-cfg.decay * (x - cfg.downtown.x).abs() / side).exp()).collect();
    let row_total: f64 = row_w.iter().sum();
    let col_total: f64 = col_w.iter().sum();
    let hotspot_total: f64 = cfg.hotspots.iter().map(|h| h.2).sum();

    // Takes a pre-drawn uniform variate so the helper stays independent of
    // the (possibly unsized) RNG type.
    let pick_weighted = |weights: &[f64], total: f64, u: f64| -> usize {
        let mut t = u * total;
        for (i, &w) in weights.iter().enumerate() {
            if t < w {
                return i;
            }
            t -= w;
        }
        weights.len() - 1
    };

    let clamp = |p: Point| -> Point {
        Point::new(p.x.clamp(b.min_x, b.max_x), p.y.clamp(b.min_y, b.max_y))
    };

    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = if hotspot_total > 0.0 && rng.gen::<f64>() < cfg.hotspot_mass {
            let weights: Vec<f64> = cfg.hotspots.iter().map(|h| h.2).collect();
            let h = &cfg.hotspots[pick_weighted(&weights, hotspot_total, rng.gen())];
            Point::new(
                h.0.x + h.1 * side * standard_normal(rng),
                h.0.y + h.1 * side * standard_normal(rng),
            )
        } else if rng.gen::<bool>() {
            // Horizontal street: y fixed on a centreline, x spread along
            // it with density decaying away from downtown.
            let y = rows[pick_weighted(&row_w, row_total, rng.gen())];
            let along = cfg.downtown.x
                + (rng.gen::<f64>() - 0.5) * b.width() * (0.4 + 0.6 * rng.gen::<f64>()) * 2.0;
            Point::new(along, y + cfg.street_sigma * side * standard_normal(rng))
        } else {
            let x = cols[pick_weighted(&col_w, col_total, rng.gen())];
            let along = cfg.downtown.y
                + (rng.gen::<f64>() - 0.5) * b.height() * (0.4 + 0.6 * rng.gen::<f64>()) * 2.0;
            Point::new(x + cfg.street_sigma * side * standard_normal(rng), along)
        };
        out.push(clamp(p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn test_bbox() -> BoundingBox {
        BoundingBox::new(41.6, -88.0, 42.0, -87.5)
    }

    #[test]
    fn generates_exact_count_inside_bbox() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(160);
        let cfg = CityConfig::chicago_like(test_bbox());
        let pts = generate_city(&cfg, 10_000, &mut rng);
        assert_eq!(pts.len(), 10_000);
        assert!(pts.iter().all(|p| cfg.bbox.contains(*p)));
    }

    #[test]
    fn points_concentrate_on_streets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(161);
        let bbox = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let mut cfg = CityConfig::chicago_like(bbox);
        cfg.hotspot_mass = 0.0; // streets only
        let pts = generate_city(&cfg, 30_000, &mut rng);
        // Most points lie within 3σ of some street centreline.
        let tol = 3.0 * cfg.street_sigma;
        let rows: Vec<f64> = (0..cfg.streets_h)
            .map(|i| {
                (i as f64 + 0.5 + 0.2 * ((i as f64 * 2.39996 + 0.3).sin())) / cfg.streets_h as f64
            })
            .collect();
        let cols: Vec<f64> = (0..cfg.streets_v)
            .map(|i| {
                (i as f64 + 0.5 + 0.2 * ((i as f64 * 2.39996 + 1.1).sin())) / cfg.streets_v as f64
            })
            .collect();
        let on_street = pts
            .iter()
            .filter(|p| {
                rows.iter().any(|&y| (p.y - y).abs() < tol)
                    || cols.iter().any(|&x| (p.x - x).abs() < tol)
            })
            .count() as f64;
        let frac = on_street / pts.len() as f64;
        assert!(frac > 0.95, "only {frac} of points on streets");
    }

    #[test]
    fn downtown_is_denser_than_periphery() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(162);
        let bbox = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let cfg = CityConfig::nyc_like(bbox);
        let pts = generate_city(&cfg, 50_000, &mut rng);
        let near = pts.iter().filter(|p| p.dist(cfg.downtown) < 0.2).count();
        let corner = Point::new(bbox.max_x - 0.1, bbox.min_y + 0.1);
        let far = pts.iter().filter(|p| p.dist(corner) < 0.2).count();
        assert!(near > 2 * far, "downtown ({near}) not denser than periphery ({far})");
    }

    #[test]
    fn layouts_differ_between_cities() {
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(163);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(163);
        let bbox = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let chi = generate_city(&CityConfig::chicago_like(bbox), 5_000, &mut rng_a);
        let nyc = generate_city(&CityConfig::nyc_like(bbox), 5_000, &mut rng_b);
        // Same seed, different layout => different clouds.
        let same = chi.iter().zip(&nyc).filter(|(a, b)| a.dist(**b) < 1e-9).count();
        assert!(same < 100, "layouts look identical ({same} coincident points)");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let bbox = test_bbox();
        let cfg = CityConfig::chicago_like(bbox);
        let a = generate_city(&cfg, 1000, &mut rand::rngs::StdRng::seed_from_u64(7));
        let b = generate_city(&cfg, 1000, &mut rand::rngs::StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
