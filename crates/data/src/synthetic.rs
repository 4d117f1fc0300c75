//! Synthetic dataset generators (§VII-A of the paper).

use dam_geo::Point;
use rand::Rng;

/// Draws one standard normal variate (Box–Muller).
pub fn standard_normal(rng: &mut (impl Rng + ?Sized)) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// `Normal(µx, µy, σx, σy, ρ)`: 2-D Gaussian with correlation `ρ`,
/// rejection-clipped to `clip` (the paper clips to `(−5, 5)²`).
pub fn normal_2d(
    n: usize,
    mu: (f64, f64),
    sigma: (f64, f64),
    rho: f64,
    clip: f64,
    rng: &mut (impl Rng + ?Sized),
) -> Vec<Point> {
    assert!((-1.0..1.0).contains(&rho), "correlation must be in (-1, 1)");
    assert!(clip > 0.0, "clip range must be positive");
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let z1 = standard_normal(rng);
        let z2 = standard_normal(rng);
        let x = mu.0 + sigma.0 * z1;
        let y = mu.1 + sigma.1 * (rho * z1 + (1.0 - rho * rho).sqrt() * z2);
        if x.abs() < clip && y.abs() < clip {
            out.push(Point::new(x, y));
        }
    }
    out
}

/// The paper's `Normal(0, 0, 1, 1, 0.5)` dataset shape.
pub fn normal_dataset(n: usize, rng: &mut (impl Rng + ?Sized)) -> Vec<Point> {
    normal_2d(n, (0.0, 0.0), (1.0, 1.0), 0.5, 5.0, rng)
}

/// Skew-Zipf marginal: CDF `F(x) = ln(1 + x)/ln 2` on `[0, 1)`
/// (the "Skew Zipf(1/ln2, 1, 1)" of §VII-A; inverse sampling
/// `x = 2^u − 1`).
pub fn szipf_coord(rng: &mut (impl Rng + ?Sized)) -> f64 {
    let u: f64 = rng.gen();
    (2.0f64.powf(u) - 1.0).min(1.0 - f64::EPSILON)
}

/// The paper's SZipf dataset: both coordinates i.i.d. skew-Zipf on
/// `[0, 1)²`.
pub fn szipf_dataset(n: usize, rng: &mut (impl Rng + ?Sized)) -> Vec<Point> {
    (0..n).map(|_| Point::new(szipf_coord(rng), szipf_coord(rng))).collect()
}

/// The paper's MNormal dataset: three equal Normal components with
/// `ρ ∈ {0.5, 0, −0.2}`. The component centers are unspecified in the
/// paper (its reported range `[−4.25, 6.18] × [−4.32, 6.44]` implies
/// offsets); we use `(0,0)`, `(2,2)` and `(1,1.2)`, unit-variance
/// components whose union spans a range of that shape.
pub fn mnormal_dataset(n: usize, rng: &mut (impl Rng + ?Sized)) -> Vec<Point> {
    let per = n / 3;
    let mut out = Vec::with_capacity(n);
    let components = [((0.0, 0.0), 0.5), ((2.0, 2.0), 0.0), ((1.0, 1.2), -0.2)];
    for (idx, &(mu, rho)) in components.iter().enumerate() {
        let count = if idx == 2 { n - 2 * per } else { per };
        out.extend(normal_2d(count, mu, (1.0, 1.0), rho, 7.0, rng));
    }
    out
}

/// Share of each [`drifting_foci`] epoch drawn from the uniform
/// background.
const DRIFT_BACKGROUND: f64 = 0.1;
/// Focus drift per epoch as a fraction of the full trajectory — a fixed
/// *rate*, so a longer stream covers more of the path instead of moving
/// faster (≈0.6 cells/epoch at d = 20).
const DRIFT_PER_EPOCH: f64 = 0.03;

/// One epoch of the streaming figures' moving scenario on the unit
/// square: two Gaussian foci (σ = 0.05, clamped to the square) sliding
/// in opposite directions, at progress `u = min(0.03 · epoch, 1)` along
/// their paths, plus a 10% uniform background. `fig_stream`,
/// `fig_service` and `fig_cluster` all draw from it, so their figures
/// are comparable.
pub fn drifting_foci(n: usize, epoch: usize, rng: &mut (impl Rng + ?Sized)) -> Vec<Point> {
    let u = (epoch as f64 * DRIFT_PER_EPOCH).min(1.0);
    let foci = [(0.15 + 0.70 * u, 0.25 + 0.30 * u), (0.85 - 0.70 * u, 0.75 - 0.30 * u)];
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < DRIFT_BACKGROUND {
                return Point::new(rng.gen(), rng.gen());
            }
            let (cx, cy) = foci[usize::from(rng.gen::<f64>() < 0.45)];
            Point::new(
                (cx + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
                (cy + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(150);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn normal_2d_has_requested_correlation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(151);
        let pts = normal_2d(150_000, (0.0, 0.0), (1.0, 1.0), 0.5, 5.0, &mut rng);
        let n = pts.len() as f64;
        let mx: f64 = pts.iter().map(|p| p.x).sum::<f64>() / n;
        let my: f64 = pts.iter().map(|p| p.y).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for p in &pts {
            cov += (p.x - mx) * (p.y - my);
            vx += (p.x - mx) * (p.x - mx);
            vy += (p.y - my) * (p.y - my);
        }
        let rho = cov / (vx.sqrt() * vy.sqrt());
        assert!((rho - 0.5).abs() < 0.02, "rho {rho}");
    }

    #[test]
    fn normal_2d_respects_clip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(152);
        let pts = normal_2d(20_000, (0.0, 0.0), (1.0, 1.0), 0.5, 5.0, &mut rng);
        assert!(pts.iter().all(|p| p.x.abs() < 5.0 && p.y.abs() < 5.0));
        assert_eq!(pts.len(), 20_000);
    }

    #[test]
    fn szipf_cdf_matches_closed_form() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(153);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| szipf_coord(&mut rng)).collect();
        // Empirical CDF at a few probe points vs ln(1+x)/ln2.
        for &probe in &[0.1, 0.25, 0.5, 0.75] {
            let emp = xs.iter().filter(|&&x| x <= probe).count() as f64 / n as f64;
            let theory = (1.0 + probe).ln() / 2.0f64.ln();
            assert!((emp - theory).abs() < 0.01, "probe {probe}: {emp} vs {theory}");
        }
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn szipf_is_skewed_towards_zero() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(154);
        let xs: Vec<f64> = (0..50_000).map(|_| szipf_coord(&mut rng)).collect();
        let below_half = xs.iter().filter(|&&x| x < 0.5).count() as f64 / xs.len() as f64;
        // ln(1.5)/ln 2 ≈ 0.585 > 0.5: more mass below the midpoint.
        assert!(below_half > 0.55, "below-half fraction {below_half}");
    }

    #[test]
    fn mnormal_produces_exact_count_and_offset_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(155);
        let pts = mnormal_dataset(30_000, &mut rng);
        assert_eq!(pts.len(), 30_000);
        // Multi-center structure shifts the upper range beyond a single
        // standard normal's reach (paper reports max ≈ 6.2).
        let max_x = pts.iter().map(|p| p.x).fold(f64::MIN, f64::max);
        assert!(max_x > 3.5, "max_x {max_x} suggests centers were not offset");
    }
}
