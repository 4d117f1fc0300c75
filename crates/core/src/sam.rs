//! Continuous Spatial Area Mechanisms (§IV–V of the paper).
//!
//! A SAM (Definition 4) randomizes a point `v` of the unit square `D` into
//! the dilated output domain `D̃` (the rounded square of area
//! `1 + 4b + πb²`) using a wave function `W : R² → [q, e^ε q]` with
//! `W(z) = q` outside the disk `‖z‖ ≤ b` and total disk mass
//! `1 − (4b + 1)q`. Theorem IV.1 shows any such mechanism is ε-LDP.
//!
//! Two instances are implemented:
//!
//! * [`ContinuousDam`] (Definition 8) — constant `p` inside the disk; the
//!   optimal SAM under the sliced-Wasserstein objective (Theorem V.2);
//! * [`ContinuousHuem`] (Definition 5) — exponentially decaying density
//!   inside the disk, the paper's direct baseline.
//!
//! The discrete, grid-bucketized versions used on real data live in
//! [`crate::kernel`]; these continuous forms exist for analysis and for
//! validating the discrete ones against their limits.

use dam_geo::Point;
use rand::Rng;

/// Common behaviour of a continuous Spatial Area Mechanism on the unit
/// square.
pub trait Sam {
    /// Privacy budget ε.
    fn eps(&self) -> f64;

    /// High-probability radius `b`.
    fn b(&self) -> f64;

    /// Low (far-field) density `q`.
    fn q(&self) -> f64;

    /// The wave function `W(z)`: reporting density at offset `z = ṽ − v`.
    /// Must satisfy `q ≤ W(z) ≤ e^ε q` everywhere and `W(z) = q` for
    /// `‖z‖ > b`.
    fn wave(&self, z: Point) -> f64;

    /// Draws a report `ṽ ∈ D̃` for the input `v ∈ [0,1]²`.
    fn sample(&self, v: Point, rng: &mut (impl Rng + ?Sized)) -> Point
    where
        Self: Sized,
    {
        sample_sam(self, v, rng)
    }
}

/// Is `p` inside the rounded-square output domain `D̃` (all points within
/// distance `b` of the unit square)?
pub fn in_output_domain(p: Point, b: f64) -> bool {
    let dx = (-p.x).max(0.0).max(p.x - 1.0);
    let dy = (-p.y).max(0.0).max(p.y - 1.0);
    dx * dx + dy * dy <= b * b
}

/// Area of `D̃`: `1 + 4b + πb²`.
pub fn output_domain_area(b: f64) -> f64 {
    1.0 + 4.0 * b + std::f64::consts::PI * b * b
}

/// Generic two-stage sampler for any SAM: first decide disk vs far field by
/// their total masses, then sample the disk by wave-density rejection and
/// the far field by uniform rejection over `D̃ \ disk`.
fn sample_sam<M: Sam + ?Sized>(m: &M, v: Point, rng: &mut (impl Rng + ?Sized)) -> Point {
    let b = m.b();
    let q = m.q();
    debug_assert!((0.0..=1.0).contains(&v.x) && (0.0..=1.0).contains(&v.y));
    let disk_mass = 1.0 - (4.0 * b + 1.0) * q;
    if rng.gen::<f64>() < disk_mass {
        // Rejection-sample the disk against the wave density's max.
        let w_max = m.eps().exp() * q;
        loop {
            let z = loop {
                let cand = Point::new(rng.gen_range(-b..=b), rng.gen_range(-b..=b));
                if cand.norm() <= b {
                    break cand;
                }
            };
            if rng.gen::<f64>() * w_max <= m.wave(z) {
                return v + z;
            }
        }
    } else {
        // Uniform over D̃ minus the disk around v.
        loop {
            let cand = Point::new(rng.gen_range(-b..=1.0 + b), rng.gen_range(-b..=1.0 + b));
            if in_output_domain(cand, b) && cand.dist(v) > b {
                return cand;
            }
        }
    }
}

/// The continuous Disk Area Mechanism (Definition 8):
/// `W(z) = p` for `‖z‖ ≤ b`, else `q`, with
/// `p = e^ε / (πb²e^ε + 4b + 1)` and `q = 1 / (πb²e^ε + 4b + 1)`.
#[derive(Debug, Clone)]
pub struct ContinuousDam {
    eps: f64,
    b: f64,
    p: f64,
    q: f64,
}

impl ContinuousDam {
    /// Creates the mechanism with an explicit radius.
    pub fn new(eps: f64, b: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        assert!(b > 0.0 && b.is_finite(), "radius must be positive");
        let e = eps.exp();
        let denom = std::f64::consts::PI * b * b * e + 4.0 * b + 1.0;
        Self { eps, b, p: e / denom, q: 1.0 / denom }
    }

    /// High (in-disk) density `p`.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Sam for ContinuousDam {
    fn eps(&self) -> f64 {
        self.eps
    }
    fn b(&self) -> f64 {
        self.b
    }
    fn q(&self) -> f64 {
        self.q
    }
    fn wave(&self, z: Point) -> f64 {
        if z.norm() <= self.b {
            self.p
        } else {
            self.q
        }
    }
}

/// The continuous Hybrid Uniform-Exponential Mechanism (Definition 5):
/// `W(z) = q e^{(1 − ‖z‖/b) ε}` inside the disk, `q` outside, with
/// `q = ε² / (2π(e^ε − 1 − ε) b² + 4ε²b + ε²)`.
#[derive(Debug, Clone)]
pub struct ContinuousHuem {
    eps: f64,
    b: f64,
    q: f64,
}

impl ContinuousHuem {
    /// Creates the mechanism with an explicit radius.
    pub fn new(eps: f64, b: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "privacy budget must be positive");
        assert!(b > 0.0 && b.is_finite(), "radius must be positive");
        let e = eps.exp();
        let q = eps * eps
            / (2.0 * std::f64::consts::PI * (e - 1.0 - eps) * b * b
                + 4.0 * eps * eps * b
                + eps * eps);
        Self { eps, b, q }
    }
}

impl Sam for ContinuousHuem {
    fn eps(&self) -> f64 {
        self.eps
    }
    fn b(&self) -> f64 {
        self.b
    }
    fn q(&self) -> f64 {
        self.q
    }
    fn wave(&self, z: Point) -> f64 {
        let r = z.norm();
        if r <= self.b {
            self.q * ((1.0 - r / self.b) * self.eps).exp()
        } else {
            self.q
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    /// Numerically integrates a SAM's total output mass; must be 1.
    fn total_mass<M: Sam>(m: &M) -> f64 {
        let b = m.b();
        let n = 600;
        let lo = -b;
        let hi = 1.0 + b;
        let h = (hi - lo) / n as f64;
        let v = Point::new(0.5, 0.5);
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                let p = Point::new(lo + (i as f64 + 0.5) * h, lo + (j as f64 + 0.5) * h);
                if in_output_domain(p, b) {
                    acc += m.wave(p - v) * h * h;
                }
            }
        }
        acc
    }

    #[test]
    fn dam_normalises() {
        for &(eps, b) in &[(1.0, 0.3), (3.5, 0.23), (0.7, 0.9)] {
            let m = ContinuousDam::new(eps, b);
            let mass = total_mass(&m);
            assert!((mass - 1.0).abs() < 5e-3, "eps {eps} b {b}: mass {mass}");
        }
    }

    #[test]
    fn huem_normalises() {
        for &(eps, b) in &[(1.0, 0.3), (3.5, 0.23), (0.7, 0.9)] {
            let m = ContinuousHuem::new(eps, b);
            let mass = total_mass(&m);
            assert!((mass - 1.0).abs() < 5e-3, "eps {eps} b {b}: mass {mass}");
        }
    }

    #[test]
    fn dam_wave_ratio_is_exactly_exp_eps() {
        let m = ContinuousDam::new(2.0, 0.25);
        assert!((m.p() / m.q() - 2.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn huem_wave_is_bounded_and_decaying() {
        let m = ContinuousHuem::new(2.0, 0.5);
        let e = 2.0f64.exp();
        let mut prev = f64::INFINITY;
        for k in 0..=20 {
            let r = k as f64 * 0.5 / 20.0;
            let w = m.wave(Point::new(r, 0.0));
            assert!(w <= e * m.q() + 1e-12, "wave exceeds e^eps q at r {r}");
            assert!(w >= m.q() - 1e-12, "wave below q at r {r}");
            assert!(w <= prev + 1e-12, "wave must decay with distance");
            prev = w;
        }
        // At the disk center the wave peaks at exactly e^ε q.
        assert!((m.wave(Point::new(0.0, 0.0)) - e * m.q()).abs() < 1e-12);
        // Outside the disk it is exactly q.
        assert!((m.wave(Point::new(0.6, 0.0)) - m.q()).abs() < 1e-15);
    }

    #[test]
    fn huem_q_limit_small_eps() {
        // As ε → 0, q → 1/(πb² + 4b + 1): the uniform mechanism.
        let b = 0.4;
        let m = ContinuousHuem::new(1e-6, b);
        let expect = 1.0 / (PI * b * b + 4.0 * b + 1.0);
        assert!((m.q() - expect).abs() / expect < 1e-3);
    }

    #[test]
    fn samples_stay_in_output_domain() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let dam = ContinuousDam::new(3.5, 0.23);
        let huem = ContinuousHuem::new(3.5, 0.23);
        for k in 0..500 {
            let v = Point::new((k % 23) as f64 / 22.0, (k % 17) as f64 / 16.0);
            assert!(in_output_domain(dam.sample(v, &mut rng), dam.b()));
            assert!(in_output_domain(huem.sample(v, &mut rng), huem.b()));
        }
    }

    #[test]
    fn dam_disk_hit_rate_matches_theory() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let m = ContinuousDam::new(2.0, 0.3);
        let v = Point::new(0.5, 0.5);
        let n = 60_000;
        let mut hits = 0;
        for _ in 0..n {
            if m.sample(v, &mut rng).dist(v) <= m.b() {
                hits += 1;
            }
        }
        let expect = PI * m.b() * m.b() * m.p();
        let got = hits as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "got {got} expect {expect}");
    }

    #[test]
    fn rounded_square_membership() {
        let b = 0.5;
        assert!(in_output_domain(Point::new(-0.4, 0.5), b));
        assert!(in_output_domain(Point::new(1.3, 0.2), b));
        // Corner: (1+b/√2, 1+b/√2) is just outside; (1.3, 1.3) has corner
        // distance √(0.18) ≈ 0.424 < 0.5 so it is inside.
        assert!(in_output_domain(Point::new(1.3, 1.3), b));
        assert!(!in_output_domain(Point::new(1.4, 1.4), b));
    }

    #[test]
    fn output_area_formula() {
        assert!((output_domain_area(0.0) - 1.0).abs() < 1e-12);
        assert!((output_domain_area(1.0) - (5.0 + PI)).abs() < 1e-12);
    }
}
