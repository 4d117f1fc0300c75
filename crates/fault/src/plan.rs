//! The deterministic fault plan: what to break, at what rate, on which
//! SplitMix64 streams.

use dam_geo::rng::splitmix64;
use dam_geo::Point;

/// Salts separating the fault families' decision streams from each other
/// (and, by construction, from every report/shard/noise stream in the
/// workspace — those use their own salts).
const SALT_CORRUPT: u64 = 0xFA17_0001_C0AA_0001;
const SALT_KIND: u64 = 0xFA17_0002_C0AA_0002;
const SALT_EPOCH: u64 = 0xFA17_0003_C0AA_0003;
const SALT_FLIP: u64 = 0xFA17_0004_C0AA_0004;
const SALT_DEST: u64 = 0xFA17_0005_C0AA_0005;
const SALT_PLANE: u64 = 0xFA17_0006_C0AA_0006;

/// What happens to one epoch's report batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochFate {
    /// The batch arrives on time.
    Deliver,
    /// The batch is lost (collector outage): the epoch ingests empty.
    Drop,
    /// The batch arrives one epoch late, merged with the next delivery.
    Delay,
}

/// Error from [`FaultPlan::parse`] (and the node-fault
/// [`crate::NodeFaultPlan::parse`]): *which* part of the spec is wrong,
/// structurally, so a typo like `crrupt=0.01` surfaces as
/// [`PlanParseError::UnknownKey`] naming the bad key rather than running
/// a clean experiment that merely *looks* faulty-but-lucky.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanParseError {
    /// A comma-separated part of the spec had no `=`.
    NotKeyValue {
        /// The offending part, verbatim.
        part: String,
    },
    /// The key names no fault knob of this plan.
    UnknownKey {
        /// The unrecognised key, verbatim.
        key: String,
        /// Every key the plan accepts.
        known: &'static [&'static str],
    },
    /// The value does not parse as the key's type.
    BadValue {
        /// The key whose value failed.
        key: String,
        /// The unparsable value, verbatim.
        value: String,
        /// What the key expects (`"a number"`, `"a seed"`, ...).
        expected: &'static str,
    },
    /// A probability knob outside `[0, 1]`.
    RateOutOfRange {
        /// The key whose rate is out of range.
        key: String,
        /// The parsed rate (`inf` and `NaN` parse, and land here).
        value: f64,
    },
    /// Individually-valid knobs that contradict each other.
    Inconsistent {
        /// Human-readable description of the contradiction.
        detail: String,
    },
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault plan: ")?;
        match self {
            PlanParseError::NotKeyValue { part } => write!(f, "`{part}` is not key=value"),
            PlanParseError::UnknownKey { key, known } => {
                write!(f, "unknown key `{key}`; known: {}", known.join(" "))
            }
            PlanParseError::BadValue { key, value, expected } => {
                write!(f, "`{value}` is not {expected} ({key})")
            }
            PlanParseError::RateOutOfRange { key, value } => {
                write!(f, "{key}={value} outside [0, 1]")
            }
            PlanParseError::Inconsistent { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for PlanParseError {}

/// Parses one probability knob, structurally attributing failures to
/// `key`. Shared by every plan parser in the crate.
pub(crate) fn parse_rate(key: &str, value: &str) -> Result<f64, PlanParseError> {
    let v: f64 = value.parse().map_err(|_| PlanParseError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
        expected: "a number",
    })?;
    if !(0.0..=1.0).contains(&v) {
        return Err(PlanParseError::RateOutOfRange { key: key.to_string(), value: v });
    }
    Ok(v)
}

/// Parses one `u64` seed knob.
pub(crate) fn parse_seed(key: &str, value: &str) -> Result<u64, PlanParseError> {
    value.parse().map_err(|_| PlanParseError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
        expected: "a seed",
    })
}

/// Parses one non-negative integer knob (epoch counts, tick bounds).
pub(crate) fn parse_count(key: &str, value: &str) -> Result<usize, PlanParseError> {
    value.parse().map_err(|_| PlanParseError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
        expected: "a count",
    })
}

/// One uniform draw in `[0, 1)` from the stream keyed by
/// `(seed, family, a, b)`. Pure — the same key always yields the same
/// draw, independent of call order and thread count. Every fault family
/// in the crate draws through this.
pub(crate) fn unit_draw(seed: u64, family: u64, a: u64, b: u64) -> f64 {
    let z = splitmix64(seed ^ splitmix64(family ^ splitmix64(a ^ splitmix64(b))));
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A chaos scenario: per-family fault rates plus the master seed keying
/// every decision stream.
///
/// All decisions are pure functions of `(seed, family, epoch, index)`, so
/// a plan injects the *same* faults however many threads execute the
/// pipeline and however often a run is replayed — the property the chaos
/// determinism tests pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed of the fault decision streams.
    pub seed: u64,
    /// Per-report corruption probability (out-of-domain / `NaN` / `∞`
    /// coordinates, duplicated reports — equal shares).
    pub corrupt: f64,
    /// Per-epoch probability the whole batch is dropped.
    pub drop: f64,
    /// Per-epoch probability the batch is delayed one epoch.
    pub delay: f64,
    /// Per-report flip rate of count poisoning
    /// ([`FaultPlan::poison_counts`]): a cell holding `c` reports moves
    /// `c · flip` of them (rounded by a keyed coin) to uniformly drawn
    /// other cells.
    pub flip: f64,
    /// Per-cell probability of writing a non-finite value into a count
    /// plane.
    pub nonfinite: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn clean(seed: u64) -> Self {
        Self { seed, corrupt: 0.0, drop: 0.0, delay: 0.0, flip: 0.0, nonfinite: 0.0 }
    }

    /// True when every fault rate is zero.
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0.0
            && self.drop == 0.0
            && self.delay == 0.0
            && self.flip == 0.0
            && self.nonfinite == 0.0
    }

    /// Every key [`FaultPlan::parse`] accepts.
    pub const KEYS: &'static [&'static str] =
        &["seed", "corrupt", "drop", "delay", "flip", "nonfinite"];

    /// Parses a comma-separated `key=value` spec, e.g.
    /// `seed=7,corrupt=0.01,drop=0.1,delay=0.05,flip=0.02,nonfinite=0.001`.
    /// Unknown keys, unparsable values, and rates outside `[0, 1]` (or
    /// `drop + delay > 1`) are structured [`PlanParseError`]s naming the
    /// offending key; omitted keys default to `seed=0` and rate `0`.
    pub fn parse(spec: &str) -> Result<Self, PlanParseError> {
        let mut plan = Self::clean(0);
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| PlanParseError::NotKeyValue { part: part.to_string() })?;
            let key = key.trim();
            let rate = |slot: &mut f64| -> Result<(), PlanParseError> {
                *slot = parse_rate(key, value)?;
                Ok(())
            };
            match key {
                "seed" => plan.seed = parse_seed(key, value)?,
                "corrupt" => rate(&mut plan.corrupt)?,
                "drop" => rate(&mut plan.drop)?,
                "delay" => rate(&mut plan.delay)?,
                "flip" => rate(&mut plan.flip)?,
                "nonfinite" => rate(&mut plan.nonfinite)?,
                other => {
                    return Err(PlanParseError::UnknownKey {
                        key: other.to_string(),
                        known: Self::KEYS,
                    })
                }
            }
        }
        if plan.drop + plan.delay > 1.0 {
            return Err(PlanParseError::Inconsistent {
                detail: format!("drop={} + delay={} exceeds 1", plan.drop, plan.delay),
            });
        }
        Ok(plan)
    }

    /// The canonical spec string reproducing this plan through
    /// [`FaultPlan::parse`] (zero rates omitted).
    pub fn spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        for (key, rate) in [
            ("corrupt", self.corrupt),
            ("drop", self.drop),
            ("delay", self.delay),
            ("flip", self.flip),
            ("nonfinite", self.nonfinite),
        ] {
            if rate > 0.0 {
                parts.push(format!("{key}={rate}"));
            }
        }
        parts.join(",")
    }

    /// One uniform draw in `[0, 1)` from the stream keyed by
    /// `(seed, family, a, b)`. Pure — the same key always yields the same
    /// draw, independent of call order and thread count.
    fn unit(&self, family: u64, a: u64, b: u64) -> f64 {
        unit_draw(self.seed, family, a, b)
    }

    /// The fate of epoch `epoch`'s report batch.
    pub fn epoch_fate(&self, epoch: usize) -> EpochFate {
        if self.drop <= 0.0 && self.delay <= 0.0 {
            return EpochFate::Deliver;
        }
        let u = self.unit(SALT_EPOCH, epoch as u64, 0);
        if u < self.drop {
            EpochFate::Drop
        } else if u < self.drop + self.delay {
            EpochFate::Delay
        } else {
            EpochFate::Deliver
        }
    }

    /// Corrupts a configured fraction of one epoch's points in place:
    /// equal shares of out-of-domain coordinates, `NaN` coordinates, `∞`
    /// coordinates, and duplicated reports (appended at the end in index
    /// order). Returns how many corruptions were applied. Decisions are
    /// keyed by `(epoch, point index)`, so the same epoch always breaks
    /// the same way.
    pub fn corrupt_points(&self, epoch: usize, points: &mut Vec<Point>) -> usize {
        if self.corrupt <= 0.0 {
            return 0;
        }
        let e = epoch as u64;
        let n = points.len();
        let mut duplicates = Vec::new();
        let mut hits = 0usize;
        for i in 0..n {
            if self.unit(SALT_CORRUPT, e, i as u64) >= self.corrupt {
                continue;
            }
            hits += 1;
            let p = points[i];
            match (self.unit(SALT_KIND, e, i as u64) * 4.0) as usize {
                0 => {
                    // Far out of the unit square, in a key-dependent
                    // quadrant (still finite: the clamp-vs-reject policy
                    // decision is about exactly these points).
                    let sx = if self.unit(SALT_DEST, e, i as u64) < 0.5 { -3.0 } else { 4.0 };
                    points[i] = Point::new(p.x + sx, p.y + 2.5);
                }
                1 => points[i] = Point::new(f64::NAN, p.y),
                2 => points[i] = Point::new(p.x, f64::INFINITY),
                _ => duplicates.push(p),
            }
        }
        points.extend(duplicates);
        hits
    }

    /// Response poisoning, applied to the aggregated count plane every
    /// pipeline ingests: each originally-reported cell flips to a
    /// uniformly drawn other cell
    /// with probability `flip`, applied directly to a whole-number count
    /// plane (per-cell flip counts are the deterministic rounding of
    /// `count · flip`; destinations come from per-move streams). Counts
    /// stay whole and the total is conserved. Returns reports moved.
    pub fn poison_counts(&self, epoch: usize, plane: &mut [f64]) -> usize {
        let n = plane.len();
        if self.flip <= 0.0 || n < 2 {
            return 0;
        }
        let e = epoch as u64;
        let snapshot: Vec<f64> = plane.to_vec();
        let mut moved = 0usize;
        for (c, &count) in snapshot.iter().enumerate() {
            if !count.is_finite() || count <= 0.0 {
                continue;
            }
            let expect = count * self.flip;
            let frac_coin = self.unit(SALT_FLIP, e, c as u64) < expect.fract();
            let k = expect.floor() as usize + usize::from(frac_coin);
            let k = k.min(count as usize);
            for j in 0..k {
                let key = splitmix64(c as u64 ^ splitmix64(j as u64 ^ SALT_DEST));
                let r = (self.unit(SALT_DEST, e, key) * (n - 1) as f64) as usize;
                let r = r.min(n - 2);
                let dst = if r >= c { r + 1 } else { r };
                plane[c] -= 1.0;
                plane[dst] += 1.0;
                moved += 1;
            }
        }
        moved
    }

    /// Writes non-finite values (`NaN` and `+∞`, alternating by stream
    /// draw) into a count plane at the configured per-cell rate,
    /// modelling a corrupted aggregation substrate. Returns cells hit.
    pub fn inject_nonfinite(&self, epoch: usize, plane: &mut [f64]) -> usize {
        if self.nonfinite <= 0.0 {
            return 0;
        }
        let e = epoch as u64;
        let mut hits = 0;
        for (c, v) in plane.iter_mut().enumerate() {
            let u = self.unit(SALT_PLANE, e, c as u64);
            if u < self.nonfinite {
                *v = if u < 0.5 * self.nonfinite { f64::NAN } else { f64::INFINITY };
                hits += 1;
            }
        }
        hits
    }

    /// The report batch epoch `epoch` delivers: the batch an earlier
    /// delay left in `carry`, then `points` unless the epoch's fate drops
    /// them or holds them in `carry` for the next call, with report
    /// corruption applied. An empty batch is a missed epoch.
    pub fn deliver(&self, epoch: usize, points: &[Point], carry: &mut Vec<Point>) -> Vec<Point> {
        let mut batch = std::mem::take(carry);
        match self.epoch_fate(epoch) {
            EpochFate::Deliver => batch.extend_from_slice(points),
            EpochFate::Delay => *carry = points.to_vec(),
            EpochFate::Drop => {}
        }
        self.corrupt_points(epoch, &mut batch);
        batch
    }

    /// Poisons epoch `epoch`'s aggregated count plane: count flips
    /// ([`FaultPlan::poison_counts`]), then non-finite cells
    /// ([`FaultPlan::inject_nonfinite`]).
    pub fn tamper(&self, epoch: usize, plane: &mut [f64]) {
        self.poison_counts(epoch, plane);
        self.inject_nonfinite(epoch, plane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_spec() {
        let plan =
            FaultPlan::parse("seed=7,corrupt=0.01,drop=0.1,delay=0.05,flip=0.02,nonfinite=0.001")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.corrupt, 0.01);
        assert_eq!(plan.drop, 0.1);
        assert_eq!(plan.delay, 0.05);
        assert_eq!(plan.flip, 0.02);
        assert_eq!(plan.nonfinite, 0.001);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
    }

    #[test]
    fn parse_defaults_and_whitespace() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::clean(0));
        let plan = FaultPlan::parse(" seed=3 , corrupt=0.5 ").unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.corrupt, 0.5);
        assert!(FaultPlan::clean(9).is_clean());
        assert!(!plan.is_clean());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in
            ["corrupt", "corrupt=x", "corrupt=1.5", "corrupt=-0.1", "bogus=1", "drop=0.6,delay=0.6"]
        {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn parse_errors_are_structured_and_name_the_bad_key() {
        // The typo scenario the structured error exists for: `crrupt`
        // must come back as an UnknownKey naming itself, never as a
        // silently-clean plan.
        assert_eq!(
            FaultPlan::parse("seed=7,crrupt=0.01"),
            Err(PlanParseError::UnknownKey { key: "crrupt".into(), known: FaultPlan::KEYS })
        );
        assert_eq!(
            FaultPlan::parse("corrupt"),
            Err(PlanParseError::NotKeyValue { part: "corrupt".into() })
        );
        assert_eq!(
            FaultPlan::parse("corrupt=x"),
            Err(PlanParseError::BadValue {
                key: "corrupt".into(),
                value: "x".into(),
                expected: "a number"
            })
        );
        assert_eq!(
            FaultPlan::parse("corrupt=1.5"),
            Err(PlanParseError::RateOutOfRange { key: "corrupt".into(), value: 1.5 })
        );
        assert!(matches!(
            FaultPlan::parse("corrupt=NaN"),
            Err(PlanParseError::RateOutOfRange { value, .. }) if value.is_nan()
        ));
        assert!(matches!(
            FaultPlan::parse("drop=0.6,delay=0.6"),
            Err(PlanParseError::Inconsistent { .. })
        ));
        // Display still names the key for human eyes.
        let msg = FaultPlan::parse("seed=7,crrupt=0.01").unwrap_err().to_string();
        assert!(msg.contains("crrupt") && msg.contains("unknown key"), "{msg}");
    }

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let plan = FaultPlan::parse("seed=11,corrupt=0.2,drop=0.3,delay=0.2,flip=0.3").unwrap();
        for epoch in 0..32 {
            assert_eq!(plan.epoch_fate(epoch), plan.epoch_fate(epoch));
        }
        let mut a: Vec<Point> = (0..500).map(|i| Point::new(i as f64 / 500.0, 0.5)).collect();
        let mut b = a.clone();
        plan.corrupt_points(3, &mut a);
        plan.corrupt_points(3, &mut b);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert!(pa.x.to_bits() == pb.x.to_bits() && pa.y.to_bits() == pb.y.to_bits());
        }
    }

    #[test]
    fn corruption_rate_is_respected() {
        let plan = FaultPlan::parse("seed=1,corrupt=0.01").unwrap();
        let mut points: Vec<Point> = (0..100_000)
            .map(|i| Point::new((i % 100) as f64 / 100.0, (i % 97) as f64 / 97.0))
            .collect();
        let hits = plan.corrupt_points(0, &mut points);
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.002, "corruption rate {rate}");
        // Corrupt points are visible: some non-finite, some out-of-domain.
        let nonfinite = points.iter().filter(|p| !p.x.is_finite() || !p.y.is_finite()).count();
        let out = points
            .iter()
            .filter(|p| {
                p.x.is_finite()
                    && p.y.is_finite()
                    && !((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y))
            })
            .count();
        assert!(nonfinite > 0 && out > 0);
        assert!(points.len() > 100_000, "duplicates must be appended");
    }

    #[test]
    fn epoch_fates_hit_all_outcomes() {
        let plan = FaultPlan::parse("seed=5,drop=0.25,delay=0.25").unwrap();
        let mut seen = [0usize; 3];
        for e in 0..400 {
            match plan.epoch_fate(e) {
                EpochFate::Deliver => seen[0] += 1,
                EpochFate::Drop => seen[1] += 1,
                EpochFate::Delay => seen[2] += 1,
            }
        }
        assert!(seen.iter().all(|&s| s > 40), "fates {seen:?}");
        let clean = FaultPlan::clean(5);
        assert!((0..100).all(|e| clean.epoch_fate(e) == EpochFate::Deliver));
    }

    #[test]
    fn delivery_carries_a_delayed_batch_into_the_next_epoch() {
        let batch = |e: usize| vec![Point::new(e as f64 / 10.0, 0.5); e + 1];
        let mut carry = Vec::new();
        let always_late = FaultPlan::parse("seed=1,delay=1").unwrap();
        assert!(always_late.deliver(0, &batch(0), &mut carry).is_empty());
        assert_eq!(carry, batch(0));
        assert_eq!(always_late.deliver(1, &batch(1), &mut carry), batch(0));
        assert_eq!(carry, batch(1));
        let on_time = FaultPlan::clean(1);
        assert_eq!(on_time.deliver(2, &batch(2), &mut carry), [batch(1), batch(2)].concat());
        assert!(carry.is_empty());
        let lost = FaultPlan::parse("seed=1,drop=1").unwrap();
        assert!(lost.deliver(3, &batch(3), &mut carry).is_empty());
    }

    #[test]
    fn count_poisoning_conserves_whole_number_totals() {
        let plan = FaultPlan::parse("seed=4,flip=0.02").unwrap();
        let mut plane: Vec<f64> = (0..100).map(|c| ((c * 13) % 70) as f64).collect();
        let total: f64 = plane.iter().sum();
        let moved = plan.poison_counts(1, &mut plane);
        assert!(moved > 0);
        assert_eq!(plane.iter().sum::<f64>(), total, "mass must be conserved");
        assert!(plane.iter().all(|&v| v >= 0.0 && v.fract() == 0.0));
    }

    #[test]
    fn nonfinite_injection_hits_cells() {
        let plan = FaultPlan::parse("seed=6,nonfinite=0.01").unwrap();
        let mut plane = vec![1.0f64; 10_000];
        let hits = plan.inject_nonfinite(2, &mut plane);
        let observed = plane.iter().filter(|v| !v.is_finite()).count();
        assert_eq!(hits, observed);
        assert!((observed as f64 / 10_000.0 - 0.01).abs() < 0.005);
        assert!(plane.iter().any(|v| v.is_nan()) && plane.contains(&f64::INFINITY));
    }
}
