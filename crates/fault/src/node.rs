//! Node-level fault family for multi-node deployments: which aggregator
//! crashes when, and which plane deliveries are late, duplicated or
//! corrupted.
//!
//! Same discipline as [`crate::FaultPlan`]: every decision is a pure
//! SplitMix64 draw keyed `(seed, family, node, epoch)`, so a cluster
//! chaos run injects the *same* faults for any thread count, any
//! delivery interleaving, and any number of replays — which is what lets
//! the recovery tests demand **bit-identical** estimates from a
//! coordinator that crashed and restored mid-stream.

use crate::plan::{parse_count, parse_rate, parse_seed, unit_draw, PlanParseError};

/// Salts separating the node-fault decision streams (continuing the
/// `0xFA17` fault-family block of [`crate::plan`]).
const SALT_NODE_CRASH: u64 = 0xFA17_0007_C0AA_0007;
const SALT_NODE_DELAY: u64 = 0xFA17_0008_C0AA_0008;
const SALT_NODE_DELAY_LEN: u64 = 0xFA17_0009_C0AA_0009;
const SALT_NODE_DUP: u64 = 0xFA17_000A_C0AA_000A;
const SALT_NODE_CORRUPT: u64 = 0xFA17_000B_C0AA_000B;
const SALT_NODE_CELL: u64 = 0xFA17_000C_C0AA_000C;

/// Default epochs a crashed node stays down.
const DEFAULT_CRASH_LEN: usize = 1;
/// Default upper bound on delivery delay (simulated-clock ticks).
const DEFAULT_DELAY_MAX: usize = 3;
/// Cells a corrupted plane gets garbage written into.
const CORRUPT_CELLS: usize = 3;

/// A cluster chaos scenario: per-`(node, epoch)` fault rates plus the
/// master seed keying every decision stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaultPlan {
    /// Master seed of the node-fault decision streams.
    pub seed: u64,
    /// Per-`(node, epoch)` probability a crash *starts* (the node then
    /// delivers nothing for [`NodeFaultPlan::crash_len`] epochs).
    pub crash: f64,
    /// Epochs a crash keeps the node down (`crashlen`, default 1).
    pub crash_len: usize,
    /// Per-`(node, epoch)` probability the plane delivery is delayed.
    pub delay: f64,
    /// Upper bound on the delay in simulated-clock ticks (`delaymax`,
    /// default 3; realised delays are uniform in `1..=delay_max`).
    pub delay_max: usize,
    /// Per-`(node, epoch)` probability the delivery is duplicated (the
    /// coordinator must deduplicate by `(node, epoch)` sequence id).
    pub dup: f64,
    /// Per-`(node, epoch)` probability the delivered plane is corrupted
    /// (non-finite / negative cells the sanitizer must repair).
    pub corrupt: f64,
}

impl NodeFaultPlan {
    /// A plan that injects nothing.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            crash: 0.0,
            crash_len: DEFAULT_CRASH_LEN,
            delay: 0.0,
            delay_max: DEFAULT_DELAY_MAX,
            dup: 0.0,
            corrupt: 0.0,
        }
    }

    /// True when every fault rate is zero.
    pub fn is_clean(&self) -> bool {
        self.crash == 0.0 && self.delay == 0.0 && self.dup == 0.0 && self.corrupt == 0.0
    }

    /// Every key [`NodeFaultPlan::parse`] accepts.
    pub const KEYS: &'static [&'static str] =
        &["seed", "crash", "crashlen", "delay", "delaymax", "dup", "corrupt"];

    /// Parses a comma-separated `key=value` spec, e.g.
    /// `seed=7,crash=0.05,crashlen=2,delay=0.1,delaymax=4,dup=0.05,corrupt=0.02`.
    /// Same structural errors as [`crate::FaultPlan::parse`]; omitted
    /// keys default to `seed=0`, rate `0`, `crashlen=1`, `delaymax=3`.
    pub fn parse(spec: &str) -> Result<Self, PlanParseError> {
        let mut plan = Self::clean(0);
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| PlanParseError::NotKeyValue { part: part.to_string() })?;
            let key = key.trim();
            match key {
                "seed" => plan.seed = parse_seed(key, value)?,
                "crash" => plan.crash = parse_rate(key, value)?,
                "crashlen" => plan.crash_len = parse_count(key, value)?,
                "delay" => plan.delay = parse_rate(key, value)?,
                "delaymax" => plan.delay_max = parse_count(key, value)?,
                "dup" => plan.dup = parse_rate(key, value)?,
                "corrupt" => plan.corrupt = parse_rate(key, value)?,
                other => {
                    return Err(PlanParseError::UnknownKey {
                        key: other.to_string(),
                        known: Self::KEYS,
                    })
                }
            }
        }
        if plan.crash_len == 0 {
            return Err(PlanParseError::Inconsistent {
                detail: "crashlen=0 makes crashes unobservable".to_string(),
            });
        }
        if plan.delay > 0.0 && plan.delay_max == 0 {
            return Err(PlanParseError::Inconsistent {
                detail: format!("delay={} with delaymax=0 delays nothing", plan.delay),
            });
        }
        Ok(plan)
    }

    /// The canonical spec string reproducing this plan through
    /// [`NodeFaultPlan::parse`] (zero rates and default knobs omitted).
    pub fn spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        for (key, rate) in [
            ("crash", self.crash),
            ("delay", self.delay),
            ("dup", self.dup),
            ("corrupt", self.corrupt),
        ] {
            if rate > 0.0 {
                parts.push(format!("{key}={rate}"));
            }
        }
        if self.crash_len != DEFAULT_CRASH_LEN {
            parts.push(format!("crashlen={}", self.crash_len));
        }
        if self.delay_max != DEFAULT_DELAY_MAX {
            parts.push(format!("delaymax={}", self.delay_max));
        }
        parts.join(",")
    }

    /// One draw from the stream keyed `(seed, family, node, epoch)`.
    fn unit(&self, family: u64, node: usize, epoch: usize) -> f64 {
        unit_draw(self.seed, family, node as u64, epoch as u64)
    }

    /// Whether a crash *starts* on node `node` at epoch `epoch`.
    fn crash_onset(&self, node: usize, epoch: usize) -> bool {
        self.crash > 0.0 && self.unit(SALT_NODE_CRASH, node, epoch) < self.crash
    }

    /// Whether node `node` is down (delivers nothing) at epoch `epoch`:
    /// true iff a crash started within the last `crash_len` epochs. A
    /// pure function of the key — no crash state machine to replay.
    pub fn node_down(&self, node: usize, epoch: usize) -> bool {
        let horizon = epoch.saturating_sub(self.crash_len - 1);
        (horizon..=epoch).any(|e| self.crash_onset(node, e))
    }

    /// Extra simulated-clock ticks before node `node`'s epoch plane
    /// becomes available to the coordinator (`0` = on time; otherwise
    /// uniform in `1..=delay_max`).
    pub fn delivery_delay(&self, node: usize, epoch: usize) -> usize {
        if self.delay <= 0.0 || self.unit(SALT_NODE_DELAY, node, epoch) >= self.delay {
            return 0;
        }
        1 + (self.unit(SALT_NODE_DELAY_LEN, node, epoch) * self.delay_max as f64) as usize
    }

    /// Whether node `node`'s epoch-`epoch` delivery arrives twice (same
    /// sequence id — the coordinator must drop the replay).
    pub fn duplicated(&self, node: usize, epoch: usize) -> bool {
        self.dup > 0.0 && self.unit(SALT_NODE_DUP, node, epoch) < self.dup
    }

    /// Corrupts node `node`'s epoch plane in place when the
    /// `(node, epoch)` draw fires: a few key-dependent cells get `NaN`,
    /// `∞` and a negative count (exactly what
    /// `dam_core::validate::sanitize_counts` exists to repair). Returns
    /// cells written (0 = plane untouched).
    pub fn corrupt_plane(&self, node: usize, epoch: usize, plane: &mut [f64]) -> usize {
        if plane.is_empty()
            || self.corrupt <= 0.0
            || self.unit(SALT_NODE_CORRUPT, node, epoch) >= self.corrupt
        {
            return 0;
        }
        let n = plane.len();
        let mut hits = 0;
        for j in 0..CORRUPT_CELLS.min(n) {
            let key = (node as u64) << 32 | epoch as u64;
            let c = (unit_draw(self.seed, SALT_NODE_CELL, key, j as u64) * n as f64) as usize;
            plane[c.min(n - 1)] = match j % 3 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => -7.0,
            };
            hits += 1;
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_spec() {
        let plan = NodeFaultPlan::parse(
            "seed=7,crash=0.05,crashlen=2,delay=0.1,delaymax=4,dup=0.05,corrupt=0.02",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crash, 0.05);
        assert_eq!(plan.crash_len, 2);
        assert_eq!(plan.delay, 0.1);
        assert_eq!(plan.delay_max, 4);
        assert_eq!(plan.dup, 0.05);
        assert_eq!(plan.corrupt, 0.02);
        assert_eq!(NodeFaultPlan::parse(&plan.spec()).unwrap(), plan);
        // Defaults and the clean plan round-trip too.
        assert_eq!(NodeFaultPlan::parse("").unwrap(), NodeFaultPlan::clean(0));
        let clean = NodeFaultPlan::clean(9);
        assert!(clean.is_clean());
        assert_eq!(NodeFaultPlan::parse(&clean.spec()).unwrap(), clean);
    }

    #[test]
    fn parse_errors_name_the_bad_key() {
        assert_eq!(
            NodeFaultPlan::parse("seed=1,crsh=0.1"),
            Err(PlanParseError::UnknownKey { key: "crsh".into(), known: NodeFaultPlan::KEYS })
        );
        assert_eq!(
            NodeFaultPlan::parse("crash=2.0"),
            Err(PlanParseError::RateOutOfRange { key: "crash".into(), value: 2.0 })
        );
        assert_eq!(
            NodeFaultPlan::parse("crashlen=soon"),
            Err(PlanParseError::BadValue {
                key: "crashlen".into(),
                value: "soon".into(),
                expected: "a count"
            })
        );
        assert_eq!(
            NodeFaultPlan::parse("kill=11"),
            Err(PlanParseError::UnknownKey { key: "kill".into(), known: NodeFaultPlan::KEYS })
        );
        assert!(matches!(
            NodeFaultPlan::parse("crashlen=0"),
            Err(PlanParseError::Inconsistent { .. })
        ));
        assert!(matches!(
            NodeFaultPlan::parse("delay=0.5,delaymax=0"),
            Err(PlanParseError::Inconsistent { .. })
        ));
    }

    #[test]
    fn crash_windows_span_crash_len_epochs() {
        let plan = NodeFaultPlan::parse("seed=3,crash=0.1,crashlen=3").unwrap();
        // Every onset must imply down-ness for exactly the next
        // crash_len epochs (unless a later onset extends the outage).
        for node in 0..8 {
            for e in 0..200 {
                if plan.crash_onset(node, e) {
                    for k in 0..3 {
                        assert!(plan.node_down(node, e + k), "node {node} epoch {}", e + k);
                    }
                }
            }
        }
        // Crashes actually happen at this rate, and not everywhere.
        let down = (0..8)
            .flat_map(|n| (0..200).map(move |e| (n, e)))
            .filter(|&(n, e)| plan.node_down(n, e))
            .count();
        assert!(down > 100 && down < 800, "down {down} of 1600");
        // A clean plan never crashes anything.
        let clean = NodeFaultPlan::clean(3);
        assert!((0..8).all(|n| (0..100).all(|e| !clean.node_down(n, e))));
    }

    #[test]
    fn decisions_are_pure_and_keyed_per_node_epoch() {
        let plan = NodeFaultPlan::parse("seed=5,crash=0.2,delay=0.3,dup=0.2,corrupt=0.5").unwrap();
        for node in 0..4 {
            for e in 0..50 {
                assert_eq!(plan.node_down(node, e), plan.node_down(node, e));
                assert_eq!(plan.delivery_delay(node, e), plan.delivery_delay(node, e));
                assert_eq!(plan.duplicated(node, e), plan.duplicated(node, e));
            }
        }
        // Different nodes see different fault patterns under the same
        // seed (the streams are keyed, not shared).
        let a: Vec<bool> = (0..100).map(|e| plan.node_down(0, e)).collect();
        let b: Vec<bool> = (0..100).map(|e| plan.node_down(1, e)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn delays_respect_the_configured_bound() {
        let plan = NodeFaultPlan::parse("seed=8,delay=0.5,delaymax=4").unwrap();
        let mut delayed = 0;
        for node in 0..8 {
            for e in 0..100 {
                let d = plan.delivery_delay(node, e);
                assert!(d <= 4, "delay {d} exceeds delaymax");
                delayed += usize::from(d > 0);
            }
        }
        let rate = delayed as f64 / 800.0;
        assert!((rate - 0.5).abs() < 0.1, "delay rate {rate}");
    }

    #[test]
    fn corrupted_planes_need_sanitizing_and_are_deterministic() {
        let plan = NodeFaultPlan::parse("seed=2,corrupt=1.0").unwrap();
        let mut a = vec![5.0; 64];
        let mut b = vec![5.0; 64];
        let hits = plan.corrupt_plane(1, 7, &mut a);
        assert_eq!(hits, plan.corrupt_plane(1, 7, &mut b));
        assert!(hits > 0);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "corruption must be a pure function of the key");
        assert!(a.iter().any(|v| !v.is_finite() || *v < 0.0));
        // A zero-rate plan never touches the plane.
        let mut c = vec![5.0; 64];
        assert_eq!(NodeFaultPlan::clean(2).corrupt_plane(1, 7, &mut c), 0);
        assert!(c.iter().all(|&v| v == 5.0));
    }
}
