//! Byte-level mutation of valid fault specs: whatever an operator types
//! after `--inject`, [`FaultPlan::parse`] and [`NodeFaultPlan::parse`]
//! return `Ok` or a structured [`PlanParseError`] — never a panic.
//!
//! Each case takes a valid spec, applies one to eight byte mutations
//! (overwrite, bit flip, insert, delete, duplicate a run, truncate,
//! splice in a token) drawn from bytes that matter to the grammar (`,`
//! `=` `.` `-` `+` `e`, digits, whitespace, letters of the keys) plus
//! arbitrary ones, and from tokens no single byte edit reaches (`inf`,
//! `NaN`, overflowing integers and exponents, keys), and parses the
//! result (non-UTF-8 bytes are replaced, as a shell argument would be).
//! On top of not panicking:
//!
//! * an `Ok` plan re-parses from its own canonical spec to an equal plan;
//! * every verbatim field of an error (`part`, `key`, `value`) occurs in
//!   the input, and a rate out of range really is outside `[0, 1]`.

use dam_fault::{FaultPlan, NodeFaultPlan, PlanParseError};
use proptest::prelude::*;

const REPORT_SPECS: [&str; 4] = [
    "seed=7,corrupt=0.01,drop=0.15,delay=0.1,flip=0.02,nonfinite=0.002",
    "seed=3,corrupt=0.2,drop=0.2,delay=0.2,flip=0.1,nonfinite=0.05",
    " seed=18446744073709551615 , corrupt=1e-3 ",
    "drop=1,delay=0",
];

const NODE_SPECS: [&str; 4] = [
    "seed=7,crash=0.05,delay=0.2,delaymax=2,dup=0.1,corrupt=0.02",
    "seed=7,crash=0.05,crashlen=2,delay=0.1,delaymax=4,dup=0.05,corrupt=0.02",
    "seed=11,crash=0.15,delay=0.4,delaymax=2,dup=0.3,corrupt=0.25",
    "delaymax=0,crashlen=1",
];

/// Bytes the grammar reacts to, drawn more often than arbitrary ones.
const GRAMMAR: &[u8] = b",=.-+e0123456789 \t\nEinfaNsedcrupthlyxkmow_";

/// Whole tokens spliced in by the last mutation op.
const TOKENS: [&str; 14] = [
    "inf",
    "-inf",
    "NaN",
    "-0",
    "1e309",
    "1e-400",
    "18446744073709551616",
    "-1",
    "0x10",
    "+.5",
    "seed=",
    "kill=",
    "delaymax=0",
    "crashlen=0",
];

/// One mutation: `(op, position, byte, run length)`.
type Mutation = (u8, usize, u8, usize);

fn mutate(spec: &str, mutations: &[Mutation]) -> String {
    let mut bytes = spec.as_bytes().to_vec();
    for &(op, pos, byte, run) in mutations {
        let at = if bytes.is_empty() { 0 } else { pos % bytes.len() };
        let b = if byte < 0xC0 { GRAMMAR[byte as usize % GRAMMAR.len()] } else { byte };
        match op % 7 {
            0 if !bytes.is_empty() => bytes[at] = b,
            1 if !bytes.is_empty() => bytes[at] ^= 1 << (byte % 8),
            2 => bytes.insert(at, b),
            3 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            4 if !bytes.is_empty() => {
                let end = (at + 1 + run).min(bytes.len());
                let dup = bytes[at..end].to_vec();
                bytes.splice(at..at, dup);
            }
            5 => bytes.truncate(at),
            _ => {
                let end = (at + run).min(bytes.len());
                bytes.splice(at..end, TOKENS[byte as usize % TOKENS.len()].bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn check_error(input: &str, err: &PlanParseError) {
    match err {
        PlanParseError::NotKeyValue { part } => {
            assert!(input.contains(part.as_str()), "part {part:?} not in {input:?}")
        }
        PlanParseError::UnknownKey { key, known } => {
            assert!(input.contains(key.as_str()), "key {key:?} not in {input:?}");
            assert!(!known.contains(&key.as_str()), "known key {key:?} reported unknown");
        }
        PlanParseError::BadValue { key, value, .. } => {
            assert!(input.contains(key.as_str()) && input.contains(value.as_str()), "{err:?}");
        }
        PlanParseError::RateOutOfRange { key, value } => {
            assert!(input.contains(key.as_str()), "key {key:?} not in {input:?}");
            assert!(!(0.0..=1.0).contains(value), "{key}={value} is in range");
        }
        PlanParseError::Inconsistent { detail } => assert!(!detail.is_empty()),
    }
    // Rendering an error never panics either.
    assert!(err.to_string().starts_with("bad fault plan: "));
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec((0u8..=255, 0usize..256, 0u8..=255, 0usize..12), 1..9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn mutated_report_specs_parse_or_fail_structurally(
        base in 0usize..REPORT_SPECS.len(),
        muts in mutations(),
    ) {
        let input = mutate(REPORT_SPECS[base], &muts);
        match FaultPlan::parse(&input) {
            Ok(plan) => prop_assert_eq!(FaultPlan::parse(&plan.spec()), Ok(plan)),
            Err(err) => check_error(&input, &err),
        }
    }

    #[test]
    fn mutated_node_specs_parse_or_fail_structurally(
        base in 0usize..NODE_SPECS.len(),
        muts in mutations(),
    ) {
        let input = mutate(NODE_SPECS[base], &muts);
        match NodeFaultPlan::parse(&input) {
            Ok(plan) => prop_assert_eq!(NodeFaultPlan::parse(&plan.spec()), Ok(plan)),
            Err(err) => check_error(&input, &err),
        }
    }
}

#[test]
fn the_base_specs_are_valid() {
    for spec in REPORT_SPECS {
        assert!(FaultPlan::parse(spec).is_ok(), "{spec}");
    }
    for spec in NODE_SPECS {
        assert!(NodeFaultPlan::parse(spec).is_ok(), "{spec}");
    }
}
