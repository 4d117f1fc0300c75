//! Minimal command-line parsing shared by every figure binary (no external
//! dependency; flags documented in the crate docs).

use std::path::PathBuf;

/// Every flag [`CliArgs::parse_from`] accepts, as its unknown-flag
/// message lists them.
const FLAGS: [&str; 11] = [
    "--repeats",
    "--users",
    "--seed",
    "--out",
    "--fast",
    "--no-calib",
    "--threads",
    "--epochs",
    "--window",
    "--inject",
    "--metrics-out",
];

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Averaging repetitions per point.
    pub repeats: usize,
    /// Optional cap on users per dataset part.
    pub users: Option<usize>,
    /// True when `users` holds `--fast`'s default cap rather than an
    /// explicit `--users` value (the large-d binaries undo that cap: the
    /// sharded report pipeline makes full user counts affordable).
    pub fast_user_cap: bool,
    /// Experiment seed.
    pub seed: u64,
    /// CSV output directory.
    pub out: PathBuf,
    /// Smoke-test mode.
    pub fast: bool,
    /// Skip the Local-Privacy calibration for SEM-Geo-I.
    pub no_calib: bool,
    /// Worker threads for the job runner, the sharded report pipeline and
    /// the split spectral EM (default: available parallelism). Results are bit-identical for
    /// any value — this is a wall-clock knob, not a semantics knob.
    pub threads: Option<usize>,
    /// Stream length in epochs for the continual-observation binaries
    /// (`--epochs N`; each binary picks its own default).
    pub epochs: Option<usize>,
    /// Sliding-window length in epochs for the continual-observation
    /// binaries (`--window W`).
    pub window: Option<usize>,
    /// Fault-injection plan spec for chaos runs (`--inject
    /// "seed=7,corrupt=0.01,drop=0.1,..."`). Kept as the raw spec string
    /// here; the stream binaries parse it with `FaultPlan::parse` so this
    /// crate's shared CLI stays decoupled from `dam-fault`'s types.
    pub inject: Option<String>,
    /// Where to write the run's dam-obs metrics as a JSON document
    /// (`--metrics-out PATH`; sections keyed by pipeline label — see
    /// [`crate::obs::write_metrics`]). `None` skips the export.
    pub metrics_out: Option<PathBuf>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            repeats: 3,
            users: None,
            fast_user_cap: false,
            seed: 42,
            out: PathBuf::from("results"),
            fast: false,
            no_calib: false,
            threads: None,
            epochs: None,
            window: None,
            inject: None,
            metrics_out: None,
        }
    }
}

impl CliArgs {
    /// Parses `std::env::args()`; panics with a usage message on bad input.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testable).
    pub fn parse_from(args: impl Iterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> String {
                it.next().unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match arg.as_str() {
                "--repeats" => out.repeats = value("--repeats").parse().expect("bad --repeats"),
                "--users" => out.users = Some(value("--users").parse().expect("bad --users")),
                "--seed" => out.seed = value("--seed").parse().expect("bad --seed"),
                "--out" => out.out = PathBuf::from(value("--out")),
                "--fast" => out.fast = true,
                "--no-calib" => out.no_calib = true,
                "--threads" => {
                    let n: usize = value("--threads").parse().expect("bad --threads");
                    assert!(n >= 1, "--threads must be at least 1");
                    out.threads = Some(n);
                }
                "--epochs" => {
                    let n: usize = value("--epochs").parse().expect("bad --epochs");
                    assert!(n >= 1, "--epochs must be at least 1");
                    out.epochs = Some(n);
                }
                "--window" => {
                    let n: usize = value("--window").parse().expect("bad --window");
                    assert!(n >= 1, "--window must be at least 1");
                    out.window = Some(n);
                }
                "--inject" => out.inject = Some(value("--inject")),
                "--metrics-out" => out.metrics_out = Some(PathBuf::from(value("--metrics-out"))),
                other => panic!("unknown flag {other}; known: {}", FLAGS.join(" ")),
            }
        }
        if out.fast {
            out.repeats = 1;
            if out.users.is_none() {
                out.users = Some(50_000);
                out.fast_user_cap = true;
            }
        }
        out
    }

    /// Lifts `--fast`'s default user cap (an explicit `--users` still
    /// wins). The fig9 large-d binaries call this: with the sharded
    /// report pipeline their full user counts are affordable by default.
    pub fn with_full_users(mut self) -> Self {
        if self.fast_user_cap {
            self.users = None;
            self.fast_user_cap = false;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> CliArgs {
        CliArgs::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = parse("");
        assert_eq!(a.repeats, 3);
        assert_eq!(a.seed, 42);
        assert!(a.users.is_none());
        assert!(!a.fast);
        assert!(a.threads.is_none());
    }

    #[test]
    fn fast_mode_caps_work() {
        let a = parse("--fast");
        assert_eq!(a.repeats, 1);
        assert_eq!(a.users, Some(50_000));
        assert!(a.fast_user_cap);
    }

    #[test]
    fn explicit_values() {
        let a = parse("--repeats 7 --users 1000 --seed 9 --out /tmp/x --no-calib --threads 2");
        assert_eq!(a.repeats, 7);
        assert_eq!(a.users, Some(1000));
        assert_eq!(a.seed, 9);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert!(a.no_calib);
        assert_eq!(a.threads, Some(2));
    }

    #[test]
    fn full_users_lifts_only_the_fast_cap() {
        // --fast's default cap is lifted …
        let a = parse("--fast").with_full_users();
        assert_eq!(a.users, None);
        assert!(!a.fast_user_cap);
        assert_eq!(a.repeats, 1, "the repeat cap stays");
        // … but an explicit --users always wins.
        let b = parse("--fast --users 1234").with_full_users();
        assert_eq!(b.users, Some(1234));
    }

    #[test]
    fn stream_flags_parse() {
        let a = parse("--epochs 32 --window 5");
        assert_eq!(a.epochs, Some(32));
        assert_eq!(a.window, Some(5));
        assert!(parse("").epochs.is_none() && parse("").window.is_none());
    }

    #[test]
    #[should_panic(expected = "--window must be at least 1")]
    fn rejects_zero_window() {
        parse("--window 0");
    }

    #[test]
    fn metrics_out_parses_to_a_path() {
        assert!(parse("").metrics_out.is_none());
        let a = parse("--metrics-out /tmp/m.json");
        assert_eq!(a.metrics_out, Some(PathBuf::from("/tmp/m.json")));
    }

    #[test]
    fn inject_keeps_the_raw_spec_string() {
        assert!(parse("").inject.is_none());
        let a = parse("--inject seed=7,corrupt=0.01,drop=0.1");
        assert_eq!(a.inject.as_deref(), Some("seed=7,corrupt=0.01,drop=0.1"));
    }

    #[test]
    fn every_flag_is_documented_in_the_crate_docs() {
        // The unknown-flag message and the flag table in `lib.rs` name
        // the same flags, so neither list can drift from the other.
        let docs: Vec<&str> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! --"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let known: Vec<&str> = FLAGS.iter().map(|f| &f[2..]).collect();
        assert_eq!(docs, known, "crate docs vs the unknown-flag message");
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        parse("--bogus");
    }

    #[test]
    #[should_panic(expected = "--threads must be at least 1")]
    fn rejects_zero_threads() {
        parse("--threads 0");
    }
}
