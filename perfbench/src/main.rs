//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --scratch <dir>`: runs one workload and prints, last, one JSON line of
//! metric names and values. Exits 1 without it when an output check
//! fails, 2 on bad arguments. `run.py` builds this binary, is the entry
//! point, and turns the line into the benchmark's result.

use perfbench::{run, Args};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.scratch);
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("fingerprint: {}", outcome.fingerprint);
    let line = if outcome.failures.is_empty() {
        outcome.metrics.result_line(outcome.attempted, outcome.failed)
    } else {
        Err(outcome.failures.join("\n"))
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: output check failed:\n{e}");
            std::process::exit(1);
        }
    }
}
