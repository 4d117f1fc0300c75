#!/usr/bin/env python3
"""Entry point of the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own, depending on the program's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload in a child process, and relays
its output. The last line printed is the JSON result; on any failed check
the script exits nonzero and prints no result.

BENCHMARK.json is the one catalog of workloads, metrics and units: the
binary prints metric names and values, and this script attaches the units.

Checks made here, on top of those inside the run:
  * the run printed exactly the metrics BENCHMARK.json declares for the
    mode (end-to-end untraced, per-layer traced);
  * the accuracy fingerprint (window TV, window W2, delivered share, as
    bit patterns) repeats across runs of one seed with the same binary;
  * on the default seed, accuracy is within PIN_SLACK of the pinned values
    or better.
"""

import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
# Default-seed accuracy of the pipeline as of this benchmark's commit. A
# later change may improve on it; it may not fall behind by more than
# PIN_SLACK (relative). Exact repeats are pinned by the fingerprint.
PINNED = {
    "stream-fft": {"window_tv": 0.11729907181959419, "window_w2": 3.773240993934724,
                   "delivered_share": 1.0},
    "ingest-1m": {"window_tv": 0.04540551314470789, "window_w2": 1.139389922677211,
                  "delivered_share": 0.9966738389347204},
    "durable-cluster": {"window_tv": 0.04509352213511371, "window_w2": 1.1392929713128244,
                        "delivered_share": 0.94327104},
}
PIN_SLACK = 0.05
# The run stops adding epochs at OVERRUN x --seconds; set-up, the untimed
# history and the accuracy solves come on top.
OVERRUN = 1.3
MARGIN_S = 90


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args(spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({done.returncode})")
    return target / "release" / "perfbench"


def parse_fingerprint(fingerprint):
    values = {}
    for part in fingerprint.split():
        name, bits = part.split("=")
        values[name] = struct.unpack("<d", int(bits, 16).to_bytes(8, "little"))[0]
    return values


def check_repeat(target, binary, args, fingerprint):
    """Accuracy bits must repeat per (binary, workload, seed)."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    pins = target / "perfbench-pins"
    pins.mkdir(parents=True, exist_ok=True)
    pin = pins / f"{digest}-{args.workload}-{args.seed}.txt"
    if not pin.exists():
        pin.write_text(fingerprint)
    elif pin.read_text() != fingerprint:
        fail(f"accuracy differs from an earlier run of seed {args.seed}:\n"
             f"  was {pin.read_text()}\n  now {fingerprint}")


def check_pinned(workload, values):
    pinned = PINNED[workload]
    for name in ("window_tv", "window_w2"):
        if values[name] > pinned[name] * (1 + PIN_SLACK):
            fail(f"{name} {values[name]} is worse than the pinned {pinned[name]}")
    if values["delivered_share"] < pinned["delivered_share"] * (1 - PIN_SLACK):
        fail(f"delivered_share {values['delivered_share']} is below the pinned "
             f"{pinned['delivered_share']}")


def result_line(spec, trace, printed):
    """The benchmark's result: the printed values in BENCHMARK.json's
    order, with its units. Fails unless the names match exactly."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = printed["metrics"]
    want = [m["name"] for m in declared]
    if sorted(values) != sorted(want):
        missing = sorted(set(want) - set(values))
        extra = sorted(set(values) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, not declared {extra}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": True, "attempted": printed["attempted"],
                       "failed": printed["failed"], "metrics": metrics})


def main():
    spec = json.loads(SPEC.read_text())
    args = parse_args(spec)
    if args.workload not in PINNED:
        fail(f"no pinned accuracy for {args.workload}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target)
    scratch = target / "perfbench-scratch" / str(os.getpid())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", str(scratch)]
    timeout = OVERRUN * args.seconds + MARGIN_S
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"run failed ({done.returncode})")
    fingerprint = next((l.split(": ", 1)[1] for l in lines if l.startswith("fingerprint: ")), None)
    if fingerprint is None:
        fail("run printed no fingerprint")
    result = result_line(spec, args.trace == 1, json.loads(lines[-1]))
    check_repeat(target, binary, args, fingerprint)
    if args.seed == DEFAULT_SEED:
        check_pinned(args.workload, parse_fingerprint(fingerprint))
    for line in lines[:-1]:
        if not line.startswith("fingerprint: "):
            print(line)
    print(f"# accuracy {fingerprint}")
    print(result)


if __name__ == "__main__":
    main()
