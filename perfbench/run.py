#!/usr/bin/env python3
"""Full-stack benchmark of the ITB/GM simulator: one command per workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The script builds perfbench/ (which compiles
the library from src/) under .bench_build/, runs the workload in its own
single-threaded process, checks the simulated-result digest against the
pins in perfbench/digests.json, prints every metric with its unit, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones and writes the spans of one traced repetition to
.bench_build/traces/<workload>-seed<N>.json (Chrome trace-event format).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gm_uniform_itb128", "svc_rpc_vc32", "map_recover_itb1024")
# Units of the workload-specific names each run prints besides the metrics.
NAMED_UNITS = {"gm_msgs_per_s": "msgs/s", "rpc_calls_per_s": "calls/s",
               "recovery_s": "s"}
RUN_LIMIT_S = 175  # one run, build excluded


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not 0 <= a.seed < 2**64:
        p.error("--seed must be in [0, 2^64)")
    if a.seconds < 0:
        p.error("--seconds must be >= 0")
    return a


def build(build_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr)
        if res.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}", 1)
    exe = build_dir / "perfbench_harness"
    if not exe.is_file():
        die(f"harness not built at {exe}", 1)
    return exe


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    build_root = ROOT / ".bench_build"
    exe = build(build_root / "perfbench")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        spans = build_root / "traces" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_LIMIT_S} s", 1)
    if res.returncode != 0:
        die(f"harness exited with {res.returncode}", 1)
    lines = res.stdout.strip().splitlines()
    if not lines:
        die("harness printed no result", 1)
    out = json.loads(lines[-1])

    errors = list(out["errors"])
    pins = json.loads((HERE / "digests.json").read_text())
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    if pinned is None:
        digest_note = "not pinned for this seed"
    elif pinned == out["digest"]:
        digest_note = "matches the pin"
    else:
        digest_note = f"MISMATCH, pinned {pinned}"
        errors.append(f"simulated-result digest {out['digest']} differs from "
                      f"the pin {pinned}")

    key = "per_layer" if args.trace else "end_to_end"
    source = out["per_layer"] if args.trace else out["e2e"]
    metrics = {}
    for m in spec[key]:
        if m["name"] not in source:
            die(f"harness did not report {m['name']}", 1)
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  repetitions "
          f"{out['reps']} ({out['traced_reps']} traced)  "
          f"{time.monotonic() - started:.1f} s")
    print(f"simulated-result digest {out['digest']}: {digest_note}")
    for name, value in out["named"].items():
        print(f"  {name:32s} {value:>18.6g} {NAMED_UNITS[name]}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>18.6g} {m['unit']}")
    print(f"attempted {out['attempted']}  failed {out['failed']}")
    for e in errors:
        print(f"  error: {e}")
    if spans:
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({"correct": not errors and out["failed"] == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
