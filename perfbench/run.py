#!/usr/bin/env python3
"""Esthera perf benchmark: builds the library and the runner from this
checkout, runs one workload and passes its report through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; span logs of traced runs land beside it.
The last line of standard output is the run's JSON result; build output goes
to standard error. `--workload all` runs every workload in turn and prints one
summary table instead of a JSON line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["filter_large", "filter_small", "serve_churn"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the contract allows 180 s per run


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no esthera sources (src/CMakeLists.txt) beside perfbench/; "
             "run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def run_one(build_dir, workload, seed, seconds, trace, passthrough):
    cmd = [os.path.join(build_dir, "perfbench_run"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", build_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    if passthrough:
        print("\n".join(lines[:-1]))
    if r.returncode != 0:
        fail(f"{workload} exited with status {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{workload} printed no result line")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must lie in [1, 60]")

    build_dir = build()
    if args.workload != "all":
        _, result = run_one(build_dir, args.workload, args.seed, args.seconds,
                            args.trace, passthrough=True)
        print(json.dumps(result))
        return

    ok = True
    for w in WORKLOADS:
        lines, result = run_one(build_dir, w, args.seed, args.seconds, args.trace,
                                passthrough=False)
        verdict = next((l for l in lines if l.startswith("verdict ")), f"verdict {w}: ?")
        print(verdict)
        for l in lines:
            if l.startswith("  FAIL"):
                print(l)
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:16.6g} {m['unit']}")
        ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
