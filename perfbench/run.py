#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload long_flows --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (CMake, Release) into
.bench_build/perfbench, then runs one measurement: it passes the program's
report through and exits with its code. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer ledger. --trace 1 also writes the spans to
.bench_build/perfbench/spans/<workload>-<seed>.json.

--self-test runs every workload at a tiny size, checks each output against
BENCHMARK.json's metric lists, and proves the correctness gate rejects a
wrong output digest. See perfbench/README.md for what is measured and why.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "rbs_perfbench"
WORKLOADS = ("long_flows", "short_flows", "buffer_search")
# A run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def revision():
    """git revision when the tree is a repository, plus a hash of every
    source the benchmark compiles, so a report names the program it timed."""
    rev = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return f"git:{rev} src-sha256:{h.hexdigest()[:16]}"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Parses the result line and checks its schema; returns (result, error)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return None, f"last line is not JSON: {e}"
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed",
                                                          "metrics"]:
        return None, "result keys are not exactly correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return None, "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return None, f"{key} is not a whole number"
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        return None, "attempted/failed out of range"
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if sorted(metrics) != sorted(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        return None, f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            return None, f"metric {name} is not {{value, unit}}"
    return result, None


def run_once(workload, seed, seconds, trace, scale="full", expect_digest=None, echo=True):
    """Runs the benchmark program once; returns (exit code, result or None,
    error or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale, "--revision", revision()]
    if trace:
        spans = BUILD_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-{seed}.json")]
    if expect_digest:
        cmd += ["--expect-digest", expect_digest]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, None, f"no result within {RUN_TIMEOUT_S} s"
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 1, None, f"program exited with {proc.returncode}"
    result, error = check_result(lines[-1], trace)
    if result is not None and echo:
        print(lines[-1], flush=True)
    return proc.returncode, result, error


def self_test():
    """Tiny runs of every workload: schema, ledger closure, and a gate that
    must fail on a wrong digest. Returns the number of failed checks."""
    failures = 0

    def expect(ok, what):
        nonlocal failures
        log(f"{'ok  ' if ok else 'FAIL'} {what}")
        failures += 0 if ok else 1

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, error = run_once(workload, 7, 1, trace, scale="tiny", echo=False)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0,
                   f"{workload} trace={trace}: passes the gate with the expected schema"
                   + (f" ({error})" if error else ""))
        # A digest no run can produce: every unit must fail the gate, the
        # result must say so, and the exit code must be nonzero.
        code, result, error = run_once(workload, 7, 1, 0, scale="tiny",
                                       expect_digest="0000000000000000", echo=False)
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"],
               f"{workload}: a wrong digest fails every unit and exits nonzero"
               + (f" ({error})" if error else ""))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required (or --self-test)")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.self_test:
        failures = self_test()
        log("self-test passed" if failures == 0 else f"self-test: {failures} check(s) failed")
        return 0 if failures == 0 else 1

    code, result, error = run_once(args.workload, args.seed, args.seconds, args.trace)
    if error:
        log(error)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
