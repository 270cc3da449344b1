#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a base revision against the working tree.

Usage, from the root of the repository:

    scripts/perf_ab.py --base HEAD~1 --workload long_flows --pairs 10 --seconds 30

Builds two Release copies of perfbench/ -- the base revision's, exported
with `git archive` into .bench_build/ab-<rev>/, and the working tree's, in
.bench_build/perfbench as perfbench/run.py builds it -- then runs them in
alternating pairs. Pair i gives both binaries seed --first-seed + i, and
which side runs first alternates from pair to pair, so slow drift in the
host's speed falls on both sides alike.

Prints each pair's wall_s, setup_s and peak_rss_mb, then per metric the
medians, the change's relative gap, how many pairs the change won (a lower
value wins), and the interquartile range of the base runs. The claim line
says whether the change won at least 9 in 10 pairs on wall_s and whether its
median lies further from the base's than the base's IQR.

Exits 1 if any run fails its correctness gate or a pair's output digests
differ (the change must not alter what the simulator computes), 2 if a
build fails.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("long_flows", "short_flows", "buffer_search")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
RUN_TIMEOUT_S = 600
# Share of pairs the change must win for a speed claim.
CLAIM_WIN_SHARE = 0.9


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


# --- summary arithmetic (unit-tested on canned results) ----------------------


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def quantile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of no values")
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def iqr(xs):
    return quantile(xs, 0.75) - quantile(xs, 0.25)


def summarize(pairs, metric):
    """pairs: list of {"base": {metric: value}, "change": {...}}. A lower
    value wins; a tie counts for neither side."""
    base = [p["base"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    base_median = median(base)
    change_median = median(change)
    return {
        "base_median": base_median,
        "change_median": change_median,
        "rel": (change_median - base_median) / base_median if base_median else 0.0,
        "wins": sum(1 for b, c in zip(base, change) if c < b),
        "losses": sum(1 for b, c in zip(base, change) if c > b),
        "base_iqr": iqr(base),
    }


def claim_holds(summary, pairs):
    """The change wins at least 9 in 10 pairs and its median is lower than
    the base's by more than the base's IQR."""
    return (summary["wins"] >= math.ceil(CLAIM_WIN_SHARE * pairs)
            and summary["base_median"] - summary["change_median"] > summary["base_iqr"])


def parse_run(stdout):
    """Returns (digest, result object) from one rbs_perfbench stdout."""
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    digest = None
    for line in lines:
        m = re.match(r"digest ([0-9a-f]+) over", line)
        if m:
            digest = m.group(1)
    if digest is None:
        raise ValueError("no digest line")
    return digest, result


# --- builds and runs ----------------------------------------------------------


def build_perfbench(tree):
    """Configures (once) and builds tree/perfbench in Release; returns the
    binary."""
    build_dir = tree / ".bench_build" / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(tree / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return build_dir / "rbs_perfbench"


def export_revision(rev):
    """Exports `rev` into .bench_build/ab-<sha>/ (once); returns the tree.

    The export goes into a temporary directory that is renamed into place
    only once `git archive` and `tar` have both succeeded, so an interrupted
    export is never mistaken for a complete tree."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", rev],
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = ROOT / ".bench_build" / f"ab-{sha}"
    if tree.is_dir():
        return sha, tree
    tree.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f"ab-{sha}.partial-", dir=tree.parent))
    try:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(staging)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
        staging.rename(tree)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return sha, tree


def run_binary(binary, workload, seed, seconds, revision):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--revision", revision]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{binary} exited with {proc.returncode}: {proc.stderr.strip()}")
    digest, result = parse_run(proc.stdout)
    values = {m: result["metrics"][m]["value"] for m in METRICS}
    return digest, result["correct"], values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair i runs seed FIRST_SEED + i on both sides")
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    try:
        sha, base_tree = export_revision(args.base)
        sides = {"base": (build_perfbench(base_tree), f"base:{sha}"),
                 "change": (build_perfbench(ROOT), "change:working-tree")}
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    print(f"perf_ab: {args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
          f"base {sha} vs the working tree")
    print(f"{'pair':>4} {'seed':>6} {'side':>6} {'wall_s':>10} {'setup_s':>11} "
          f"{'peak_rss_mb':>11}  digest")
    pairs = []
    failed = False
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        digests = {}
        for side in order:
            binary, revision = sides[side]
            try:
                digest, correct, values = run_binary(binary, args.workload, seed, args.seconds,
                                                     revision)
            except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
                log(f"pair {i} {side}: {e}")
                return 1
            if not correct:
                log(f"pair {i} {side}: the run failed its correctness gate")
                failed = True
            pair[side] = values
            digests[side] = digest
            print(f"{i:>4} {seed:>6} {side:>6} {values['wall_s']:>10.4f} "
                  f"{values['setup_s']:>11.6f} {values['peak_rss_mb']:>11.1f}  {digest}",
                  flush=True)
        if digests["base"] != digests["change"]:
            log(f"pair {i}: digests differ (base {digests['base']}, "
                f"change {digests['change']})")
            failed = True
        pairs.append(pair)

    print(f"\n{'metric':<12} {'base med':>10} {'change med':>11} {'rel':>8} {'wins':>6} "
          f"{'base IQR':>10}")
    for metric in METRICS:
        s = summarize(pairs, metric)
        print(f"{metric:<12} {s['base_median']:>10.6g} {s['change_median']:>11.6g} "
              f"{100 * s['rel']:>+7.1f}% {s['wins']:>3}/{len(pairs):<2} {s['base_iqr']:>10.3g}")
    wall = summarize(pairs, "wall_s")
    print(f"claim (wall_s lower): {'holds' if claim_holds(wall, len(pairs)) else 'does not hold'}"
          f" -- {wall['wins']}/{len(pairs)} wins, median gap "
          f"{wall['base_median'] - wall['change_median']:.4g} s vs base IQR "
          f"{wall['base_iqr']:.4g} s")
    if failed:
        log("FAILED: a run failed its gate or a pair's digests differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
