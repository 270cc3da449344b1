#!/usr/bin/env python3
"""Thread-safety annotation harness: proves the annotations are load-bearing.

Two legs, both requiring clang++ (the only compiler implementing
-Wthread-safety):

  positive  the annotated cross-thread TUs (sweep engine, sweep profiler)
            and tests/thread_safety/guarded_access_ok.cpp must compile
            cleanly under -Wthread-safety -Werror=thread-safety.

  negative  tests/thread_safety/guarded_access_poke.cpp reads ONE guarded
            SweepBatchState field without the mutex (selected with
            -DRBS_TSA_FIELD=<field>) and must FAIL to compile with a
            -Wthread-safety diagnostic, once per guarded field. The field
            list is read from the RBS_GUARDED_BY declarations in
            src/experiment/dispatch_protocol.hpp, so a new field cannot skip
            its poke. If any poke compiles (or fails for another reason),
            an RBS_GUARDED_BY was removed or weakened — the harness (and
            the CI thread-safety leg) fails, naming the field.

This is the machine check behind the claim in dispatch_protocol.hpp: deleting
any one annotation there turns a data-race hazard back into silently
accepted code, so the harness turns it into a build failure instead.

Usage: python3 scripts/check_thread_safety.py [--clang PATH]
Exit 0 all checks pass · 1 a check failed · 2 no usable clang++.
"""
from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# TUs whose annotations must hold under -Werror=thread-safety.
POSITIVE_TUS = (
    "src/experiment/sweep.cpp",
    "src/telemetry/sweep_profile.cpp",
    "tests/thread_safety/guarded_access_ok.cpp",
)

POKE_TU = "tests/thread_safety/guarded_access_poke.cpp"

STATE_HEADER = "src/experiment/dispatch_protocol.hpp"

# `<name> RBS_GUARDED_BY(` — a member declaration's name is the identifier
# right before its annotation.
GUARDED_DECL = re.compile(r"\b(\w+)\s+RBS_GUARDED_BY\s*\(")


def guarded_fields() -> list[str]:
    """Every RBS_GUARDED_BY field declared in the dispatch state header."""
    text = (REPO / STATE_HEADER).read_text()
    text = re.sub(r"//[^\n]*", "", text)  # comments may mention the macro
    return GUARDED_DECL.findall(text)


BASE_FLAGS = [
    "-std=c++20",
    "-fsyntax-only",
    "-Wthread-safety",
    "-Werror=thread-safety",
    f"-I{REPO / 'src'}",
]


def compile_tu(clang: str, tu: Path, extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [clang, *BASE_FLAGS, *extra, str(tu)],
        capture_output=True, text=True, check=False,
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--clang", default=None,
                    help="clang++ to use (default: $RBS_CLANGXX or clang++ on PATH)")
    args = ap.parse_args()

    import os
    clang = args.clang or os.environ.get("RBS_CLANGXX") or shutil.which("clang++")
    if not clang or not shutil.which(clang):
        print("check_thread_safety: no clang++ found — the thread-safety "
              "analysis only exists in Clang. Install clang or pass --clang.",
              file=sys.stderr)
        return 2

    failures: list[str] = []
    fields = guarded_fields()
    if not fields:
        failures.append(f"negative: found no RBS_GUARDED_BY field in {STATE_HEADER}")

    for rel in POSITIVE_TUS:
        tu = REPO / rel
        proc = compile_tu(clang, tu, [])
        if proc.returncode != 0:
            failures.append(
                f"positive: {rel} failed -Wthread-safety:\n{proc.stderr.strip()}"
            )
        else:
            print(f"check_thread_safety: ok (positive) {rel}")

    for field in fields:
        proc = compile_tu(clang, REPO / POKE_TU, [f"-DRBS_TSA_FIELD={field}"])
        if proc.returncode == 0:
            failures.append(
                f"negative: unguarded read of SweepBatchState::{field} COMPILED — "
                f"its RBS_GUARDED_BY annotation in {STATE_HEADER} "
                "is missing or no longer enforced"
            )
        elif "-Wthread-safety" not in proc.stderr:
            failures.append(
                f"negative: the poke at SweepBatchState::{field} failed without a "
                f"-Wthread-safety diagnostic:\n{proc.stderr.strip()}"
            )
        else:
            print(f"check_thread_safety: ok (negative) {POKE_TU} field={field}")

    if failures:
        print("check_thread_safety: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"check_thread_safety: {len(POSITIVE_TUS)} positive and "
          f"{len(fields)} negative checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
