#!/usr/bin/env python3
"""Validate rbsim telemetry artifacts.

Checks a Chrome trace_event JSON document (``--trace``), a metrics document
(``--metrics``, the ``{"snapshot":…,"series":…}`` file rbsim's ``--metrics``
flag writes — including the ``flow_stats`` rollup when ``--flow-stats``
collected one), and/or a flight-recorder post-mortem (``--post-mortem``)
for schema conformance, so CI catches a broken exporter before a human
loads the file into Perfetto and stares at an empty timeline.

Usage:
    python3 scripts/check_telemetry.py --trace trace.json --metrics out.json
    python3 scripts/check_telemetry.py --post-mortem post_mortem.json

Exits 0 when every supplied artifact is valid, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import sys

VALID_PHASES = {"X", "i", "C"}


def fail(msg: str) -> None:
    raise SystemExit(f"check_telemetry: FAIL: {msg}")


def check_trace(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing top-level traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents empty — the run recorded nothing")

    phases_seen = set()
    for i, e in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if e.get("ph") == "M":
            # Metadata: names the process a track exports as.
            if not isinstance(e.get("pid"), int) or not e.get("args", {}).get("name"):
                fail(f"{where}: metadata event needs pid and args.name: {e}")
            phases_seen.add("M")
            continue
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in e:
                fail(f"{where}: missing '{key}': {e}")
        ph = e["ph"]
        if ph not in VALID_PHASES:
            fail(f"{where}: unknown phase {ph!r}")
        phases_seen.add(ph)
        if not isinstance(e["ts"], (int, float)) or e["ts"] < 0:
            fail(f"{where}: bad ts {e['ts']!r}")
        if ph == "X":
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                fail(f"{where}: complete event needs a non-negative dur: {e}")
        if ph == "C":
            value = e.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                fail(f"{where}: counter event needs numeric args.value: {e}")
        if ph == "i" and e.get("s") != "g":
            fail(f"{where}: instant events are emitted with global scope: {e}")

    dropped = doc.get("otherData", {}).get("droppedEvents")
    print(
        f"check_telemetry: {path}: OK — {len(events)} events, "
        f"phases {sorted(phases_seen)}, dropped={dropped}"
    )
    return len(events)


def check_metrics(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")

    snapshot = doc.get("snapshot")
    if not isinstance(snapshot, dict) or not isinstance(snapshot.get("metrics"), list):
        fail(f"{path}: missing snapshot.metrics")
    keys = []
    for i, m in enumerate(snapshot["metrics"]):
        where = f"{path}: snapshot.metrics[{i}]"
        if not m.get("name"):
            fail(f"{where}: metric without a name: {m}")
        if m.get("kind") not in ("counter", "gauge", "histogram"):
            fail(f"{where}: unknown kind {m.get('kind')!r}")
        # The registry keys metrics by "name|k=v;k=v", so that composite
        # string is the order a deterministic snapshot must come out in.
        labels = m.get("labels", {})
        keys.append(m["name"] + "|" + ";".join(f"{k}={v}" for k, v in labels.items()))
    if keys != sorted(keys):
        fail(f"{path}: snapshot not in deterministic registry-key order")

    series = doc.get("series")
    if not isinstance(series, dict):
        fail(f"{path}: missing series")
    columns = series.get("columns")
    rows = series.get("rows")
    if not isinstance(columns, list) or not isinstance(rows, list):
        fail(f"{path}: series needs columns and rows")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            fail(f"{path}: series.rows[{i}] has {len(row)} cells, expected {len(columns)}")
        if not all(isinstance(v, (int, float)) for v in row):
            fail(f"{path}: series.rows[{i}] has non-numeric cells: {row}")
    if rows:
        times = [r[0] for r in rows] if columns and columns[0] == "time_sec" else []
        if times and times != sorted(times):
            fail(f"{path}: series time column is not monotonically increasing")
    if "utilization" in columns:
        idx = columns.index("utilization")
        for i, row in enumerate(rows):
            if not -1e-9 <= row[idx] <= 1.5:
                fail(f"{path}: series.rows[{i}] utilization {row[idx]} out of range")

    fs = doc.get("flow_stats")
    if fs is not None:
        check_flow_stats(path, fs)

    print(
        f"check_telemetry: {path}: OK — {len(snapshot['metrics'])} metrics, "
        f"{len(rows)} series rows x {len(columns)} columns"
        + (f", flow_stats over {fs['flows']} flows" if fs is not None else "")
    )


def _check_sketch(where: str, sketch: object) -> None:
    if not isinstance(sketch, dict):
        fail(f"{where}: sketch is not an object")
    for key in ("alpha", "count", "zero_count", "min", "max", "p50", "p90",
                "p99", "buckets"):
        if key not in sketch:
            fail(f"{where}: sketch missing '{key}'")
    if not 0 < sketch["alpha"] < 1:
        fail(f"{where}: alpha {sketch['alpha']!r} outside (0,1)")
    buckets = sketch["buckets"]
    if not isinstance(buckets, list):
        fail(f"{where}: buckets is not a list")
    total = sketch["zero_count"]
    indices = []
    for i, b in enumerate(buckets):
        if not (isinstance(b, list) and len(b) == 2):
            fail(f"{where}: buckets[{i}] is not an [index, count] pair: {b}")
        indices.append(b[0])
        total += b[1]
    if indices != sorted(indices):
        fail(f"{where}: bucket indices not ascending")
    if total != sketch["count"]:
        fail(f"{where}: bucket counts sum to {total}, count says {sketch['count']}")
    if sketch["count"] > 0 and not sketch["min"] <= sketch["p50"] <= sketch["max"]:
        fail(f"{where}: p50 {sketch['p50']} outside [min, max]")


def check_flow_stats(where: str, fs: object) -> None:
    if not isinstance(fs, dict):
        fail(f"{where}: flow_stats is not an object")
    for key in ("flows", "flows_completed", "retransmits", "ecn_marks",
                "bytes_acked", "fct", "goodput", "retransmit_counts",
                "peak_cwnd", "hogs"):
        if key not in fs:
            fail(f"{where}: flow_stats missing '{key}'")
    if fs["flows_completed"] > fs["flows"]:
        fail(f"{where}: flows_completed {fs['flows_completed']} > flows {fs['flows']}")
    for name in ("fct", "goodput", "retransmit_counts", "peak_cwnd"):
        _check_sketch(f"{where}: flow_stats.{name}", fs[name])
    # FCT covers completed flows only; the others cover every observation.
    if fs["fct"]["count"] != fs["flows_completed"]:
        fail(f"{where}: fct sketch count {fs['fct']['count']} != "
             f"flows_completed {fs['flows_completed']}")
    # record() drops NaN observations, so per-flow sketches may undercount
    # but can never see more observations than flows.
    if fs["goodput"]["count"] > fs["flows"]:
        fail(f"{where}: goodput sketch count {fs['goodput']['count']} > "
             f"flows {fs['flows']}")
    hogs = fs["hogs"]
    if not isinstance(hogs, dict) or "top" not in hogs or "capacity" not in hogs:
        fail(f"{where}: hogs needs capacity and top")
    top = hogs["top"]
    if len(top) > hogs["capacity"]:
        fail(f"{where}: hogs.top has {len(top)} entries > capacity {hogs['capacity']}")
    weights = []
    for i, e in enumerate(top):
        for key in ("key", "weight", "error"):
            if key not in e:
                fail(f"{where}: hogs.top[{i}] missing '{key}'")
        if e["error"] > e["weight"]:
            fail(f"{where}: hogs.top[{i}] error {e['error']} > weight {e['weight']}")
        weights.append(e["weight"])
    if weights != sorted(weights, reverse=True):
        fail(f"{where}: hogs.top not sorted heaviest-first")


def check_post_mortem(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")

    pm = doc.get("post_mortem")
    if not isinstance(pm, dict):
        fail(f"{path}: missing top-level post_mortem")
    for key in ("reason", "sim_time_ps", "notes", "state"):
        if key not in pm:
            fail(f"{path}: post_mortem missing '{key}'")
    if not isinstance(pm["reason"], str) or not pm["reason"]:
        fail(f"{path}: post_mortem.reason must be a non-empty string")
    if not isinstance(pm["sim_time_ps"], (int, float)) or pm["sim_time_ps"] < 0:
        fail(f"{path}: bad sim_time_ps {pm['sim_time_ps']!r}")
    if not isinstance(pm["notes"], list) or not all(
            isinstance(n, str) for n in pm["notes"]):
        fail(f"{path}: post_mortem.notes must be a list of strings")
    state = pm["state"]
    if not isinstance(state, dict) or not all(
            isinstance(v, (int, float)) for v in state.values()):
        fail(f"{path}: post_mortem.state must map probe names to numbers")
    if "snapshot" in pm and not isinstance(pm["snapshot"].get("metrics"), list):
        fail(f"{path}: post_mortem.snapshot present but has no metrics list")
    if "trace" in pm:
        tr = pm["trace"]
        for key in ("total_events", "dropped_events", "tail"):
            if key not in tr:
                fail(f"{path}: post_mortem.trace missing '{key}'")
        tail = tr["tail"]
        if not isinstance(tail, list):
            fail(f"{path}: post_mortem.trace.tail is not a list")
        times = []
        for i, e in enumerate(tail):
            for key in ("ph", "ts_ps", "name", "cat"):
                if key not in e:
                    fail(f"{path}: trace.tail[{i}] missing '{key}'")
            times.append(e["ts_ps"])
        if times != sorted(times):
            fail(f"{path}: trace.tail not in chronological order")

    print(
        f"check_telemetry: {path}: OK — post-mortem '{pm['reason']}', "
        f"{len(pm['notes'])} notes, {len(pm['state'])} probes"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace_event JSON to validate")
    parser.add_argument("--metrics", help="rbsim --metrics JSON to validate")
    parser.add_argument(
        "--post-mortem", help="flight-recorder post-mortem JSON to validate"
    )
    parser.add_argument(
        "--min-trace-events",
        type=int,
        default=1,
        help="fail if the trace holds fewer events than this",
    )
    args = parser.parse_args()
    if not args.trace and not args.metrics and not args.post_mortem:
        parser.error("nothing to check: pass --trace, --metrics, and/or --post-mortem")
    if args.trace:
        n = check_trace(args.trace)
        if n < args.min_trace_events:
            fail(f"{args.trace}: only {n} events (< {args.min_trace_events})")
    if args.metrics:
        check_metrics(args.metrics)
    if args.post_mortem:
        check_post_mortem(args.post_mortem)
    return 0


if __name__ == "__main__":
    sys.exit(main())
