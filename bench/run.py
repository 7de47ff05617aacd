"""Benchmark of the two exact engines: clique search and orderly generation.

Usage (from the repository root):

    python3 bench/run.py --workload orderly-dfs --seed 1 --seconds 45 --trace 0

Workloads are fixed lists of calls (bench/workloads.py); ``--seed`` is
recorded but no input depends on it.  The load is closed loop: one process,
one call at a time, no budget, one thread.

A run first launches the interpreter SETUP_LAUNCHES times up to the point
where the package is imported and the inputs are ready, then runs whole rounds
of the workload, each in a fresh interpreter, for as long as the next round is
expected to end within ``--seconds`` (at least one round).  Every answer is
checked by bench/checks.py.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
solve_s (median over rounds of the summed wall time of the calls), setup_s
(median over all launches of launch-to-ready time) and peak_rss_mb (median
over rounds of the round process's peak RSS).  With ``--trace 1`` the run
makes one round under cProfile instead and reports the per-layer metrics of
bench/layers.py.  Each run writes a report to bench/out/; untraced runs also
append their solve time to bench/out/<workload>-untraced.jsonl, and a traced
report gives the tracing overhead as its solve time over the median of those.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
from layers import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, cells_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_LAUNCHES = 21
RUN_LIMIT_S = 170.0  # every launch is killed once the run has lasted this long


class BenchError(Exception):
    pass


def launch(workload: str, mode: str, started: float) -> dict:
    """Run bench/child.py in a fresh interpreter and return its JSON record."""
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s before a {mode} launch")
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, mode],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} launch killed after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} launch exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - t_launch
    return record


def check_round(record: dict) -> tuple[int, int, list[str]]:
    """(attempted cells, failed cells, faults) for one round's answers."""
    attempted = failed = 0
    faults: list[str] = []
    orderly_values: dict[tuple[int, str], int] = {}
    for entry in record["results"]:
        call = tuple(entry["call"])
        cells = cells_of(call)
        attempted += cells
        if "error" in entry:
            failed += cells
            continue
        kind = call[0]
        if kind == "orderly":
            _, n, mode = call
            orderly_values[(n, mode)] = entry["value"]
            faults += checks.orderly_value_faults(n, mode, entry["value"])
            faults += checks.witness_faults(entry["witness"], n, mode, entry["value"])
        elif kind == "clique":
            faults += checks.clique_value_faults(call[1], call[2], entry["value"])
        elif kind == "sweep":
            entries = entry["entries"]
            if [e[0] for e in entries] != list(range(call[1], call[2] + 1)):
                faults.append(f"sweep covered n = {[e[0] for e in entries]}")
            for n, conjectured, exact, tight in entries:
                if exact is None:
                    failed += 1
                    continue
                faults += checks.clique_value_faults(n, 2, exact)
                bound = checks.construction_bound_I2(n)
                if conjectured != bound or tight is not (exact == bound):
                    faults.append(f"sweep entry n={n}: conjectured {conjectured}, tight {tight}, bound {bound}")
    faults += checks.mode_order_faults(orderly_values)
    return attempted, failed, faults


def solve_seconds(record: dict) -> float:
    return sum(entry["seconds"] for entry in record["results"])


def cell_rows(record: dict) -> list[dict]:
    rows = []
    for entry in record["results"]:
        row = {"call": entry["call"], "seconds": entry["seconds"], "rss_mb": entry["rss_kb"] / 1024}
        for key in ("value", "error"):
            if key in entry:
                row[key] = entry[key]
        if "profile" in entry:
            row["profile"] = entry["profile"]
        rows.append(row)
    return rows


def untraced_log(workload: str) -> str:
    return os.path.join(OUT, f"{workload}-untraced.jsonl")


def trace_report(workload: str, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced round, plus the report written to bench/out."""
    stats: dict[str, dict] = {}
    for entry in traced["results"]:
        for name, figs in entry.get("profile", {}).items():
            total = stats.setdefault(name, {"calls": 0, "cum": 0.0, "self": 0.0})
            for key in total:
                total[key] += figs[key]
    metrics, status = layer_metrics(workload, stats, set(traced["defined"]))
    report = {
        "layer_metrics": {
            m.name: {"status": status[m.name], **metrics.get(m.name, {})} for m in LAYER_METRICS
        },
        "traced_solve_s": solve_seconds(traced),
        "tracing_overhead": "unavailable: no untraced run of this workload in bench/out",
    }
    if os.path.exists(untraced_log(workload)):
        with open(untraced_log(workload)) as fh:
            untraced = [json.loads(line)["solve_s"] for line in fh if line.strip()]
        if untraced:
            report["untraced_solve_s_median"] = statistics.median(untraced)
            report["untraced_runs"] = len(untraced)
            report["tracing_overhead"] = solve_seconds(traced) / statistics.median(untraced)
    return metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ringpoints", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'ringpoints')}", file=sys.stderr)
        return 2

    started = time.monotonic()
    setup_samples = [launch(args.workload, "setup", started)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    # Whole rounds only, so every run attempts the same operations in the same
    # proportions; a traced run makes exactly one.
    rounds: list[dict] = []
    measure_start = time.monotonic()
    while True:
        rounds.append(launch(args.workload, "trace" if args.trace else "run", started))
        per_round = (time.monotonic() - measure_start) / len(rounds)
        if args.trace or per_round * (len(rounds) + 1) > args.seconds:
            break
    setup_samples += [r["setup_s"] for r in rounds]

    attempted = failed = 0
    faults: list[str] = []
    for record in rounds:
        a, f, bad = check_round(record)
        attempted, failed, faults = attempted + a, failed + f, faults + bad

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
        "rounds": [
            {"solve_s": solve_seconds(r), "peak_rss_mb": r["peak_rss_kb"] / 1024, "cells": cell_rows(r)}
            for r in rounds
        ],
        "attempted": attempted,
        "failed": failed,
        "faults": faults,
    }
    if args.trace:
        metrics, trace_part = trace_report(args.workload, rounds[0])
        report.update(trace_part)
        print(f"tracing overhead: {trace_part['tracing_overhead']}")
        for name, row in trace_part["layer_metrics"].items():
            print(f"  {name:26s} {row.get('value', ''):>14} {row.get('unit', ''):5s} {row['status']}")
    else:
        metrics = {
            "solve_s": {"value": statistics.median(solve_seconds(r) for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] / 1024 for r in rounds), "unit": "MB"},
        }
        for r in rounds:
            print(f"round: solve {solve_seconds(r):.3f} s, peak RSS {r['peak_rss_kb'] / 1024:.1f} MB")
    report["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    if not args.trace:
        with open(untraced_log(args.workload), "a") as fh:
            cells = [[e["seconds"] for e in r["results"]] for r in rounds]
            fh.write(json.dumps({"seed": args.seed, "solve_s": metrics["solve_s"]["value"], "cell_s": cells}) + "\n")
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for fault in faults:
        print(f"FAULT: {fault}", file=sys.stderr)
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
