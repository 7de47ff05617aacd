"""One fresh interpreter running one workload round (or only its set-up).

Usage: python3 bench/child.py WORKLOAD {setup|run|trace}

Imports ``ringpoints`` from the checkout's ``src/`` (never an installed copy),
prepares the workload's calls, and prints one JSON object on stdout:

- ``ready``: time.monotonic() once the package is imported and the inputs are
  ready (CLOCK_MONOTONIC is system-wide on Linux, so the launcher subtracts its
  own launch time);
- for "run" and "trace": per-call results with wall times, and the process's
  peak RSS;
- for "trace": per-call profiler figures for the functions in layers.FUNCTIONS
  and the set of those functions that exist in the package source.

The checks run in the launcher, outside the timed region and outside this
process.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import ringpoints  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

workload, mode = sys.argv[1], sys.argv[2]
calls = WORKLOADS[workload]
ready = time.monotonic()

import json  # noqa: E402


def run_call(call):
    kind = call[0]
    if kind == "orderly":
        value, witness = ringpoints.max_cardinality_witness(call[1], call[2])
        return {"value": value, "witness": [list(p) for p in witness]}
    if kind == "sweep":
        report = ringpoints.verify_conjecture(call[2], n_min=call[1])
        return {"entries": [[e.n, e.conjectured, e.exact, e.tight] for e in report.entries]}
    if kind == "clique":
        return {"value": ringpoints.I_of(call[1], call[2])}
    raise ValueError(f"unknown call kind {kind!r}")


def profile_figures(profile) -> dict:
    """Per-function calls, cumulative and self seconds for the layer functions."""
    import pstats

    from layers import FUNCTIONS

    files = {mod: os.path.realpath(sys.modules[f"ringpoints.{mod}"].__file__) for mod, _ in FUNCTIONS}
    out = {}
    for (filename, _line, fn), (_cc, nc, tt, ct, _callers) in pstats.Stats(profile).stats.items():
        for mod, name in FUNCTIONS:
            if fn == name and os.path.realpath(filename) == files[mod]:
                figs = out.setdefault(f"{mod}.{name}", {"calls": 0, "cum": 0.0, "self": 0.0})
                figs["calls"] += nc
                figs["cum"] += ct
                figs["self"] += tt
    return out


def defined_functions() -> list[str]:
    """The layer functions that exist in the package source, nested ones included."""
    from layers import FUNCTIONS

    found = []
    for mod in sorted({mod for mod, _ in FUNCTIONS}):
        path = sys.modules[f"ringpoints.{mod}"].__file__
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        names = set()
        while stack:
            code = stack.pop()
            names.add(code.co_name)
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
        found += [f"{m}.{fn}" for m, fn in FUNCTIONS if m == mod and fn in names]
    return found


def main() -> None:
    if not os.path.realpath(ringpoints.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"ringpoints imported from {ringpoints.__file__}, not from {SRC}")
    out = {"ready": ready}
    if mode in ("run", "trace"):
        import cProfile
        import resource

        results = []
        for call in calls:
            profile = cProfile.Profile() if mode == "trace" else None
            entry = {"call": list(call)}
            t0 = time.perf_counter()
            try:
                if profile is not None:
                    profile.enable()
                try:
                    entry.update(run_call(call))
                finally:
                    if profile is not None:
                        profile.disable()
            except Exception as exc:  # a failed operation is counted, not fatal
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["seconds"] = time.perf_counter() - t0
            entry["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if profile is not None:
                entry["profile"] = profile_figures(profile)
            results.append(entry)
        out["results"] = results
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if mode == "trace":
            out["defined"] = defined_functions()
    print(json.dumps(out))


main()
