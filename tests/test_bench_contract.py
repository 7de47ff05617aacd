"""The functions the benchmark profiles must stay defined and stay reached.

``bench/layers.py`` names (module, function) pairs whose profile entries give
the per-layer metrics; a metric whose function is gone, or is not called on a
workload the metric lists in ``on``, reads as missing.  The layer list is
loaded by file path, because ``bench/child.py`` runs a workload when imported.
The source is searched the way the benchmark searches it: by compiling each
module and walking its nested code objects.  Reachability is checked on small
stand-ins for the workloads, each profiled in a fresh interpreter as the
benchmark does, so no cache filled by an earlier test hides a call.  The
same profiling pins the orderly search's node and canonicity-test counts on
three small cells and its bisector calls on one, and the clique search's node
and search counts on three small calls and on the conjecture sweep.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Prints the (module, function) pairs of the package that the call ran.
_PROFILE_CHILD = """
import cProfile, json, os, pstats, sys
import ringpoints
from ringpoints.orderly import max_cardinality_witness
from ringpoints.reductions import verify_conjecture
profile = cProfile.Profile()
profile.runcall(lambda: {call})
package = os.path.dirname(os.path.realpath(ringpoints.__file__))
json.dump(sorted({{
    (os.path.splitext(os.path.basename(filename))[0], fn)
    for filename, _line, fn in pstats.Stats(profile).stats
    if os.path.dirname(os.path.realpath(filename)) == package
}}), sys.stdout)
"""

# Prints the call counts of the functions of one package module during one call.
_MODULE_COUNT_CHILD = """
import cProfile, json, os, pstats, sys
from ringpoints import {module}
from ringpoints.orderly import max_cardinality_witness
from ringpoints.reductions import I_of, verify_conjecture
profile = cProfile.Profile()
profile.runcall(lambda: {call})
here = os.path.realpath({module}.__file__)
counts = dict()
for (filename, _line, fn), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items():
    if os.path.realpath(filename) == here:
        counts[fn] = counts.get(fn, 0) + calls
json.dump(counts, sys.stdout)
"""

# The orderly search's call counts in one cell, still to be formatted with n and mode.
_COUNT_CHILD = _MODULE_COUNT_CHILD.format(module="orderly", call="max_cardinality_witness({n}, {mode!r})")


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _run_child(source: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", source],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def _profiled_functions(call: str) -> set[tuple[str, str]]:
    return {tuple(pair) for pair in _run_child(_PROFILE_CHILD.format(call=call))}


def _defined_names(module: str) -> set[str]:
    path = ROOT / "src" / "ringpoints" / f"{module}.py"
    stack = [compile(path.read_text(), str(path), "exec")]
    names = set()
    while stack:
        code = stack.pop()
        names.add(code.co_name)
        stack += [c for c in code.co_consts if hasattr(c, "co_code")]
    return names


def test_profiled_functions_are_defined():
    functions = _layers().FUNCTIONS
    assert functions
    missing = [f"{mod}.{fn}" for mod, fn in functions if fn not in _defined_names(mod)]
    assert not missing, f"functions named in bench/layers.py but not defined: {missing}"


def test_profiled_functions_are_reached():
    layers = _layers()
    sweep = _profiled_functions("verify_conjecture(9)")
    orderly = _profiled_functions('max_cardinality_witness(13, "general")')
    # verify_conjecture(9) stands in for both clique workloads
    seen = {layers.SWEEP: sweep, layers.HIGHDIM: sweep, layers.ORDERLY: orderly}
    missing = [
        (metric.name, workload)
        for metric in layers.LAYER_METRICS
        for workload in metric.on
        if not set(metric.functions) & seen[workload]
    ]
    assert not missing, f"layer metrics whose functions are not called on their workloads: {missing}"


def test_orderly_search_shape_is_pinned():
    # orderly.nodes, orderly.canon_tests and orderly.canon_steps count these
    # calls; a faster filter must leave the searched branches, and so all three
    # counts, exactly as they are
    cells = (
        (13, "general", 8, 66, 426),
        (17, "semi-general", 18, 178, 1107),
        (20, "general", 288, 547, 3477),
    )
    for n, mode, nodes, canon_tests, canon_steps in cells:
        counts = _run_child(_COUNT_CHILD.format(n=n, mode=mode))
        got = (counts.get("descend"), counts.get("_ordering_exceeds"), counts.get("rec"))
        assert got == (nodes, canon_tests, canon_steps), (n, mode)


def test_orderly_bisectors_fill_one_table():
    # orderly.circle_calls counts _point_bisector calls: they fill the
    # per-modulus table of _circle_tables, n^2 of them, and a filter that falls
    # back to one call per candidate pair fails here at once
    counts = _run_child(_COUNT_CHILD.format(n=13, mode="general"))
    assert counts.get("_point_bisector") == 13 * 13


def test_clique_search_shape_is_pinned():
    # cliquegraph.nodes and cliquegraph.searches count these calls; a change to
    # the greedy coloring that alters the searched branches fails here first
    cells = (("I_of(5, 4)", 1682, 1), ("I_of(7, 3)", 106, 1), ("verify_conjecture(9)", 9, 6))
    for call, nodes, searches in cells:
        counts = _run_child(_MODULE_COUNT_CHILD.format(module="cliquegraph", call=call))
        assert (counts.get("_expand"), counts.get("max_clique")) == (nodes, searches), call


def test_sweep_search_shape_is_pinned():
    # the conjecture-sweep workload: cliquegraph.nodes and cliquegraph.searches
    # read these counts, which graph set-up must leave exactly as they are; the
    # sweep searches each of its 21 distinct prime-power factors once
    counts = _run_child(_MODULE_COUNT_CHILD.format(module="cliquegraph", call="verify_conjecture(47)"))
    assert (counts.get("_expand"), counts.get("max_clique")) == (1418, 21)
