"""Per-layer metrics, read from a cProfile run of a workload.

Each metric sums one field over one or more functions of a package module:
"calls" (call count, recursive calls included), "cum" (cumulative seconds) or
"self" (seconds in the function body itself).  ``on`` names the workloads whose
calls go through the functions; on those a function absent from the profile is
reported as missing.  Elsewhere a function that still exists in the source but
was not called reads 0, and one that no longer exists is missing.
"""

from __future__ import annotations

from typing import NamedTuple


class LayerMetric(NamedTuple):
    name: str
    unit: str
    field: str
    functions: tuple[tuple[str, str], ...]  # (module, function name)
    on: tuple[str, ...]


SWEEP, HIGHDIM, ORDERLY = "conjecture-sweep", "highdim-build", "orderly-dfs"

LAYER_METRICS = (
    LayerMetric("cliquegraph.nodes", "count", "calls", (("cliquegraph", "_expand"),), (SWEEP, HIGHDIM)),
    LayerMetric("cliquegraph.searches", "count", "calls", (("cliquegraph", "max_clique"),), (SWEEP, HIGHDIM)),
    LayerMetric("cliquegraph.search_s", "s", "cum", (("cliquegraph", "_expand"),), (SWEEP, HIGHDIM)),
    LayerMetric("cliquegraph.build_s", "s", "cum", (("cliquegraph", "build_rooted"),), (SWEEP, HIGHDIM)),
    LayerMetric("cliquegraph.relabel_s", "s", "self", (("cliquegraph", "max_clique"),), (SWEEP, HIGHDIM)),
    LayerMetric("cliquegraph.warmstart_s", "s", "cum", (("cliquegraph", "_greedy_clique"),), (SWEEP, HIGHDIM)),
    LayerMetric("reductions.even_build_s", "s", "cum", (("reductions", "even_reduction_graph"),), (SWEEP, HIGHDIM)),
    LayerMetric(
        "reductions.construct_s", "s", "cum",
        (("reductions", "lemma1_points"), ("reductions", "lemma2_points")), (SWEEP,),
    ),
    LayerMetric("geometry.line_table_s", "s", "cum", (("geometry", "line_table"),), (ORDERLY,)),
    LayerMetric("orderly.tables_s", "s", "cum", (("orderly", "edge_classes"),), (ORDERLY,)),
    LayerMetric(
        "orderly.seed_s", "s", "cum", (("orderly", "seed_L3"), ("orderly", "seed_candidates")), (ORDERLY,)
    ),
    LayerMetric("orderly.nodes", "count", "calls", (("orderly", "descend"),), (ORDERLY,)),
    LayerMetric("orderly.canon_tests", "count", "calls", (("orderly", "_ordering_exceeds"),), (ORDERLY,)),
    LayerMetric("orderly.canon_steps", "count", "calls", (("orderly", "rec"),), (ORDERLY,)),
    LayerMetric("orderly.canon_s", "s", "cum", (("orderly", "_ordering_exceeds"),), (ORDERLY,)),
    LayerMetric("orderly.extend_self_s", "s", "self", (("orderly", "descend"),), (ORDERLY,)),
    LayerMetric("orderly.circle_calls", "count", "calls", (("orderly", "_point_bisector"),), (ORDERLY,)),
    LayerMetric("orderly.circle_s", "s", "cum", (("orderly", "_point_bisector"),), (ORDERLY,)),
)

FUNCTIONS = sorted({f for metric in LAYER_METRICS for f in metric.functions})


def layer_metrics(workload: str, stats: dict, defined: set) -> tuple[dict, dict]:
    """Fold per-function profile stats into the per-layer metrics.

    ``stats`` maps "module.function" to {"calls", "cum", "self"} for functions
    the profiler saw; ``defined`` holds the "module.function" names that exist
    in the package source.  Returns (metrics, status): metrics maps each
    metric that could be measured to {"value", "unit"}; status gives every
    metric's "measured", "not called on this workload" or "missing: ...".
    """
    metrics, status = {}, {}
    for metric in LAYER_METRICS:
        names = [f"{mod}.{fn}" for mod, fn in metric.functions]
        gone = [nm for nm in names if nm not in defined]
        seen = [nm for nm in names if nm in stats]
        if gone:
            status[metric.name] = f"missing: {', '.join(gone)} no longer in the package source"
        elif not seen and workload in metric.on:
            status[metric.name] = f"missing: {', '.join(names)} not found by the profiler on {workload}"
        else:
            value = sum(stats[nm][metric.field] for nm in seen)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
            status[metric.name] = "measured" if seen else "not called on this workload"
    return metrics, status
