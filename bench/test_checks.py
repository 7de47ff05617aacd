"""The benchmark's answer checks reject hand-made wrong answers.

Run from the repository root: python3 -m pytest -q bench
"""

import checks
from layers import LAYER_METRICS, layer_metrics


def test_witness_checks_accept_a_general_position_set():
    pts = [(0, 0), (9, 10), (9, 12), (11, 7)]
    assert checks.witness_faults(pts, 13, "general", 4) == []


def test_non_integral_set_is_rejected():
    # (1, 1) - (0, 0) has squared length 2, not a square mod 3
    faults = checks.witness_faults([(0, 0), (1, 1)], 3, "any", 2)
    assert any("integral" in f for f in faults)


def test_collinear_sets_are_rejected():
    # axis line, and a line with a zero-divisor direction (3, 3) over Z_9
    for pts, n in (([(0, 0), (1, 0), (2, 0)], 5), ([(0, 0), (3, 3), (6, 6)], 9), ([(0, 0), (1, 2), (2, 4)], 5)):
        assert checks.integral_faults(pts, n) == []
        assert any("cyclic line" in f for f in checks.witness_faults(pts, n, "semi-general", 3))
        assert checks.witness_faults(pts, n, "any", 3) == []


def test_cocircular_sets_are_rejected_in_general_mode_only():
    for pts in ([(7, 1), (7, 8), (8, 11), (12, 1)], [(0, 0), (0, 4), (6, 4), (12, 9)]):
        assert checks.witness_faults(pts, 13, "semi-general", 4) == []
        assert any("center" in f for f in checks.witness_faults(pts, 13, "general", 4))


def test_witness_size_and_distinctness():
    assert checks.witness_faults([(0, 0), (1, 0)], 5, "any", 3)
    assert checks.witness_faults([(0, 0), (0, 0), (1, 0)], 5, "any", 3)


def test_published_values():
    assert checks.orderly_value_faults(29, "semi-general", 14) == []
    assert checks.orderly_value_faults(29, "semi-general", 13)
    assert checks.orderly_value_faults(25, "general", 7)
    assert checks.mode_order_faults({(25, "semi-general"): 6, (25, "general"): 7})
    assert checks.clique_value_faults(13, 3, 169) == []
    assert checks.clique_value_faults(13, 3, 168)
    assert checks.clique_value_faults(4, 8, 4096) == []
    assert checks.clique_value_faults(4, 8, 2048)


def test_closed_form_bound_matches_table1_row():
    for n in checks.TABLE1_COLUMNS:
        assert checks.construction_bound_I2(n) == checks.TABLE1[(n, 2)]
    assert checks.clique_value_faults(45, 2, 135) == []
    assert checks.clique_value_faults(46, 2, 91)


def test_constructions_are_integral_and_reach_table1():
    for n, m in ((13, 3), (17, 3), (16, 3), (9, 3), (46, 2), (45, 2)):
        size = checks.constructed_size(n, m)
        assert size == checks.TABLE1.get((n, m), checks.construction_bound_I2(n))


def test_layer_metric_absent_on_its_workload_is_missing_not_zero():
    defined = {f"{mod}.{fn}" for m in LAYER_METRICS for mod, fn in m.functions}
    metrics, status = layer_metrics("orderly-dfs", {}, defined)
    assert "orderly.nodes" not in metrics and status["orderly.nodes"].startswith("missing")
    assert metrics["cliquegraph.nodes"]["value"] == 0
    metrics, status = layer_metrics("conjecture-sweep", {}, defined - {"cliquegraph._expand"})
    assert "cliquegraph.search_s" not in metrics and "no longer" in status["cliquegraph.search_s"]
