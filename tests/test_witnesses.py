"""Stored witnesses for bounds beyond the published tables, checked from scratch.

Each file under ``witnesses/`` gives a cell, the size it proves and the points
realizing it.  The checks here use plain integer arithmetic only, so a fault
in the package's predicates cannot make a witness pass.
"""

import json
from itertools import combinations
from pathlib import Path

from ringpoints.tables import TABLE1

WITNESSES = Path(__file__).resolve().parent.parent / "witnesses"


def test_I_3_7_lower_bound_witness():
    doc = json.loads((WITNESSES / "I_3_7.json").read_text())
    n, m = doc["n"], doc["m"]
    assert (n, m, doc["bound"], doc["value"]) == (3, 7, "lower", 36)
    points = [tuple(int(c) for c in s) for s in doc["points"]]
    assert all(len(p) == m and all(0 <= c < n for c in p) for p in points)
    assert len(set(points)) == len(points) == 36
    squares = {x * x % n for x in range(n)}
    assert squares == {0, 1}
    for u, v in combinations(points, 2):
        assert sum((a - b) ** 2 for a, b in zip(u, v)) % n in squares, (u, v)
    # beats the published lower bound, which the tables keep as published
    assert TABLE1[(3, 7)] == (35, False)
