"""Stored witnesses for bounds beyond the published tables, checked from scratch.

Each file under ``witnesses/`` gives a cell, the size it proves and the points
realizing it: I(3, 7) in Z_3^7, and semi-general position (no three points on
a cyclic line) in Z_50^2.  The checks here use plain integer arithmetic only, so a fault
in the package's predicates cannot make a witness pass.
"""

import json
from itertools import combinations
from pathlib import Path

from ringpoints.tables import TABLE1, TABLE2

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


def test_semi_general_50_lower_bound_witness():
    doc = json.loads((WITNESSES / "semi_general_50.json").read_text())
    n, size = doc["n"], doc["value"]
    assert (n, doc["mode"], doc["bound"]) == (50, "semi-general", "lower")
    points = [tuple(p) for p in doc["points"]]
    assert all(len(p) == 2 and all(isinstance(c, int) and 0 <= c < n for c in p) for p in points)
    assert len(set(points)) == len(points) == size >= 20
    squares = {x * x % n for x in range(n)}
    for (ax, ay), (bx, by) in combinations(points, 2):
        assert ((ax - bx) ** 2 + (ay - by) ** 2) % n in squares, ((ax, ay), (bx, by))
    # the cyclic lines through 0 are {t w : t in Z_n}; three points lie on one
    # line {p + t w} iff two of their differences from the first point lie on
    # a common line through 0
    lines = {frozenset(((t * wx) % n, (t * wy) % n) for t in range(n)) for wx in range(n) for wy in range(n)}
    lines_through = {}
    for k, line in enumerate(lines):
        for d in line:
            lines_through.setdefault(d, set()).add(k)
    for (ax, ay), (bx, by), (cx, cy) in combinations(points, 3):
        ab = ((bx - ax) % n, (by - ay) % n)
        ac = ((cx - ax) % n, (cy - ay) % n)
        assert not lines_through[ab] & lines_through[ac], ((ax, ay), (bx, by), (cx, cy))
    # beats the published lower bound, which the tables keep as published
    assert TABLE2[50] == (17, False)
