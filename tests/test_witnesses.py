"""Stored witnesses for bounds beyond the published tables, checked from scratch.

Each file under ``witnesses/`` gives a cell, the size it proves and the points
realizing it: I(3, 7) in Z_3^7, semi-general position (no three points on a
cyclic line) in Z_50^2, and general position (no three on a line, no four on
a circle) in Z_58^2, Z_61^2 and Z_64^2.  The checks here use plain integer
arithmetic only, so a fault in the package's predicates cannot make a witness
pass.  A witness shows a lower bound only: that general n = 61 is exactly 10
rests on the exhaustive search alone, which its file records.
"""

import json
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

from ringpoints.tables import TABLE1, TABLE2, TABLE3

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


def _plane_points(doc: dict) -> list[tuple[int, int]]:
    """The witness points of a Z_n^2 cell, checked to be distinct residues, as many as its value."""
    n = doc["n"]
    points = [tuple(p) for p in doc["points"]]
    assert all(len(p) == 2 and all(isinstance(c, int) and 0 <= c < n for c in p) for p in points)
    assert len(set(points)) == len(points) == doc["value"]
    return points


def _assert_integral(points, n):
    squares = {x * x % n for x in range(n)}
    for (ax, ay), (bx, by) in combinations(points, 2):
        assert ((ax - bx) ** 2 + (ay - by) ** 2) % n in squares, ((ax, ay), (bx, by))


def _assert_no_three_on_a_line(points, n):
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


def _assert_no_four_on_a_circle(points, n):
    # a circle about (a, b) is a set of points at one squared distance from
    # it, whatever that value is, zero and non-squares included
    for a, b in product(range(n), repeat=2):
        value, count = Counter(((x - a) ** 2 + (y - b) ** 2) % n for x, y in points).most_common(1)[0]
        assert count < 4, ((a, b), value)


def test_semi_general_50_lower_bound_witness():
    doc = json.loads((WITNESSES / "semi_general_50.json").read_text())
    n = doc["n"]
    assert (n, doc["mode"], doc["bound"]) == (50, "semi-general", "lower")
    points = _plane_points(doc)
    assert len(points) >= 20
    _assert_integral(points, n)
    _assert_no_three_on_a_line(points, n)
    # beats the published lower bound, which the tables keep as published
    assert TABLE2[50] == (17, False)


@pytest.mark.parametrize("n, bound, size", [(58, "lower", 12), (61, "exact", 10), (64, "lower", 12)])
def test_general_position_witness(n, bound, size):
    doc = json.loads((WITNESSES / f"general_{n}.json").read_text())
    assert (doc["n"], doc["mode"], doc["bound"], doc["value"]) == (n, "general", bound, size)
    points = _plane_points(doc)
    _assert_integral(points, n)
    _assert_no_three_on_a_line(points, n)
    _assert_no_four_on_a_circle(points, n)
    # beats the published lower bound, which the tables keep as published
    published, exact = TABLE3[n]
    assert size > published and not exact
