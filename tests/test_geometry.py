import os
import random
import subprocess
import sys
from itertools import combinations, product
from math import comb

import pytest

from oracles import is_set_collinear
import ringpoints
from ringpoints.errors import InvalidInputError
from ringpoints.geometry import (
    _bisector_mask,
    bit_reader,
    collinear_det,
    concyclic_det,
    delta,
    diff_layout,
    is_cocircular,
    is_collinear,
    is_concyclic,
    is_integral,
    is_integral_delta,
    point_code,
    point_index,
)
from ringpoints.modring import squares


def all_points(n):
    return [(x, y) for x in range(n) for y in range(n)]


def test_delta_examples():
    assert delta((1, 6), (5, 2), 7) == (3, 3)
    assert delta((4, 1), (4, 1), 7) == (0, 0)
    assert delta((0, 0), (7, 5), 12) == (5, 5)


def test_delta_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        delta((1, 2), (1, 2, 3), 5)


def test_is_integral_examples():
    assert not is_integral_delta((1, 1), 3)  # 2 is not a square mod 3
    assert is_integral_delta((0, 0, 0), 11)
    assert is_integral_delta(delta((0, 0), (1, 5), 13), 13)  # 26 = 0 = 0^2
    assert not is_integral((0, 0), (1, 1), 3)
    assert is_integral((2, 5), (2, 5), 9)
    # squares mod 4 = {0, 1}: 1 + 4 = 5 = 1 and 4 + 4 = 8 = 0, both squares
    assert is_integral((0, 0), (1, 2), 4)
    assert is_integral((0, 0), (2, 2), 4)


def test_integrality_symmetry_and_translation_exhaustive():
    for n in (2, 3, 5, 7):
        pts = all_points(n)
        for u in pts:
            for v in pts:
                expect = is_integral(u, v, n)
                assert is_integral(v, u, n) == expect
                for t in ((1, 0), (3, 2)):
                    ut = ((u[0] + t[0]) % n, (u[1] + t[1]) % n)
                    vt = ((v[0] + t[0]) % n, (v[1] + t[1]) % n)
                    assert is_integral(ut, vt, n) == expect


def test_lee_reduction_preserves_squared_length():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randrange(2, 40)
        u = (rng.randrange(n), rng.randrange(n))
        v = (rng.randrange(n), rng.randrange(n))
        d = delta(u, v, n)
        assert sum(x * x for x in d) % n == sum((a - b) ** 2 for a, b in zip(u, v)) % n


def test_collinear_det_gap_fixture():
    # determinant vanishes mod 8 yet the points are on no cyclic line
    assert collinear_det((0, 0), (2, 4), (4, 4), 8)
    assert not is_collinear((0, 0), (2, 4), (4, 4), 8)


def test_collinear_examples():
    for n in (3, 5, 8, 12):
        assert is_collinear((0, 0), (1, 1), (2 % n, 2 % n), n)
    assert is_collinear((0, 0), (1, 2), (2, 4), 7)
    assert collinear_det((0, 0), (1, 2), (2, 4), 7)
    assert not collinear_det((0, 0), (1, 0), (0, 1), 5)


def test_collinear_repeated_points():
    for n in (2, 5, 8):
        assert is_collinear((1, 1), (1, 1), (0, 3 % n), n)
        assert is_collinear((1, 1), (0, 3 % n), (0, 3 % n), n)


def brute_collinear(p1, p2, p3, n):
    # direct quantifier scan with the translation normalization
    q = ((p2[0] - p1[0]) % n, (p2[1] - p1[1]) % n)
    r = ((p3[0] - p1[0]) % n, (p3[1] - p1[1]) % n)
    for t1 in range(n):
        for t2 in range(n):
            line = {((w * t1) % n, (w * t2) % n) for w in range(n)}
            if q in line and r in line:
                return True
    return False


def test_collinear_matches_brute_force():
    for n in (2, 3, 4, 5, 6, 7, 8):
        pts = all_points(n)
        for q in pts:
            for r in pts:
                assert is_collinear((0, 0), q, r, n) == brute_collinear((0, 0), q, r, n), (n, q, r)


def test_collinear_det_equivalence_primes():
    # over prime moduli the determinant characterizes collinearity exactly
    for n in (2, 3, 5, 7, 11, 13):
        pts = all_points(n)
        for q in pts:
            for r in pts:
                assert is_collinear((0, 0), q, r, n) == collinear_det((0, 0), q, r, n), (n, q, r)


def test_collinear_permutation_translation_invariance():
    # is_collinear is a function of the difference pair (p2-p1, p3-p1), so
    # checking the three generating identities over all difference pairs is
    # exhaustive over all triples and translations
    for n in range(2, 9):
        pts = all_points(n)
        for q in pts:
            for r in pts:
                base = is_collinear((0, 0), q, r, n)
                assert is_collinear((0, 0), r, q, n) == base  # swap last two
                mq = ((-q[0]) % n, (-q[1]) % n)
                rq = ((r[0] - q[0]) % n, (r[1] - q[1]) % n)
                assert is_collinear((0, 0), mq, rq, n) == base  # rotate first point in
    # spot checks of full triples with arbitrary base points
    rng = random.Random(3)
    for n in (6, 8, 9):
        pts = all_points(n)
        for _ in range(150):
            p1, p2, p3 = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            base = is_collinear(p1, p2, p3, n)
            assert is_collinear(p2, p1, p3, n) == base
            assert is_collinear(p3, p2, p1, n) == base
            t = (rng.randrange(n), rng.randrange(n))
            moved = [((p[0] + t[0]) % n, (p[1] + t[1]) % n) for p in (p1, p2, p3)]
            assert is_collinear(*moved, n) == base


def test_set_collinear():
    assert is_set_collinear([(0, 0), (1, 1), (2, 2), (3, 3)], 5)
    assert not is_set_collinear([(0, 0), (1, 1), (1, 0)], 5)
    assert is_set_collinear([(2, 3)], 5)
    assert is_set_collinear([(u, 0) for u in range(7)], 7)


def test_concyclic_examples():
    assert is_concyclic((1, 0), (4, 0), (0, 1), (0, 4), 5)  # unit circle
    assert concyclic_det((1, 0), (4, 0), (0, 1), (0, 4), 5)
    # value fixed by the brute-force oracle during development
    assert is_concyclic((0, 0), (1, 0), (0, 1), (1, 1), 7)
    with pytest.raises(InvalidInputError):
        is_concyclic((0, 0), (0, 0), (1, 1), (2, 2), 5)


def brute_concyclic(pts, n):
    nz = squares(n).nonzero_squares
    for a in range(n):
        for b in range(n):
            vals = {((x - a) ** 2 + (y - b) ** 2) % n for x, y in pts}
            if len(vals) == 1 and next(iter(vals)) in nz:
                return True
    return False


def distinct_quads(rng, pts, count):
    """count distinct sorted quadruples of pts, or all of them when fewer exist."""
    quads = set()
    while len(quads) < min(count, comb(len(pts), 4)):
        quads.add(tuple(sorted(rng.sample(pts, 4))))
    return sorted(quads)


def test_concyclic_matches_brute_force():
    rng = random.Random(11)
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 18, 25):
        for quad in distinct_quads(rng, all_points(n), 250):
            assert is_concyclic(*quad, n) == brute_concyclic(quad, n), (n, quad)


def test_concyclic_implies_det_origin_quadruples():
    # exhaustive with the first point pinned at 0 (both predicates are
    # translation invariant)
    for n in (2, 3, 4, 5, 6, 7, 8):
        pts = [p for p in all_points(n) if p != (0, 0)]
        for rest in combinations(pts, 3):
            quad = ((0, 0),) + rest
            if is_concyclic(*quad, n):
                assert concyclic_det(*quad, n), (n, quad)


def test_concyclic_det_without_concyclic_fixture():
    # four points on a vertical axis: determinant vanishes, no circle holds them
    quad = ((0, 0), (0, 1), (0, 2), (0, 3))
    assert concyclic_det(*quad, 8)
    assert not is_concyclic(*quad, 8)


def test_cocircular_vs_concyclic():
    # common center with a non-square value counts as cocircular only
    quad = ((0, 0), (0, 1), (1, 0), (1, 1))
    assert is_cocircular(*quad, 9)
    assert not is_concyclic(*quad, 9)
    # concyclic always implies cocircular
    rng = random.Random(5)
    for n in (4, 5, 7, 8):
        for quad in distinct_quads(rng, all_points(n), 150):
            if is_concyclic(*quad, n):
                assert is_cocircular(*quad, n)


def brute_cocircular(pts, n):
    for a in range(n):
        for b in range(n):
            vals = {((x - a) ** 2 + (y - b) ** 2) % n for x, y in pts}
            if len(vals) == 1:
                return True
    return False


def test_cocircular_matches_brute_force():
    rng = random.Random(17)
    for n in (2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 25):
        for quad in distinct_quads(rng, all_points(n), 200):
            assert is_cocircular(*quad, n) == brute_cocircular(quad, n), (n, quad)


def test_bisector_mask_matches_center_scan():
    # even moduli and zero divisors: 2 dy and 2 dx need not be units
    for n in (4, 6, 8, 9, 12):
        for dx in range(n):
            for dy in range(n):
                for c in range(n):
                    expect = 0
                    for a in range(n):
                        for b in range(n):
                            if (2 * a * dx + 2 * b * dy - c) % n == 0:
                                expect |= 1 << (a * n + b)
                    assert _bisector_mask(dx, dy, c, n) == expect, (n, dx, dy, c)


def test_diff_layout_reads_q_minus_p_at_code_difference():
    # the entry for q - p sits at point_code(q) - point_code(p), for every
    # pair of Z_k^m, with a table that differs from its reflection, and the
    # code differences meet each of the (2k - 1)^m positions
    rng = random.Random(27)
    for k in range(2, 8):
        for m in range(1, 4):
            values = [rng.randrange(1 << 30) for _ in range(k**m)]
            layout = diff_layout(values, k, m)
            size = (2 * k - 1) ** m
            assert len(layout) == size
            points = list(product(range(k), repeat=m))
            codes = [point_code(p, k) for p in points]
            seen = set()
            for p, cp in zip(points, codes):
                for q, cq in zip(points, codes):
                    d = tuple(b - a for a, b in zip(p, q))
                    assert layout[cq - cp] == values[point_index(d, k)], (k, m, p, q)
                    seen.add(cq - cp)
            assert seen == set(range(-(size // 2), size // 2 + 1)), (k, m)


def test_bit_reader_matches_per_bit_loop():
    # bit i of read(s) is s[positions[i]], for one position and for many,
    # negative positions included
    rng = random.Random(5)
    for trial in range(300):
        length = rng.randint(1, 80)
        s = "".join(rng.choice("01") for _ in range(length))
        count = 1 if trial % 3 == 0 else rng.randint(2, 2 * length)
        positions = [rng.randrange(-length, length) for _ in range(count)]
        expect = sum(int(s[pos]) << i for i, pos in enumerate(positions))
        assert bit_reader(positions)(s) == expect, (s, positions)
    assert bit_reader([3])("0001") == 1 and bit_reader([0])("0001") == 0


def test_import_loads_no_numeric_tower():
    # a fresh interpreter importing the package loads none of the numeric
    # tower modules; only the test oracles use fractions
    src = os.path.dirname(os.path.dirname(ringpoints.__file__))
    code = "import sys, ringpoints; print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
