"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Stated wall-clock limits are asserted alongside the values.
"""

import random
import time
from math import gcd

from oracles import delta_value, full_value, is_set_collinear
from ringpoints.charfield import (
    cayley_menger,
    char_consistent,
    dist_matrix_from_points,
    heron_v2,
    sphere_det,
)
from ringpoints.cliquegraph import DistanceGraph, max_clique
from ringpoints.geometry import collinear_det, is_collinear, is_integral
from ringpoints.modring import alpha
from ringpoints.orderly import max_cardinality
from ringpoints.reductions import (
    I_of,
    _solve_rooted,
    even_reduction_value,
    hamming_I3_value,
    ilig_set,
    verify_conjecture,
)
from ringpoints.tables import TABLE2, TABLE3


def report(num: int, elapsed: float, detail: str) -> None:
    print(f"PASS criterion {num} [{elapsed:.1f}s]: {detail}")


def test_criterion_1_table1():
    t0 = time.monotonic()
    want_m2 = dict(zip((3, 4, 5, 7, 8, 9, 11, 13, 16, 17), (3, 8, 5, 7, 16, 27, 11, 13, 64, 17)))
    for n, expected in want_m2.items():
        assert I_of(n, 2) == expected, (n, 2)
    want_m3 = dict(zip((3, 4, 5, 7, 8, 9), (4, 16, 25, 8, 64, 81)))
    for n, expected in want_m3.items():
        assert I_of(n, 3) == expected, (n, 3)
    want_m4 = dict(zip((3, 4, 5), (9, 32, 25)))
    for n, expected in want_m4.items():
        assert I_of(n, 4) == expected, (n, 4)
    elapsed = time.monotonic() - t0
    assert elapsed <= 600
    report(1, elapsed, "19 reference cells of the maxima table, exact")


def test_criterion_2_even_reduction_sequence():
    t0 = time.monotonic()
    want = (4, 8, 16, 32, 128, 256, 1024, 4096)
    for m, expected in enumerate(want, start=1):
        assert even_reduction_value(4, m) == expected, m
    elapsed = time.monotonic() - t0
    assert elapsed <= 600
    report(2, elapsed, "I(4,m) = 4,8,16,32,128,256,1024,4096 for m = 1..8 via the half-ring weight graph")


def test_criterion_3_hamming_formulation():
    t0 = time.monotonic()
    want = {2: 3, 3: 4, 4: 9, 5: 27, 6: 33}
    for m, expected in want.items():
        assert hamming_I3_value(m) == expected, m
    for m in (2, 3, 4):
        assert hamming_I3_value(m) == _solve_rooted(3, m, None), m
    elapsed = time.monotonic() - t0
    report(3, elapsed, "I(3,m) for m = 2..6 via Hamming distances, equal to direct search for m <= 4")


def test_criterion_4_table2():
    t0 = time.monotonic()
    for n in range(1, 31):
        expected, exact = TABLE2[n]
        assert exact
        assert max_cardinality(n, "semi-general") == expected, n
    elapsed = time.monotonic() - t0
    assert elapsed <= 900
    report(4, elapsed, "no-three-collinear maxima match the reference for all n <= 30")


def test_criterion_5_table3():
    t0 = time.monotonic()
    for n in range(1, 31):
        expected, exact = TABLE3[n]
        assert exact
        assert max_cardinality(n, "general") == expected, n
    elapsed = time.monotonic() - t0
    assert elapsed <= 1200
    report(5, elapsed, "general-position maxima match the reference for all n <= 30")


def test_criterion_6_conjecture_harness():
    t0 = time.monotonic()
    report_obj = verify_conjecture(60)
    assert not report_obj.unverified
    assert report_obj.all_tight
    for entry in report_obj.entries:
        assert entry.exact == entry.conjectured, entry
    elapsed = time.monotonic() - t0
    assert elapsed <= 1800
    report(6, elapsed, "I(n,2) equals the best construction bound for every n <= 60")


def test_criterion_7_theorem_oracles():
    t0 = time.monotonic()
    evens: list[tuple[int, int, int]] = []
    # multiplicativity over coprime pairs, both sides computed independently
    pairs = 0
    for a in range(2, 40):
        for b in range(a + 1, 41):
            if a * b > 40 or gcd(a, b) != 1:
                continue
            left = I_of(a * b, 2, use_cartesian=False)
            assert left == I_of(a, 2) * I_of(b, 2), (a, b)
            if (a * b) % 2 == 0:
                evens.append((a * b, 2, left))
            pairs += 1
    for n in range(2, 17, 2):
        evens.append((n, 2, I_of(n, 2)))
    evens.extend([(4, 3, I_of(4, 3)), (8, 3, I_of(8, 3))])
    for n, m, value in evens:
        assert value % (2**m) == 0, (n, m)
    for p in (7, 11, 19, 23):
        assert max_cardinality(p, "semi-general") == (p + 1) // 2, p
    for p in (3, 5, 7):
        assert I_of(p, 2) == p
    for p in (3, 5):
        assert I_of(p * p, 2) == p**3
    elapsed = time.monotonic() - t0
    report(
        7,
        elapsed,
        f"multiplicativity on {pairs} coprime pairs, power-of-two divisibility, "
        "prime semi-general and prime-power values",
    )


def test_criterion_8_predicate_fixtures():
    t0 = time.monotonic()
    assert collinear_det((0, 0), (2, 4), (4, 4), 8)
    assert not is_collinear((0, 0), (2, 4), (4, 4), 8)
    # both predicates are functions of the coordinate differences, so scanning
    # all difference pairs at the origin is exhaustive over all triples
    checked = 0
    for n in (2, 3, 5, 7, 11, 13):
        pts = [(x, y) for x in range(n) for y in range(n)]
        for q in pts:
            for r in pts:
                assert is_collinear((0, 0), q, r, n) == collinear_det((0, 0), q, r, n), (n, q, r)
                checked += 1
    elapsed = time.monotonic() - t0
    report(8, elapsed, f"parametric vs determinant collinearity agree on {checked} prime-field triples")


def test_criterion_9_identity_suites():
    t0 = time.monotonic()
    for n in (5, 7, 12):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    m = ((0, a, b), (a, 0, c), (b, c, 0))
                    assert cayley_menger(m, n) == heron_v2(a, b, c, n), (n, a, b, c)
    rng = random.Random(20260808)
    for n in (7, 12, 13):
        for _ in range(100_000):
            d12, d13, d14, d23, d24, d34 = (rng.randrange(n) for _ in range(6))
            m = (
                (0, d12, d13, d14),
                (d12, 0, d23, d24),
                (d13, d23, 0, d34),
                (d14, d24, d34, 0),
            )
            t1 = d12 * d34 + d13 * d24 + d14 * d23
            t2 = d12 * d34 + d13 * d24 - d14 * d23
            t3 = d12 * d34 - d13 * d24 + d14 * d23
            t4 = -d12 * d34 + d13 * d24 + d14 * d23
            assert sphere_det(m, n) == (-t1 * t2 * t3 * t4) % n
    elapsed = time.monotonic() - t0
    report(9, elapsed, "Heron identity exhaustive mod 5, 7, 12; four-point factorization on 3x100000 seeded tuples")


def test_criterion_10_characteristic_invariance():
    t0 = time.monotonic()
    for p in (5, 13, 17):
        pts = ilig_set(p)
        assert len(pts) == p
        for i in range(p):
            for j in range(i + 1, p):
                assert is_integral(pts[i], pts[j], p)
        assert not is_set_collinear(pts, p)
        d = dist_matrix_from_points(pts, p)
        consistent, value = char_consistent(d, p)
        assert consistent
        assert value in (1, alpha(p))
    elapsed = time.monotonic() - t0
    report(10, elapsed, "one characteristic per construction set; sets are integral and non-collinear")


def test_criterion_11_solver_trust():
    t0 = time.monotonic()

    def naive(adj, v):
        best = [0]

        def rec(size, cand):
            if size > best[0]:
                best[0] = size
            while cand:
                bit = cand & -cand
                u = bit.bit_length() - 1
                cand ^= bit
                if size + 1 + cand.bit_count() <= best[0]:
                    return
                rec(size + 1, cand & adj[u])

        rec(0, (1 << v) - 1)
        return best[0]

    rng = random.Random(424242)
    for trial in range(50):
        v = rng.randint(5, 40)
        p = rng.uniform(0.2, 0.8)
        adj = [0] * v
        for i in range(v):
            for j in range(i + 1, v):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        g = DistanceGraph(0, 0, list(range(v)), adj)
        want = naive(adj, v)
        assert max_clique(g).size == want, trial

    for n in range(2, 9):
        for m in (1, 2, 3):
            vals = {full_value(n, m), _solve_rooted(n, m, None), delta_value(n, m)}
            assert len(vals) == 1, (n, m, vals)
    elapsed = time.monotonic() - t0
    report(
        11,
        elapsed,
        "solver matches naive enumeration on 50 graphs, graph variants agree for n <= 8, m <= 3",
    )
