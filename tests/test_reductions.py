from collections import Counter

import pytest

from oracles import cartesian_compose, is_set_collinear, semi_general_upper
from ringpoints.cliquegraph import (
    DistanceGraph,
    _all_points,
    _integral_diff_table,
    _rooted_orbits,
    max_clique,
)
from ringpoints import reductions
from ringpoints.errors import InvalidInputError, NotApplicableError, SearchTimeout
from ringpoints.geometry import is_collinear, is_integral
from ringpoints.modring import factorize, squares
from ringpoints.reductions import (
    I_of,
    _hamming_table,
    _solve_rooted,
    best_construction,
    conjectured_I2,
    conjectured_I2_tag,
    even_reduction_graph,
    even_reduction_value,
    even_weight,
    hamming_I3_value,
    hamming_distance,
    ilig_set,
    lemma1_bound,
    lemma1_points,
    lemma2_bound,
    lemma2_points,
    verify_conjecture,
)


def assert_pairwise_integral(points, n):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            assert is_integral(points[i], points[j], n), (n, points[i], points[j])


def test_lemma1_points():
    pts, bound = lemma1_points(12)
    assert bound == 24 and len(pts) == 24
    pts, bound = lemma1_points(9)
    assert bound == 27 and len(pts) == 27
    pts, bound = lemma1_points(15)  # squarefree: a single full row
    assert bound == 15
    assert all(p[1] == 0 for p in pts)


def test_lemma1_integrality_rescan():
    for n in (4, 9, 12, 18, 25):
        pts, _ = lemma1_points(n)
        assert_pairwise_integral(pts, n)


def test_lemma2_points():
    pts, bound = lemma2_points(2)
    assert bound == 4 == I_of(2, 2)
    pts, bound = lemma2_points(6)
    assert bound == 12
    assert_pairwise_integral(pts, 6)
    pts, bound = lemma2_points(18)
    assert bound == 108
    with pytest.raises(NotApplicableError):
        lemma2_points(7)
    with pytest.raises(NotApplicableError):
        lemma2_points(12)


def test_conjectured_I2():
    assert conjectured_I2(12) == 24
    assert conjectured_I2(6) == 12  # the n = 2 mod 4 construction beats the grid
    assert conjectured_I2(25) == 125
    assert conjectured_I2(2) == 4
    for n in range(2, 40):
        # the larger construction, the grid on a tie
        options = [lemma1_points(n)] + ([lemma2_points(n)] if n % 4 == 2 else [])
        assert best_construction(n) == max(options, key=lambda c: c[1])
        assert best_construction(n)[1] == conjectured_I2(n)


def test_cartesian_compose():
    pa, _ = lemma1_points(4)
    pb, _ = lemma1_points(3)
    composed = cartesian_compose(pa, 4, pb, 3)
    assert len(composed) == len(pa) * len(pb)
    assert_pairwise_integral(composed, 12)
    with pytest.raises(InvalidInputError):
        cartesian_compose(pa, 4, pa, 4)


def test_multiplicativity_example():
    assert I_of(12, 2, use_cartesian=False) == I_of(4, 2) * I_of(3, 2) == 24


def test_non_multiplicativity_witnesses():
    assert I_of(2, 3) * I_of(4, 3) == 128
    assert I_of(8, 3) == 64  # product rule fails for non-coprime moduli
    assert I_of(9, 3) % I_of(3, 3) != 0  # divisibility fails too


def test_even_weight_definition():
    # canonical lifts: (1 - 3)^2 = 4 mod 8
    assert even_weight((1,), (3,), 8) == 4


def test_even_reduction_graph():
    g = even_reduction_graph(4, 2)
    # rooted at 0 in Z_2^2: (1, 1) has weight 2, not a square mod 4
    assert g.labels == [(0, 1), (1, 0)]
    assert even_reduction_value(4, 2) == 8
    with pytest.raises(InvalidInputError):
        even_reduction_graph(7, 2)


def test_even_reduction_graph_edges_match_weight():
    # odd half moduli 3 and 5 pin the shift argument: the weight moves by n
    # per wrapped coordinate, which keeps squareness mod 2n
    for two_n, m in ((6, 2), (10, 2), (12, 2), (8, 3)):
        g = even_reduction_graph(two_n, m)
        sq = squares(two_n).squares
        zero = (0,) * m
        for i in range(g.num_vertices):
            assert g.labels[i] != zero
            assert even_weight(g.labels[i], zero, two_n) in sq
            assert not (g.adj[i] >> i) & 1
            for j in range(i + 1, g.num_vertices):
                edge = (g.adj[i] >> j) & 1 == 1
                assert edge == (even_weight(g.labels[i], g.labels[j], two_n) in sq), (two_n, i, j)
                assert edge == ((g.adj[j] >> i) & 1 == 1)


def test_even_reduction_matches_direct():
    for two_n in (2, 4, 6, 8):
        for m in (1, 2, 3):
            direct = _solve_rooted(two_n, m, None)
            assert even_reduction_value(two_n, m) == direct, (two_n, m)


def test_I4_sequence():
    want = [4, 8, 16, 32, 128, 256, 1024, 4096]
    for m, expected in enumerate(want, start=1):
        assert even_reduction_value(4, m) == expected


def hamming_graph(m):
    """Graph on all of Z_3^m, edges at Hamming distance not congruent 2 mod 3.

    Since 1^2 = 2^2 = 1 mod 3, squared distances count differing coordinates,
    and the squares mod 3 are {0, 1}; the maximum clique equals I(3, m).
    """
    points = _all_points(3, m)
    return DistanceGraph(3, m, points, table=_hamming_table(m))


def test_hamming_graph():
    g = hamming_graph(2)
    assert g.num_vertices == 9
    assert max_clique(g).size == 3
    for m in (2, 3, 4):
        g = hamming_graph(m)
        for i in range(g.num_vertices):
            for j in range(g.num_vertices):
                edge = (g.adj[i] >> j) & 1 == 1
                assert edge == (i != j and hamming_distance(g.labels[i], g.labels[j]) % 3 != 2)
    assert hamming_I3_value(2) == 3
    assert hamming_I3_value(4) == 9


def test_hamming_table_is_integral_table():
    for m in range(1, 7):
        assert _hamming_table(m) == _integral_diff_table(3, m), m


def test_hamming_matches_direct():
    for m in (2, 3, 4):
        assert hamming_I3_value(m) == _solve_rooted(3, m, None)


def test_hamming_weight_orbits():
    # the top-level branches of hamming_I3_value: one orbit per Hamming weight,
    # and one branch per orbit finds the clique of the unbranched search
    for m in (2, 3, 4, 5):
        zero = (0,) * m
        g = hamming_graph(m)
        keep = [i for i, p in enumerate(g.labels) if any(p) and (g.adj[0] >> i) & 1]
        points = [g.labels[i] for i in keep]
        orbits = _rooted_orbits(points, 3, 3)
        weights = [{hamming_distance(points[i], zero) for i in orbit} for orbit in orbits]
        assert all(len(w) == 1 for w in weights)
        assert len(weights) == len({min(w) for w in weights})
        rooted = DistanceGraph(3, m, points, table=_hamming_table(m))
        assert hamming_I3_value(m) == 1 + max_clique(rooted).size, m


def test_ilig_set():
    pts = ilig_set(13)
    assert len(pts) == 13
    assert_pairwise_integral(pts, 13)
    assert (0, 0) in pts and (1, 5) in pts and (1, 8) in pts  # omega(13) = 5
    assert not is_collinear((0, 0), (1, 5), (1, 8), 13)
    assert not is_set_collinear(pts, 13)
    with pytest.raises(NotApplicableError):
        ilig_set(7)
    with pytest.raises(InvalidInputError):
        ilig_set(15)


def test_ilig_non_collinear_witnesses():
    for p in (5, 13, 17):
        pts = ilig_set(p)
        assert len(pts) == p
        assert_pairwise_integral(pts, p)
        assert not is_set_collinear(pts, p)


def test_semi_general_upper():
    assert semi_general_upper(7) == 8
    assert semi_general_upper(9) == 11
    # prime-power bound at n = 4: 4 * (1 + 2^-2 + 2^-2) = 6
    assert semi_general_upper(4) == 6
    assert semi_general_upper(2) == 4
    with pytest.raises(InvalidInputError):
        semi_general_upper(1)


def test_lemma_bounds_leq_exact():
    for n in range(2, 20):
        exact = I_of(n, 2)
        assert lemma1_bound(n) <= exact
        if n % 4 == 2:
            assert lemma2_bound(n) <= exact


def test_multiplicativity_all_coprime_pairs_small():
    # I(ab, 2) = I(a, 2) * I(b, 2) with both sides computed independently
    for a in range(2, 20):
        for b in range(a + 1, 40):
            ab = a * b
            if ab > 24:
                continue
            from math import gcd

            if gcd(a, b) != 1:
                continue
            left = I_of(ab, 2, use_cartesian=False)
            assert left == I_of(a, 2) * I_of(b, 2), (a, b)


def test_bound_report_brackets_exact():
    for n in (6, 12, 16, 17):
        lower, tag = conjectured_I2_tag(n)
        assert lower <= I_of(n, 2) <= n * n
        assert tag in ("lemma1", "lemma2")
    from ringpoints.orderly import max_cardinality

    for n in (7, 9, 11):
        assert 2 <= max_cardinality(n, "semi-general") <= semi_general_upper(n)


def test_verify_conjecture_small():
    report = verify_conjecture(30)
    assert report.all_tight
    assert not report.unverified
    entry = next(e for e in report.entries if e.n == 16)
    assert entry.exact == 64 and entry.conjectured == 64
    entry = next(e for e in report.entries if e.n == 17)
    assert entry.exact == 17 and entry.conjectured == 17


def test_verify_conjecture_searches_each_factor_once(monkeypatch):
    searched = Counter()
    search = reductions._factor_value

    def counting(q, m, deadline):
        searched[q] += 1
        return search(q, m, deadline)

    monkeypatch.setattr(reductions, "_factor_value", counting)
    report = verify_conjecture(30)
    factors = {p**r for n in range(2, 31) for p, r in factorize(n)}
    assert {q: c for q, c in searched.items() if q != 2} == {q: 1 for q in factors - {2}}
    monkeypatch.undo()
    fresh = [I_of(e.n, 2) for e in report.entries]
    assert [e.exact for e in report.entries] == fresh


def test_verify_conjecture_keeps_no_timed_out_factor(monkeypatch):
    # the first search of 5 times out: n = 5 reads unverified, and n = 10
    # searches 5 again instead of reusing a bound
    search = reductions._factor_value
    calls = []

    def flaky(q, m, deadline):
        calls.append(q)
        if q == 5 and calls.count(5) == 1:
            raise SearchTimeout("factor search hit budget", 3)
        return search(q, m, deadline)

    monkeypatch.setattr(reductions, "_factor_value", flaky)
    report = verify_conjecture(10)
    entries = {e.n: e for e in report.entries}
    assert report.unverified == [5]
    assert calls.count(5) == 2
    assert entries[10].exact == 20 and entries[10].tight
