import os
import random
import subprocess
import sys
import time
from math import gcd
from types import SimpleNamespace

import pytest

from oracles import all_units_orbits, build_delta_family, delta_classes, delta_value
import ringpoints
from ringpoints.cliquegraph import (
    DistanceGraph,
    build_full,
    build_rooted,
    max_clique,
    _all_points,
    _color_order,
    _greedy_clique,
    _integral_diff_table,
    _rooted_orbits,
)
from ringpoints.errors import InvalidInputError, ResourceLimitError, SearchTimeout
from ringpoints.geometry import delta, is_integral, point_index
from ringpoints.orderly import max_cardinality_witness
from ringpoints.reductions import (
    I_of,
    _hamming_table,
    _rooted_seed,
    _solve_rooted,
    even_reduction_graph,
    verify_conjecture,
)


def complete_graph(v):
    full = (1 << v) - 1
    adj = [(full ^ (1 << i)) for i in range(v)]
    return DistanceGraph(0, 0, list(range(v)), adj)


def test_max_clique_trivial():
    assert max_clique(complete_graph(8)).size == 8
    edgeless = DistanceGraph(0, 0, list(range(5)), [0] * 5)
    assert max_clique(edgeless).size == 1
    empty = DistanceGraph(0, 0, [], [])
    assert max_clique(empty).size == 0


def naive_max_clique(adj, v):
    best = [0]

    def rec(size, cand):
        if size > best[0]:
            best[0] = size
        while cand:
            b = cand & -cand
            u = b.bit_length() - 1
            cand ^= b
            if size + 1 + cand.bit_count() <= best[0]:
                return
            rec(size + 1, cand & adj[u])

    rec(0, (1 << v) - 1)
    return best[0]


def random_graph(rng, v, p):
    adj = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return DistanceGraph(0, 0, list(range(v)), adj)


def induced_subgraph(g, keep):
    pos = {old: new for new, old in enumerate(keep)}
    adj = [sum(1 << pos[j] for j in keep if (g.adj[i] >> j) & 1) for i in keep]
    return DistanceGraph(g.n, g.m, [g.labels[i] for i in keep], adj)


def test_solver_against_naive_oracle():
    rng = random.Random(12345)
    graphs = []
    for _ in range(50):
        v = rng.randint(5, 40)
        graphs.append(random_graph(rng, v, rng.uniform(0.2, 0.8)))
    # induced subgraphs of Cayley graphs: dense, regular neighbourhoods, where
    # a greedy-coloring bound is most likely to cut off a maximum clique
    for n, m in ((9, 2), (25, 2), (5, 3), (3, 4)):
        g = build_rooted(n, m)
        for _ in range(5):
            size = min(40, g.num_vertices, rng.randint(5, 40))
            graphs.append(induced_subgraph(g, sorted(rng.sample(range(g.num_vertices), size))))
    for g in graphs:
        v = g.num_vertices
        res = max_clique(g)
        assert res.size == naive_max_clique(g.adj, v)
        # singleton orbits (the trivial group) branch on every vertex in turn
        assert max_clique(g, orbits=[[i] for i in range(v)]).size == res.size
        # every row's own bit set (a self-loop per vertex) changes nothing
        looped = DistanceGraph(0, 0, g.labels, [row | 1 << i for i, row in enumerate(g.adj)])
        assert max_clique(looped).size == res.size
        # witness is a clique of the reported size
        idx = [g.labels.index(x) for x in res.witness]
        assert len(idx) == res.size
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                assert (g.adj[idx[a]] >> idx[b]) & 1


def test_color_order_is_a_greedy_coloring():
    rng = random.Random(777)
    for _ in range(200):
        v = rng.randint(1, 40)
        adj = random_graph(rng, v, rng.uniform(0.1, 0.9)).adj
        cand = rng.getrandbits(v)
        order, colors = _color_order(cand, adj)
        assert sorted(order) == [i for i in range(v) if (cand >> i) & 1]
        assert len(colors) == len(order)
        for k in range(1, len(order)):
            assert colors[k - 1] <= colors[k]
            if colors[k - 1] == colors[k]:
                assert order[k - 1] < order[k]
        classes = {}
        for u, c in zip(order, colors):
            classes.setdefault(c, []).append(u)
        for c, members in classes.items():
            for a in members:
                assert not any((adj[a] >> b) & 1 for b in members)
                # greedy: a was left out of every earlier class for a neighbour there
                assert all(any((adj[a] >> b) & 1 for b in classes[e]) for e in range(1, c))


def test_tiny_graphs():
    # one and two vertices: the relabelling and the builder read a single
    # index there, where itemgetter returns an item instead of a tuple
    for row in (0, 1):  # without and with a self-loop
        g = DistanceGraph(0, 0, ["a"], [row])
        for orbits in (None, [[0]]):
            res = max_clique(g, orbits=orbits)
            assert (res.size, res.witness) == (1, ["a"])
        assert max_clique(g, initial=["a"]).size == 1
    for edge in (0, 1):
        g = DistanceGraph(0, 0, ["a", "b"], [edge << 1, edge])
        for orbits in (None, [[0], [1]], [[0, 1]]):
            res = max_clique(g, orbits=orbits)
            assert res.size == 1 + edge
            assert len(res.witness) == len(set(res.witness)) == res.size
            assert set(res.witness) <= {"a", "b"}


def test_greedy_clique_ends_on_self_loops():
    # rows with their own bit set: the warm start drops each vertex it picks,
    # so a stray loop neither stalls it nor repeats a vertex.  It runs in a
    # child with a timeout, so a regression fails here instead of hanging.
    cases = (([1], [0]), ([0b11, 0b11], [0, 1]), ([0b111, 0b011, 0b101], [0, 1]))
    src = os.path.dirname(os.path.dirname(ringpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "from ringpoints.cliquegraph import _greedy_clique; "
        f"print([_greedy_clique(adj, len(adj)) for adj, _ in {cases!r}])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == repr([clique for _, clique in cases])
    # the last rows without their loops give the same clique
    assert _greedy_clique([0b110, 0b001, 0b001], 3) == [0, 1]


def _is_clique(adj, idx):
    return all((adj[a] >> b) & 1 for i, a in enumerate(idx) for b in idx[i + 1 :])


def test_greedy_clique_grows_the_seed():
    # a seed clique grows into a maximal clique that starts with the seed,
    # reading only the rows of the seed and of its common neighbours
    rng = random.Random(2024)
    for _ in range(200):
        v = rng.randint(1, 40)
        adj = random_graph(rng, v, rng.uniform(0.2, 0.9)).adj
        seed, cand = [], (1 << v) - 1
        for _ in range(rng.randint(1, 4)):
            if not cand:
                break
            u = rng.choice([i for i in range(v) if (cand >> i) & 1])
            seed.append(u)
            cand &= adj[u]
        reads = set()

        class Recording(dict):
            def __missing__(self, i):
                reads.add(i)
                return adj[i]

        clique = _greedy_clique(Recording(), v, list(seed))
        assert clique[: len(seed)] == seed
        assert len(set(clique)) == len(clique) and _is_clique(adj, clique)
        common = (1 << v) - 1
        for u in clique:
            common &= adj[u]
        assert common == 0, "some vertex extends the clique: not maximal"
        allowed = (1 << v) - 1
        for u in seed:
            allowed &= adj[u]
        assert all(i in seed or (allowed >> i) & 1 for i in reads)


def _random_rooted_graph(rng):
    """(graph, the same graph with explicit rows, form modulus) of a random rooted table."""
    kind = rng.choice(("integral", "even", "hamming"))
    if kind == "integral":
        n, m = rng.choice([(n, 2) for n in range(2, 18)] + [(n, 3) for n in range(2, 7)] + [(3, 4), (4, 4)])
        build, q = lambda: build_rooted(n, m), n
    elif kind == "even":
        two_n, m = rng.choice([(t, 2) for t in range(4, 34, 2)] + [(t, 3) for t in range(4, 14, 2)] + [(4, 4)])
        build, q = lambda: even_reduction_graph(two_n, m), two_n
    else:
        m = rng.randint(1, 5)
        build, q = lambda: build_rooted(3, m, _hamming_table(m)), 3
    g, fresh = build(), build()
    return g, DistanceGraph(fresh.n, fresh.m, fresh.labels, fresh.adj), q


def test_rows_on_demand_match_explicit_rows():
    # a rooted graph whose rows are built on demand from its table searches
    # exactly as the same graph given its rows: same size, same nodes, same
    # witness, with or without orbits and a seed
    rng = random.Random(31337)
    for trial in range(100):
        g, explicit, q = _random_rooted_graph(rng)
        orbits = _rooted_orbits(g.labels, g.n, q) if rng.random() < 0.75 else None
        initial = _rooted_seed(q, g.n, g.m) if rng.random() < 0.75 else None
        got = max_clique(g, initial=initial, orbits=orbits)
        want = max_clique(explicit, initial=initial, orbits=orbits)
        assert (got.size, got.nodes_explored, got.witness) == (want.size, want.nodes_explored, want.witness), trial
        idx = [g.labels.index(x) for x in got.witness]
        assert len(set(idx)) == got.size and _is_clique(explicit.adj, idx)
        assert g.adj == explicit.adj  # materialised on read, equal to the rows given


def test_sweep_builds_fewer_rows_than_vertices(monkeypatch):
    # conjecture-sweep's verify_conjecture(47): each top-level orbit builds
    # the rows of its representative's neighbours only
    searched = []

    def recording(g, *args):
        res = max_clique(g, *args)
        searched.append((g.num_vertices, res.rows_built))
        return res

    monkeypatch.setattr(ringpoints.reductions, "max_clique", recording)
    assert verify_conjecture(47).all_tight
    assert len(searched) == 60
    assert sum(rows for _, rows in searched) == 5410
    assert sum(rows for _, rows in searched) < sum(v for v, _ in searched) == 7567


def test_one_vertex_rooted_graphs():
    # a rooted graph over Z_k^m holds every axis point c * e_i, c != 0 (its
    # squared norm c^2 is a square), so only m = 1, k = 2 leaves one vertex:
    # n = 2, and n = 4 for the even weight graph over Z_2; scanned up to n^m = 1024
    found = []
    for n in range(1, 33):
        for m in range(1, 6):
            if n**m > 1024:
                continue
            graphs = [("rooted", build_rooted(n, m))]
            if n % 2 == 0:
                graphs.append(("even", even_reduction_graph(n, m)))
            for kind, g in graphs:  # the form modulus is n for both
                if g.num_vertices != 1:
                    continue
                found.append((kind, n, m))
                assert g.adj == [0]
                res = max_clique(g, orbits=_rooted_orbits(g.labels, g.n, n))
                assert (res.size, res.witness) == (1, g.labels)
    assert found == [("rooted", 2, 1), ("even", 4, 1)]
    assert I_of(2, 1) == 2 and I_of(4, 1) == 4


def pairwise_adjacency(points, k, table):
    """Row i's bit j is table[point_index(points[i] - points[j])], pair by pair, no loops."""
    return [
        sum(
            1 << j
            for j, w in enumerate(points)
            if j != i and table[point_index(tuple(a - b for a, b in zip(u, w)), k)]
        )
        for i, u in enumerate(points)
    ]


def test_cayley_adjacency_matches_pairwise_oracle():
    rng = random.Random(4096)
    for k in range(2, 8):
        for m in range(1, 4):
            points = _all_points(k, m)
            negated = [point_index(tuple(-c for c in d), k) for d in points]
            loose = [rng.random() < 0.5 for _ in points]  # asymmetric in general
            tables = [
                _integral_diff_table(k, m),
                [loose[min(i, negated[i])] for i in range(len(points))],  # symmetric
                loose,
                [True] * len(points),
                [False] * len(points),
            ]
            cap = min(len(points), 40)
            vertex_lists = [[], rng.sample(points, 1), rng.sample(points, 2)]
            vertex_lists += [rng.sample(points, rng.randint(0, cap)) for _ in range(3)]
            vertex_lists.append(sorted(rng.sample(points, cap)))
            for table in tables:
                for verts in vertex_lists:
                    assert DistanceGraph(k, m, verts, table=table).adj == pairwise_adjacency(verts, k, table), (k, m, verts)


def test_initial_clique_must_be_valid():
    g = random_graph(random.Random(1), 12, 0.3)
    # find a non-edge
    bad = None
    for i in range(12):
        for j in range(i + 1, 12):
            if not (g.adj[i] >> j) & 1:
                bad = [i, j]
                break
        if bad:
            break
    # a pair that is no clique, and a label the graph does not have
    for initial in (bad, [0, 12]):
        with pytest.raises(InvalidInputError):
            max_clique(g, initial=initial)


def test_budget_returns_incumbent():
    rng = random.Random(99)
    g = random_graph(rng, 120, 0.9)
    # a deadline already passed ends the search at its first poll, with the
    # incumbent as a clique of the size it reports
    with pytest.raises(SearchTimeout) as exc_info:
        max_clique(g, deadline=time.monotonic() - 1)
    exc = exc_info.value
    idx = [g.labels.index(x) for x in exc.witness]
    assert len(set(idx)) == len(idx) == exc.lower_bound >= 1
    assert all((g.adj[a] >> b) & 1 for i, a in enumerate(idx) for b in idx[i + 1 :])
    # a generous deadline finishes, at least as large
    assert max_clique(g, deadline=time.monotonic() + 300).size >= exc.lower_bound


def test_budget_must_be_a_duration():
    # NaN never compares past a deadline, so it would never expire
    for bad in (float("nan"), -1.0):
        with pytest.raises(InvalidInputError):
            I_of(3, 6, budget=bad)
    assert I_of(3, 2, budget=float("inf")) == 3


def test_build_full_examples():
    g = build_full(2, 2)
    assert g.num_vertices == 4
    assert g.num_edges == 6  # complete graph on Z_2^2
    g = build_full(3, 2)
    assert g.num_vertices == 9
    assert max_clique(g).size == 3
    g = build_full(1, 3)
    assert g.num_vertices == 1 and g.num_edges == 0
    # a graph is given its rows or its connection table, exactly one of them
    for rows, table in ((None, None), ([0], [True])):
        with pytest.raises(InvalidInputError):
            DistanceGraph(1, 1, [(0,)], rows, table)


def test_build_full_budget():
    with pytest.raises(ResourceLimitError):
        build_full(100, 3)
    with pytest.raises(ResourceLimitError):
        build_rooted(100, 3)


def test_build_rooted_examples():
    assert 1 + max_clique(build_rooted(3, 2)).size == 3
    assert 1 + max_clique(build_rooted(2, 4)).size == 16
    assert 1 + max_clique(build_rooted(5, 2)).size == 5


def test_graph_edges_match_is_integral():
    for n, m in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3), (3, 4)):
        g = build_full(n, m)
        for i in range(g.num_vertices):
            for j in range(i + 1, g.num_vertices):
                edge = (g.adj[i] >> j) & 1 == 1
                assert edge == is_integral(g.labels[i], g.labels[j], n)


def test_delta_classes():
    assert delta_classes(3, 2) == [(0, 1), (1, 0)]
    assert delta_classes(2, 2) == [(0, 1), (1, 0), (1, 1)]


def test_delta_family_consistency():
    for n in range(3, 9):
        assert delta_value(n, 2) == _solve_rooted(n, 2, None)


def test_delta_family_structure():
    for n in (5, 6):
        family = build_delta_family(n, 2)
        assert family, f"Z_{n}^2 has integral classes"
        rank = {anchor: class_rank for anchor, class_rank, _ in family}
        for anchor, class_rank, g in family:
            for label in g.labels:
                assert is_integral(label, (0, 0), n)
                assert is_integral(label, anchor, n)
            for i, u in enumerate(g.labels):
                for j, w in enumerate(g.labels):
                    edge = (g.adj[i] >> j) & 1 == 1
                    assert edge == (rank.get(delta(u, w, n), -1) >= class_rank)


def test_I_of_closed_forms():
    assert I_of(1, 5) == 1
    assert I_of(9, 1) == 9
    assert I_of(2, 6) == 64
    for n in (1, 2, 3, 10):
        assert I_of(n, 1) == n


def test_I_of_table_small():
    assert I_of(9, 2) == 27
    assert I_of(4, 2) == 8
    assert I_of(8, 3) == 64
    assert I_of(13, 3) == 169


def test_I_of_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        I_of(0, 2)


def test_I_of_timeout_carries_bound():
    # the search for I(3, 6) takes seconds, far past the budget
    with pytest.raises(SearchTimeout) as exc_info:
        I_of(3, 6, budget=0.05)
    assert exc_info.value.lower_bound >= 1


def test_I_of_timeout_bound_spans_factors():
    # 159 = 3 * 53: the bound multiplies the finished factor and never falls
    # below the construction
    with pytest.raises(SearchTimeout) as exc_info:
        I_of(159, 2, budget=0.01)
    assert exc_info.value.lower_bound >= 159


def test_I_of_factors_share_the_budget(monkeypatch):
    # 15 = 3 * 5 under a fake clock where each factor's search takes 0.25 s:
    # the call's budget becomes one deadline, and both factors get it
    now = [0.0]
    deadlines = []

    def search(n, m, deadline):
        deadlines.append(deadline)
        now[0] += 0.25
        return n

    monkeypatch.setattr(ringpoints.cliquegraph, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(ringpoints.reductions, "_solve_rooted", search)
    assert I_of(15, 2, budget=1.0) == 15
    assert deadlines == [1.0, 1.0]
    deadlines.clear()
    assert I_of(15, 2) == 15
    assert deadlines == [None, None]


def test_set_up_counts_against_the_budget(monkeypatch):
    # under a fake clock, building the graph (clique) or the line table
    # (orderly) takes 2 s of a 1 s budget: each call ends at its first poll,
    # before any search node, with the bound of its seed
    now = [0.0]
    clock = SimpleNamespace(monotonic=lambda: now[0])
    monkeypatch.setattr(ringpoints.cliquegraph, "time", clock)
    monkeypatch.setattr(ringpoints.orderly, "time", clock)

    def slow(build):
        def wrapped(*args):
            now[0] += 2.0
            return build(*args)
        return wrapped

    monkeypatch.setattr(ringpoints.reductions, "build_rooted", slow(build_rooted))
    with pytest.raises(SearchTimeout) as exc_info:
        I_of(7, 3, budget=1.0)
    # the axis line {(u, 0, 0)} seeds I(7, 3) with 7 points; the maximum is 8
    assert exc_info.value.lower_bound == 7
    assert I_of(7, 3) == 8

    monkeypatch.setattr(ringpoints.geometry, "line_table", slow(ringpoints.geometry.line_table))
    with pytest.raises(SearchTimeout) as exc_info:
        max_cardinality_witness(13, "general", budget=1.0)
    assert exc_info.value.lower_bound == len(exc_info.value.witness) == 3


def test_even_divisibility():
    for n, m in ((2, 2), (4, 2), (6, 2), (8, 2), (4, 3), (8, 3), (10, 2), (12, 2)):
        assert I_of(n, m) % (2**m) == 0


def _is_automorphism(g, image):
    """True iff the vertex map ``image`` (a list of indices) keeps every adjacency row."""
    return all(
        g.adj[image[i]] == sum(1 << image[j] for j in range(g.num_vertices) if (g.adj[i] >> j) & 1)
        for i in range(g.num_vertices)
    )


def _rotation_image(g, a, b):
    index = {p: i for i, p in enumerate(g.labels)}
    n = g.n
    return [index[((a * p[0] - b * p[1]) % n, (b * p[0] + a * p[1]) % n) + p[2:]] for p in g.labels]


def test_rooted_orbits_are_automorphism_orbits():
    # (graph, modulus of its quadratic form): integral graphs, even weight
    # graphs over the half ring Z_{g.n}, and Hamming graphs of Z_3^m
    graphs = [(build_rooted(n, m), n) for n, m in ((5, 2), (9, 2), (12, 2), (13, 2), (4, 3), (3, 4))]
    graphs += [(even_reduction_graph(two_n, m), two_n) for two_n, m in ((8, 2), (12, 2), (24, 2), (6, 3), (16, 3))]
    graphs += [(build_rooted(3, m, _hamming_table(m)), 3) for m in (3, 4)]
    for g, q in graphs:
        n = g.n
        orbits = _rooted_orbits(g.labels, n, q)
        assert sorted(i for orbit in orbits for i in orbit) == list(range(g.num_vertices))
        index = {p: i for i, p in enumerate(g.labels)}
        # every unit scaling and every rotation of the first two coordinates
        # with a^2 + b^2 = 1 mod q is an automorphism and keeps each orbit
        images = [[index[tuple(u * c % n for c in p)] for p in g.labels] for u in range(1, n) if gcd(u, n) == 1]
        images += [_rotation_image(g, a, b) for a in range(q) for b in range(q) if (a * a + b * b) % q == 1]
        assert len(images) > 1
        for image in images:
            assert _is_automorphism(g, image), (n, q)
            for orbit in orbits:
                assert image[orbit[0]] in set(orbit)
        for orbit in orbits:
            members = set(orbit)
            first = g.labels[orbit[0]]
            # sign changes and coordinate permutations keep the orbit too
            assert index[tuple(reversed(first))] in members
            assert index[((n - first[0]) % n,) + first[1:]] in members


def test_rotation_mod_half_ring_breaks_even_graph():
    # over Z_4 the rotation (1, 2) has a^2 + b^2 = 5 = 1 mod 4 but not mod 8,
    # and it moves a vertex of the even weight graph of Z_8^2, a neighbour of
    # 0, off the neighbours of 0: no automorphism, so the form modulus is 8
    g = even_reduction_graph(8, 2)
    moved = {((x - 2 * y) % 4, (2 * x + y) % 4) for x, y in g.labels}
    assert not moved <= set(g.labels)
    assert all((a * a + b * b) % 8 != 1 for a in (1, 5) for b in (2, 6))


def _unit_group_is_cyclic(n):
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    return any(len({pow(u, k, n) for k in range(len(units))}) == len(units) for u in units)


def test_rooted_orbits_match_all_units_oracle():
    # generating sets of the unit group and of the rotations give the orbits
    # of every unit scaling and every rotation, found in the same order from
    # the same first members; the even weight graphs take their rotations mod 2n
    assert [n for n in (8, 16, 24, 32, 40) if _unit_group_is_cyclic(n)] == []
    cells = [(n, 2) for n in range(2, 49)] + [(n, 3) for n in range(2, 12)]
    for n, m in cells:
        zero = (0,) * m
        vertex_sets = [(build_rooted(n, m).labels, n)]
        if m == 2:
            vertex_sets.append(([p for p in _all_points(n, m) if p != zero], n))
            vertex_sets.append((even_reduction_graph(2 * n, m).labels, 2 * n))
        for points, q in vertex_sets:
            got, want = _rooted_orbits(points, n, q), all_units_orbits(points, n, q)
            assert [orbit[0] for orbit in got] == [orbit[0] for orbit in want], (n, m, q)
            assert [sorted(orbit) for orbit in got] == [sorted(orbit) for orbit in want], (n, m, q)


def test_orbit_branching_matches_plain_search():
    for n, m in ((5, 2), (7, 2), (9, 2), (13, 2), (15, 2), (3, 3), (5, 3), (7, 3), (3, 4)):
        g = build_rooted(n, m)
        res = max_clique(g, orbits=_rooted_orbits(g.labels, n, n))
        assert res.size == max_clique(g).size, (n, m)
        pts = list(res.witness) + [(0,) * m]
        assert len(set(pts)) == res.size + 1
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert is_integral(pts[i], pts[j], n)


def test_import_keeps_recursion_limit():
    # the solver raises the limit when it runs, not when the package is imported
    src = os.path.dirname(os.path.dirname(ringpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; before = sys.getrecursionlimit(); import ringpoints; print(before, sys.getrecursionlimit())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    before, after = out.stdout.split()
    assert before == after


def test_witness_pairwise_integral():
    for n, m in ((5, 2), (4, 3), (7, 2)):
        g = build_rooted(n, m)
        res = max_clique(g)
        pts = list(res.witness) + [(0,) * m]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert is_integral(pts[i], pts[j], n)
