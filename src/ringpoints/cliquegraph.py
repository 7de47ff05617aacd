"""Distance-graph construction and an exact maximum-clique solver.

Cliques of the distance graph are exactly the integral point sets, so the
maximum cardinality I(n, m) reduces to maximum clique.  Integrality of u, v
depends only on u - v, so every distance graph is a Cayley graph of Z_k^m
restricted to a vertex set: one connection table over the k^m difference
vectors, indexed by ``point_index``, decides every pair, and a single builder
turns (vertex list, k, table) into bit-vector adjacency, each row one slice of
the table read by one ``itemgetter`` in C.  The graph variants differ only in
vertex set and table: the full graph on all of Z_n^m and the graph rooted at 0
(one point fixed by translation symmetry) use the integral table by default.
The rooted builder also takes the table of the even-modulus weight graph and
of the Z_3^m Hamming graph.

The solver is branch and bound over bitset candidate sets with greedy-coloring
upper bounds (``_color_order``, shared with ``orderly``), vertices preordered
by descending degree; the relabelling permutes each row's '0'/'1' string with
one ``itemgetter``, or only clears the loops when that order is the identity.
Adjacency rows are Python ints used as bit vectors, which keeps the inner loops
in C.  Graphs rooted at 0 are searched with orbit branching: unit scalings,
coordinate permutations, sign changes and the rotations (x, y) -> (ax - by,
bx + ay) with a^2 + b^2 = 1 modulo the quadratic form's modulus fix 0 and keep
the graph, so the top level tries one vertex per orbit of the group they
generate, closed over generating sets of the units and of the rotations.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from math import gcd
from operator import itemgetter

from .errors import InvalidInputError, ResourceLimitError, SearchTimeout
from .geometry import Point
from .modring import squares

DEFAULT_MAX_VERTICES = 1 << 17
BUDGET_POLL = 64  # search nodes between two reads of the clock against a deadline


def deadline_after(budget: float | None) -> float | None:
    """The ``time.monotonic()`` instant ``budget`` seconds from now; None for no budget.

    Every public call that takes a budget starts with this, so set-up counts
    as search does.  A NaN deadline would never pass: NaN is rejected.
    """
    if budget is None:
        return None
    if not budget >= 0:
        raise InvalidInputError(f"budget must be a non-negative number of seconds, got {budget}")
    return time.monotonic() + budget


@dataclass
class DistanceGraph:
    """Vertex labels plus symmetric bit-vector adjacency."""

    n: int
    m: int
    labels: list
    adj: list[int]

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


@dataclass
class CliqueResult:
    size: int
    witness: list
    nodes_explored: int


def _check_budget_vertices(v: int) -> None:
    if v > DEFAULT_MAX_VERTICES:
        raise ResourceLimitError(f"graph on {v} vertices exceeds limit {DEFAULT_MAX_VERTICES}")


def _all_points(n: int, m: int) -> list[Point]:
    pts = [()]
    for _ in range(m):
        pts = [p + (c,) for p in pts for c in range(n)]
    return pts


def _integral_diff_table(n: int, m: int) -> list[bool]:
    """ok[point_index(u - v)] == is_integral(u, v); one entry per difference vector."""
    sq = squares(n).squares
    return [sum(c * c for c in p) % n in sq for p in _all_points(n, m)]


def _cayley_adjacency(points: list[Point], k: int, table: list[bool]) -> list[int]:
    """Adjacency of the graph on ``points`` with u ~ v iff table[point_index(u - v, k)].

    Every graph here is a Cayley graph of Z_k^m restricted to a vertex set, so
    one connection table over the differences decides every pair.  Each point
    is encoded once as sum p_i * (2k - 1)^(m-1-i); the integer difference of
    two encodings then indexes a table over the digit range -(k-1)..k-1 with
    one subtraction.  The table is stored reversed as '0'/'1' bytes, so row u
    is one slice starting at offset - c_u, read at every code c_w by a single
    ``itemgetter`` built once per graph: a row costs a few C calls.
    """
    if len(points) < 2:
        return [0] * len(points)  # no loops; itemgetter of one index returns no tuple
    m = len(points[0])
    base = 2 * k - 1
    residues = [0]
    for _ in range(m):
        residues = [r * k + d % k for r in residues for d in range(k - 1, -k, -1)]
    rev = bytearray(49 if table[r] else 48 for r in residues)  # rev[offset - d]: difference d
    offset = len(rev) // 2
    rev[offset] = 48  # no loops
    codes = []
    for p in points:
        code = 0
        for c in p:
            code = code * base + c
        codes.append(code)
    pick = itemgetter(*codes[::-1])  # int(..., 2) reads the highest bit first
    return [int(bytes(pick(rev[offset - code :])), 2) for code in codes]


def build_full(n: int, m: int) -> DistanceGraph:
    """Graph on all points of Z_n^m, edges between integral-distance pairs."""
    _check_budget_vertices(n**m)
    points = _all_points(n, m)
    ok = _integral_diff_table(n, m)
    return DistanceGraph(n, m, points, _cayley_adjacency(points, n, ok))


def build_rooted(n: int, m: int, table: list[bool] | None = None) -> DistanceGraph:
    """Cayley graph of Z_n^m on the neighbours of 0, excluding 0 itself.

    ``table`` is the connection table over the differences (indexed by
    ``point_index``), by default integrality.  By translation symmetry 0 can
    be assumed to belong to a maximum clique of the full Cayley graph, so its
    clique number is 1 + max clique of this graph.
    """
    _check_budget_vertices(n**m)
    ok = _integral_diff_table(n, m) if table is None else table
    zero = (0,) * m
    points = [p for p, good in zip(_all_points(n, m), ok) if good and p != zero]
    return DistanceGraph(n, m, points, _cayley_adjacency(points, n, ok))


def _greedy_clique(adj: list[int], v: int) -> list[int]:
    """Deterministic greedy warm start: grow from each of the best-degree vertices."""
    if v == 0:
        return []
    degs = [adj[i].bit_count() for i in range(v)]
    starts = sorted(range(v), key=lambda i: -degs[i])[:8]
    best: list[int] = []
    for s in starts:
        clique = [s]
        cand = adj[s] & ~(1 << s)
        while cand:
            # highest-degree candidate
            bestv, bestd = -1, -1
            q = cand
            while q:
                b = q & -q
                u = b.bit_length() - 1
                q ^= b
                d = (cand & adj[u]).bit_count()
                if d > bestd:
                    bestv, bestd = u, d
            clique.append(bestv)
            cand &= adj[bestv] & ~(1 << bestv)  # a self-loop must not keep bestv
        if len(clique) > len(best):
            best = clique
    return best


def _color_order(cand: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the bitset ``cand``: vertices in coloring order, their colors.

    Each class takes the lowest uncolored vertex, then the next lowest ones not
    adjacent to the class.  A clique among the first i + 1 vertices has at most
    ``colors[i]`` of them, so both exact engines branch from the end.
    """
    order: list[int] = []
    colors: list[int] = []
    color = 0
    while cand:
        color += 1
        free = cand
        while free:
            low = free & -free
            v = low.bit_length() - 1
            order.append(v)
            colors.append(color)
            cand ^= low
            free = (free ^ low) & ~adj[v]
    return order, colors


def max_clique(
    g: DistanceGraph,
    deadline: float | None = None,
    initial: list | None = None,
    orbits: list[list[int]] | None = None,
) -> CliqueResult:
    """Exact maximum clique of the graph.

    ``initial`` may carry a known clique (as vertex labels) to seed the
    incumbent; it is verified before use.  ``orbits`` may partition the vertex
    indices into the orbits of a group of automorphisms of the graph; the top
    level then branches on one representative per orbit, largest orbit first.
    A clique meets some first orbit O in that order, and an automorphism moves
    it onto O's representative while keeping it off the earlier orbits, so
    each branch drops those orbits.  Past the ``deadline`` of
    ``deadline_after``, read at each orbit and every ``BUDGET_POLL`` nodes,
    ``SearchTimeout`` carries the incumbent's size and labels.  A vertex's
    own bit in its adjacency row is ignored: the relabelled copy clears it,
    so self-loops cannot stall the greedy warm start.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    v = g.num_vertices
    if v == 0:
        return CliqueResult(0, [], 0)

    # relabel by descending degree for stronger greedy colorings: new row j
    # reads old bit perm[j], permuted in C by one itemgetter over the row's
    # '0'/'1' string, whose character -1 - i is bit i; an identity order only
    # clears the loops.  Plain loops keep the relabel in max_clique's own time.
    perm = sorted(range(v), key=lambda i: (-g.adj[i].bit_count(), i))
    inv = [0] * v
    for new, old in enumerate(perm):
        inv[old] = new
    adj = []
    if perm == list(range(v)):  # also every one-vertex graph
        for new, row in enumerate(g.adj):
            adj.append(row & ~(1 << new))
    else:  # at least two vertices, so itemgetter returns a tuple
        pick = itemgetter(*map((-1).__sub__, reversed(perm)))
        for new, old in enumerate(perm):
            adj.append(int(bytes(pick(format(g.adj[old], f"0{v}b").encode())), 2) & ~(1 << new))

    best: list[int] = []
    if initial:
        label_pos = {label: i for i, label in enumerate(g.labels)}
        best = [inv[label_pos[x]] for x in initial if x in label_pos]
        pairs = ((a, b) for i, a in enumerate(best) for b in best[i + 1 :])
        if len(best) < len(initial) or not all((adj[a] >> b) & 1 for a, b in pairs):
            raise InvalidInputError("initial clique has a label not in the graph or is not pairwise adjacent")
    best = max(best, _greedy_clique(adj, v), key=len)  # the first on a tie
    best_size = len(best)
    nodes = 0

    def poll() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout("clique search hit budget", best_size, tuple(g.labels[perm[i]] for i in best))

    def _expand(rstack: list[int], p: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes % BUDGET_POLL == 0:
            poll()
        order, colors = _color_order(p, adj)
        cur = p
        rlen = len(rstack)
        for i in range(len(order) - 1, -1, -1):
            if rlen + colors[i] <= best_size:
                return
            u = order[i]
            cur ^= 1 << u
            sub = cur & adj[u]
            if sub:
                rstack.append(u)
                _expand(rstack, sub)
                rstack.pop()
            elif rlen + 1 > best_size:
                best = rstack + [u]
                best_size = len(best)

    if orbits is None:
        _expand([], (1 << v) - 1)
    else:
        remaining = (1 << v) - 1
        for orbit in sorted(orbits, key=len, reverse=True):
            poll()
            members = [inv[i] for i in orbit]
            rep = min(members)
            sub = remaining & adj[rep]
            if sub:
                _expand([rep], sub)
            elif best_size < 1:
                best, best_size = [rep], 1
            for i in members:
                remaining &= ~(1 << i)
    del _expand  # it refers to itself: free the relabelled rows now, not at the next collection
    return CliqueResult(best_size, [g.labels[perm[i]] for i in best], nodes)


def _grow(group: set, g, mul) -> bool:
    """Grow the abelian group ``group`` by g in place; False if g already lies in it."""
    if g in group:
        return False
    coset = {mul(h, g) for h in group}
    while not coset <= group:  # add the cosets H g^k until g^k lies in H
        group |= coset
        coset = {mul(h, g) for h in coset}
    return True


def _rooted_orbits(points: list[Point], n: int, form_modulus: int) -> list[list[int]]:
    """Orbits of the maps of Z_n^m fixing 0 that keep the graph, as index lists.

    ``form_modulus`` is the modulus q of the quadratic form x_1^2 + ... + x_m^2
    that decides adjacency: n for integrality, 3 for the Hamming graph of Z_3^m
    and 2n for the even weight graph over Z_n.  Unit scalings multiply the form
    by a unit square, coordinate permutations and sign changes keep it, and so
    does a rotation (x, y) -> (ax - by, bx + ay) of the first two coordinates
    with a^2 + b^2 = 1 mod q, since (ax - by)^2 + (bx + ay)^2 = (a^2 + b^2)(x^2
    + y^2); the group they generate acts on every graph rooted at 0 here.  A
    rotation with a^2 + b^2 = 1 only mod n is no automorphism of the even
    weight graph, so q has no default.  Orbits are closed under one sign
    change, a cyclic shift, a transposition and generating sets of the unit
    group and of the rotations, which together generate it: a unit or rotation
    joins the set only when those of its kind taken so far do not generate it.
    """
    gens = [lambda p: ((n - p[0]) % n,) + p[1:], lambda p: p[1:] + p[:1], lambda p: p[1::-1] + p[2:]]
    units, times = {1}, lambda h, u: h * u % n
    for u in range(2, n):
        if gcd(u, n) == 1 and _grow(units, u, times):
            gens.append(lambda p, u=u: tuple(u * c % n for c in p))
    if points and len(points[0]) > 1:
        q = form_modulus
        turns = {(1, 0)}  # rotations (a, b) mod q, composed as (a + bi)(c + di)
        compose = lambda h, g: ((h[0] * g[0] - h[1] * g[1]) % q, (h[0] * g[1] + h[1] * g[0]) % q)
        for a in range(q):
            for b in range(q):
                if (a * a + b * b) % q == 1 and _grow(turns, (a, b), compose):
                    gens.append(lambda p, a=a, b=b: ((a * p[0] - b * p[1]) % n, (b * p[0] + a * p[1]) % n) + p[2:])
    index = {p: i for i, p in enumerate(points)}
    seen = [False] * len(points)
    orbits = []
    for i in range(len(points)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:  # the list grows while it is walked
            for gen in gens:
                k = index[gen(points[j])]
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        orbits.append(orbit)
    return orbits
