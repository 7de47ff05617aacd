"""Distance-graph construction and an exact maximum-clique solver.

Cliques of the distance graph are exactly the integral point sets, so the
maximum cardinality I(n, m) reduces to maximum clique.  Integrality of u, v
depends only on u - v, so every distance graph is a Cayley graph of Z_k^m
restricted to a vertex set: one connection table over the k^m difference
vectors, indexed by ``point_index``, decides every pair.  A graph keeps its
vertex list and that table, and builds adjacency rows only when asked, for
the subgraph induced on a given vertex order: each row is one slice of the
table, laid out by ``geometry.diff_layout`` and read by one
``geometry.bit_reader`` in C (``_cayley_rows``), the layer ``orderly``
reads its tables through too.  The graph variants
differ only in vertex set and table: the full graph on all of Z_n^m and the
graph rooted at 0 (one point fixed by translation symmetry) use the integral
table by default.  The rooted builder also takes the table of the
even-modulus weight graph and of the Z_3^m Hamming graph.

The solver is branch and bound over bitset candidate sets with greedy-coloring
upper bounds (``_color_order``, shared with ``orderly``), vertices preordered
by descending degree.  Adjacency rows are Python ints used as bit vectors,
which keeps the inner loops in C.  Graphs rooted at 0 are searched with orbit
branching: unit scalings, coordinate permutations, sign changes and the
rotations (x, y) -> (ax - by, bx + ay) with a^2 + b^2 = 1 modulo the quadratic
form's modulus fix 0 and keep the graph, so the top level tries one vertex
per orbit of the group they generate, closed over generating sets of the
units and of the rotations.  Those maps are automorphisms, so degree is
constant on an orbit: the degree order costs one row per orbit, and each
orbit's branch builds only the rows of its representative's neighbours.  The
warm start grows the known construction seed, reading only the rows it touches.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress
from math import gcd

from .errors import InvalidInputError, ResourceLimitError, SearchTimeout
from .geometry import Point, bit_reader, diff_layout, point_code
from .modring import squares

DEFAULT_MAX_VERTICES = 1 << 17
BUDGET_POLL = 64  # search nodes between two reads of the clock against a deadline
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # a '0'/'1' string as the bytes 0/1, for compress


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


class DistanceGraph:
    """Vertex labels plus symmetric bit-vector adjacency, given or built on demand.

    An explicit graph is given its rows as ``adj``.  A Cayley graph of Z_n^m
    (``table`` given instead) keeps only its labels and its connection table
    over the differences, and builds rows when asked: ``gatherer(order)``
    reads the rows of the subgraph induced on a vertex order, gathered from
    the table by ``_cayley_rows`` or permuted from ``adj`` by
    ``_permuted_rows``.  ``adj`` itself is materialised from the table the
    first time it is read (export and tests read it; searches do not).
    """

    def __init__(self, n: int, m: int, labels: list, adj: list[int] | None = None, table: list[bool] | None = None):
        if (adj is None) == (table is None):
            raise InvalidInputError("a graph is given either its rows or its connection table")
        self.n = n
        self.m = m
        self.labels = labels
        self._adj = adj
        self._table = table
        self._coder = None  # the Cayley gather's encoding, made on first use

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def adj(self) -> list[int]:
        if self._adj is None:
            everyone = range(self.num_vertices)
            row = self.gatherer(everyone)
            self._adj = [row(i) for i in everyone]
        return self._adj

    def gatherer(self, order) -> Callable[[int], int]:
        """``row(i)``: the adjacency of vertex i among ``order``, bit j for order[j].

        Bit j is set iff i ~ order[j] and i != order[j], so the rows of the
        vertices of ``order`` are those of the subgraph it induces, in that
        order, without loops.  Making the gatherer costs one pass over
        ``order``; each row is then a few C calls.
        """
        order = list(order)
        if not order:
            return lambda i: 0
        if self._table is None:
            return _permuted_rows(self._adj, order)
        if self._coder is None:
            self._coder = _cayley_coder(self.labels, self.n, self._table)
        return _cayley_rows(self._coder, order)


@dataclass
class CliqueResult:
    size: int
    witness: list
    nodes_explored: int
    rows_built: int = 0  # adjacency rows the search built or permuted, set-up included


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


def _cayley_coder(points: list[Point], k: int, table: list[bool]) -> tuple[str, int, list[int]]:
    """(rev, offset, codes): the table string ``_cayley_rows`` gathers rows from.

    ``codes`` are the ``point_code`` of the points.  ``rev`` is the table
    over the codes -offset..offset of ``diff_layout``, as a '0'/'1' string
    reversed: rev[offset - d] for the code d, with no loop at d = 0.
    """
    bits = ["1" if ok else "0" for ok in table]
    bits[0] = "0"  # no loops
    text = "".join(diff_layout(bits, k, len(points[0])))
    offset = len(text) // 2
    return text[offset::-1] + text[:offset:-1], offset, [point_code(p, k) for p in points]


def _cayley_rows(coder: tuple[str, int, list[int]], order: list[int]) -> Callable[[int], int]:
    """Row gatherer over the vertex order ``order`` of a Cayley graph (see ``DistanceGraph.gatherer``).

    Row u is one slice of ``rev`` starting at offset - c_u, read at the codes
    of ``order`` by one ``bit_reader`` built once per order: bit j is the
    entry for code(u) - code(order[j]).
    """
    rev, offset, codes = coder
    read = bit_reader([codes[j] for j in order])
    return lambda i: read(rev[offset - codes[i] :])


def _permuted_rows(adj: list[int], order: list[int]) -> Callable[[int], int]:
    """Row gatherer over ``order`` of an explicit graph (see ``DistanceGraph.gatherer``).

    Row i is ``adj[i]`` with bit j moved to the position of j in ``order``, by
    one ``bit_reader`` over the row's '0'/'1' string, whose character -1 - j
    is bit j; the identity order only clears the loop.
    """
    v = len(adj)
    if order == list(range(v)):
        return lambda i: adj[i] & ~(1 << i)
    read = bit_reader([-1 - j for j in order])
    width = f"0{v}b"
    pos = {j: new for new, j in enumerate(order)}

    def row(i: int) -> int:
        r = read(format(adj[i], width))
        return r & ~(1 << pos[i]) if i in pos else r

    return row


def build_full(n: int, m: int) -> DistanceGraph:
    """Graph on all points of Z_n^m, edges between integral-distance pairs."""
    _check_budget_vertices(n**m)
    return DistanceGraph(n, m, _all_points(n, m), table=_integral_diff_table(n, m))


def build_rooted(n: int, m: int, table: list[bool] | None = None) -> DistanceGraph:
    """Cayley graph of Z_n^m on the neighbours of 0, excluding 0 itself.

    ``table`` is the connection table over the differences (indexed by
    ``point_index``), by default integrality.  By translation symmetry 0 can
    be assumed to belong to a maximum clique of the full Cayley graph, so its
    clique number is 1 + max clique of this graph.  Only the vertex list is
    built here; rows are built when a search or ``adj`` reads them.
    """
    _check_budget_vertices(n**m)
    ok = _integral_diff_table(n, m) if table is None else table
    zero = (0,) * m
    points = [p for p, good in zip(_all_points(n, m), ok) if good and p != zero]
    return DistanceGraph(n, m, points, table=ok)


def _greedy_clique(adj, v: int, seed: list[int] | None = None) -> list[int]:
    """Deterministic greedy warm start: the ``seed`` clique grown into a maximal one.

    ``adj`` is indexable by vertex: a list of rows, or rows built when first
    read; a vertex's own bit is ignored.  Only the rows of the seed and of its
    common neighbours are read.  ``max_clique`` passes its verified
    ``initial`` clique as the seed, so the incumbent is never below the known
    clique, and a seed that is already maximal costs only its own rows.  The
    default seed is vertex 0, which is a vertex of highest degree in the
    degree order ``max_clique`` searches.
    """
    clique = list(seed) if seed else [0]
    cand = (1 << v) - 1
    for s in clique:
        cand &= adj[s] & ~(1 << s)
    while cand:  # add the candidate with most candidate neighbours
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
    return clique


class _RowCache(dict):
    """``self[j]`` is ``gather(order[j])``, built when first read."""

    def __init__(self, gather: Callable[[int], int], order: list[int]):
        super().__init__()
        self.gather = gather
        self.order = order

    def __missing__(self, j: int) -> int:
        row = self[j] = self.gather(self.order[j])
        return row


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

    Vertices are searched in descending degree order ``perm`` (ties by
    index), which makes the greedy colorings stronger.  ``initial`` may carry
    a known clique (as vertex labels); it is verified, then grown by
    ``_greedy_clique`` into the first incumbent (without one, the first
    vertex of ``perm`` is grown).  ``orbits`` may partition the
    vertex indices into the orbits of a group of automorphisms of the graph;
    the top level then branches on one representative per orbit, largest
    orbit first.  A clique meets some first orbit O in that order, and an
    automorphism moves it onto O's representative while keeping it off the
    earlier orbits, so each branch drops those orbits.

    The search builds only the rows it reads.  An automorphism keeps degrees,
    so degree is constant on an orbit and one row per orbit gives every
    vertex's degree.  Each orbit's branch searches the subgraph induced on
    its representative's neighbours among the orbits not yet dropped, built
    after the orbit's poll in ``perm`` order; the relative order of its
    vertices is the one the whole relabelled graph gives them, so the
    colorings and every branch are those of a search over all rows.  Without
    ``orbits`` every row is built, in ``perm`` order.  ``rows_built`` counts
    the rows built (or permuted, for an explicit graph) for the call.

    Past the ``deadline`` of ``deadline_after``, read at each orbit and every
    ``BUDGET_POLL`` nodes, ``SearchTimeout`` carries the incumbent's size and
    labels.  A vertex's own bit in its adjacency row is ignored.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    v = g.num_vertices
    if v == 0:
        return CliqueResult(0, [], 0, 0)

    everyone = range(v)
    natural = g.gatherer(everyone)
    if orbits is None:
        degs = [natural(i).bit_count() for i in everyone]
        rows_built = v
    else:
        degs = [0] * v
        for orbit in orbits:
            d = natural(min(orbit)).bit_count()
            for i in orbit:
                degs[i] = d
        rows_built = len(orbits)
    perm = sorted(everyone, key=lambda i: (-degs[i], i))
    inv = [0] * v
    for new, old in enumerate(perm):
        inv[old] = new
    row = _RowCache(g.gatherer(perm), perm)  # row[j]: perm[j]'s row, bit k for perm[k]

    seed: list[int] = []
    if initial:
        label_pos = {label: i for i, label in enumerate(g.labels)}
        seed = [inv[label_pos[x]] for x in initial if x in label_pos]
        pairs = ((a, b) for i, a in enumerate(seed) for b in seed[i + 1 :])
        if len(seed) < len(initial) or not all((row[a] >> b) & 1 for a, b in pairs):
            raise InvalidInputError("initial clique has a label not in the graph or is not pairwise adjacent")
    # the incumbent and the search stack hold vertex indices of g
    best = [perm[j] for j in _greedy_clique(row, v, seed)]
    best_size = len(best)
    nodes = 0
    adj: list[int] = []  # rows of the subgraph being searched, bit k for names[k]
    names: list[int] = perm

    def poll() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout("clique search hit budget", best_size, tuple(g.labels[i] for i in best))

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
                rstack.append(names[u])
                _expand(rstack, sub)
                rstack.pop()
            elif rlen + 1 > best_size:
                best = rstack + [names[u]]
                best_size = len(best)

    if orbits is None:
        adj = [row[j] for j in everyone]
        _expand([], (1 << v) - 1)
    else:
        remaining = (1 << v) - 1
        for orbit in sorted(orbits, key=len, reverse=True):
            poll()
            members = [inv[i] for i in orbit]
            rep = min(members)
            sub = remaining & row[rep]
            if sub:
                # the neighbours left, in perm order: bit j of sub is perm[j]
                names = list(compress(perm, format(sub, f"0{v}b").encode()[::-1].translate(_BIT_BYTES)))
                gather = g.gatherer(names)
                adj = [gather(i) for i in names]
                rows_built += len(names)
                _expand([perm[rep]], (1 << len(names)) - 1)
            elif best_size < 1:
                best, best_size = [perm[rep]], 1
            for i in members:
                remaining &= ~(1 << i)
    del _expand  # it refers to itself: free the searched rows now, not at the next collection
    return CliqueResult(best_size, [g.labels[i] for i in best], nodes, rows_built + len(row))


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
