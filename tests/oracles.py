"""Independent I(n, m) computations that the tests compare the library against.

The library computes every exact I(n, m) through one rooted, orbit-branched
search.  Two other graph formulations give the same clique number and serve
here as cross-checks: the full distance graph on all of Z_n^m, and the family
of graphs with a fixed anchor edge class (two points fixed).  The orbits that
search branches on are checked against orbits closed under every unit scaling
and every rotation of the first two coordinates.  Collinearity of a whole set
is tested against the cyclic lines through 0, enumerated from their
directions.  The orderly search's
candidate graph around a triangle is checked against the per-edge walk that
computes one bisector mask per tested pair and one triangle key per witness
pair by a search over orderings and relabelings.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import gcd

from ringpoints.cliquegraph import (
    DistanceGraph,
    _all_points,
    _integral_diff_table,
    build_full,
    max_clique,
)
from ringpoints.geometry import delta, is_integral_delta, line_table, point_index
from ringpoints.orderly import _point_bisector, _shift, edge_classes, matrix_key
from ringpoints.reductions import _solve_rooted


@lru_cache(maxsize=None)
def _lines_through_origin(n: int) -> frozenset:
    """The cyclic lines {t w : t in Z_n} of Z_n^2, one set of points each."""
    return frozenset(
        frozenset((t * wx % n, t * wy % n) for t in range(n)) for wx in range(n) for wy in range(n)
    )


def is_set_collinear(points, n: int) -> bool:
    """True iff all points lie on one common cyclic line {p + t w} (any cardinality)."""
    if len(points) <= 2:
        return True
    x0, y0 = points[0]
    diffs = {((x - x0) % n, (y - y0) % n) for x, y in points}
    return any(diffs <= line for line in _lines_through_origin(n))


def full_value(n, m):
    """I(n, m) as the clique number of the full distance graph."""
    return max_clique(build_full(n, m)).size


def delta_classes(n: int, m: int) -> list[tuple[int, ...]]:
    """The nonzero integral Lee-reduced difference vectors of Z_n^m, lexicographic."""
    half = n // 2
    vecs = [()]
    for _ in range(m):
        vecs = [v + (c,) for v in vecs for c in range(half + 1)]
    return [v for v in vecs if any(v) and is_integral_delta(v, n)]


def build_delta_family(n: int, m: int) -> list[tuple[tuple[int, ...], int, DistanceGraph]]:
    """One (anchor e_i, class rank i, graph) per edge class, edges restricted to classes >= i.

    A maximum integral point set of size >= 2 can be translated and reflected
    so that it contains 0 and the Lee-reduced witness of its minimal-numbered
    edge class, hence I(n, m) = 2 + max over the family of the maximum clique.

    Classes are numbered ascending by the number of common integral neighbors
    of the anchor pair (ties lexicographic), which keeps the graphs with the
    most permissive edge condition small.
    """
    ok = _integral_diff_table(n, m)
    zero = (0,) * m
    classes = delta_classes(n, m)
    if not classes:
        return []
    points = [p for p, good in zip(_all_points(n, m), ok) if good and p != zero]
    # the integral points other than e at integral distance to e, in rooted order
    common = {
        e: [p for p in points if p != e and ok[point_index(tuple(a - b for a, b in zip(p, e)), n)]]
        for e in classes
    }

    classes.sort(key=lambda e: (len(common[e]), e))
    # rank[point_index(d)]: number of the class of the Lee-reduced d, -1 if not integral
    class_index = {e: i for i, e in enumerate(classes)}
    rank = [class_index.get(delta(d, zero, n), -1) for d in _all_points(n, m)]

    family = []
    for i, e in enumerate(classes):
        verts = common[e]
        family.append((e, i, DistanceGraph(n, m, verts, table=[r >= i for r in rank])))
    return family


def delta_value(n, m):
    """I(n, m) as 2 + the largest clique over the anchor-edge family."""
    family = build_delta_family(n, m)
    if not family:
        return _solve_rooted(n, m, None)
    return max(2 + max_clique(g).size for _, _, g in family)


def all_units_orbits(points, n, form_modulus):
    """Orbits of the rooted group on ``points``, closed under every group element.

    The generators are one sign change, a cyclic shift, a transposition, one
    scaling per unit u in 2..n-1 and, for m >= 2, one rotation (x, y) ->
    (ax - by, bx + ay) of the first two coordinates per pair (a, b) mod
    ``form_modulus`` with a^2 + b^2 = 1 there; each orbit is listed breadth
    first from its lowest index, and the orbits in the order of their lowest
    indices.
    """
    q = form_modulus
    gens = [lambda p: ((n - p[0]) % n,) + p[1:], lambda p: p[1:] + p[:1], lambda p: p[1::-1] + p[2:]]
    gens += [lambda p, u=u: tuple(u * c % n for c in p) for u in range(2, n) if gcd(u, n) == 1]
    if points and len(points[0]) > 1:
        gens += [
            lambda p, a=a, b=b: ((a * p[0] - b * p[1]) % n, (b * p[0] + a * p[1]) % n) + p[2:]
            for a in range(q)
            for b in range(q)
            if (a * a + b * b) % q == 1
        ]
    index = {p: i for i, p in enumerate(points)}
    seen = [False] * len(points)
    orbits = []
    for i in range(len(points)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:
            for gen in gens:
                k = index[gen(points[j])]
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        orbits.append(orbit)
    return orbits


# The key of a triangle under each ordering of its points, as positions in
# its edge classes (x, y, z) of the edges 01, 02 and 12.
_EDGES = ((None, 0, 1), (0, None, 2), (1, 2, None))
_ORDERED_KEYS = tuple(
    matrix_key(tuple(tuple(_EDGES[i][j] for j in order) for i in order)) for order in permutations(range(3))
)


def triangle_key(x, y, z, table):
    """The largest ``matrix_key`` of the triangle with edge classes x (points
    0, 1), y (0, 2) and z (1, 2) over the six orderings of its points, each
    under the identity and every relabeling of ``table``."""
    edges = (x, y, z)
    return max(
        (s[edges[a]], s[edges[b]], s[edges[c]])
        for s in (range(len(table.classes)), *table.relabelings)
        for a, b, c in _ORDERED_KEYS
    )


def orderly_seed_graph(witness, key, allowed, n, mode):
    """Candidates around a triangle and their adjacency rows, by a per-edge walk.

    Returns (points, spans, pairs, adj) with ``spans`` and ``pairs`` in
    absolute coordinates (empty outside general mode).  Unless ``key`` is
    None, a candidate goes when it spans a triangle with two witness points
    whose ``triangle_key`` exceeds ``key``.  Every bisector mask comes from
    its own ``_point_bisector`` call; each pair i < j of candidates is tested
    once and its edge set in both rows.
    """
    rows = line_table(n).pair_rows
    table = edge_classes(n)
    filtered = mode in ("semi-general", "general")
    circles = mode == "general"
    cand = allowed
    for wx, wy in witness:
        cand &= _shift(allowed, wx, wy, n)
    if filtered:
        for a, (ax, ay) in enumerate(witness):
            for bx, by in witness[a + 1 :]:
                cand &= ~_shift(rows[((bx - ax) % n) * n + (by - ay) % n], ax, ay, n)

    def cls(p, q):
        return table.class_of_diff[((q[0] - p[0]) % n) * n + (q[1] - p[1]) % n]

    points, spans, pairs = [], [], []
    for pos in range(n * n):
        if not (cand >> pos) & 1:
            continue
        p = divmod(pos, n)
        if key is not None and any(
            triangle_key(cls(a, b), cls(a, p), cls(b, p), table) > key for a, b in combinations(witness, 2)
        ):
            continue
        if circles:
            b1, b2, b3 = (_point_bisector(p, w, n) for w in witness)
            if b1 & b2 & b3:
                continue
            spans.append(b1 | b2 | b3)
            pairs.append((b1 & b2) | (b1 & b3) | (b2 & b3))
        points.append(p)

    index_at = {x * n + y: i for i, (x, y) in enumerate(points)}
    occupied = sum(1 << pos for pos in index_at)
    adj = [0] * len(points)
    for i, p in enumerate(points):
        px, py = p
        row = _shift(allowed, px, py, n) & occupied & -(2 << (px * n + py))
        if filtered:  # drop the lines through p and a witness point
            through = 0
            for wx, wy in witness:
                through |= rows[((wx - px) % n) * n + (wy - py) % n]
            row &= ~_shift(through, px, py, n)
        while row:
            low = row & -row
            row ^= low
            j = index_at[low.bit_length() - 1]
            if circles and _point_bisector(p, points[j], n) & pairs[i]:
                continue
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return points, spans, pairs, adj
