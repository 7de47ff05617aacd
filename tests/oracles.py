"""Independent I(n, m) computations that the tests compare the library against.

The library computes every exact I(n, m) through one rooted, orbit-branched
search.  Two other graph formulations give the same clique number and serve
here as cross-checks: the full distance graph on all of Z_n^m, and the family
of graphs with a fixed anchor edge class (two points fixed).  The orbits that
search branches on are checked against orbits closed under every unit scaling
and every rotation of the first two coordinates, and the orderly search's
seeds against the orbits of triangles under the same maps and translations,
joined by union-find.  Collinearity of a whole set
is tested against the cyclic lines through 0, enumerated from their
directions.  The orderly search's
candidate graph around a triangle is checked against the per-edge walk that
computes one bisector mask per tested pair and one triangle key per witness
pair by a search over orderings and relabelings.  The CRT product of point
sets over coprime moduli and the best known semi-general upper bound are
computed here too, for the tests that bracket the library's values.
"""

from fractions import Fraction
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
from ringpoints.errors import InvalidInputError
from ringpoints.geometry import Point, delta, is_integral_delta, line_table, point_index
from ringpoints.modring import factorize, is_prime
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


def cartesian_compose(points_a: list[Point], a: int, points_b: list[Point], b: int) -> list[Point]:
    """CRT product of integral point sets over Z_a^2 and Z_b^2, for coprime a, b.

    The result has |P_a| * |P_b| points over Z_ab^2 and is pairwise integral;
    the multiplicativity fails for non-coprime moduli, so those are rejected.
    """
    if gcd(a, b) != 1:
        raise InvalidInputError(f"moduli {a} and {b} are not coprime")
    ab = a * b
    inv_a_mod_b = pow(a, -1, b) if b > 1 else 0
    inv_b_mod_a = pow(b, -1, a) if a > 1 else 0

    def crt(xa: int, xb: int) -> int:
        return (xa * b * inv_b_mod_a + xb * a * inv_a_mod_b) % ab

    return sorted(
        tuple(crt(ca, cb) for ca, cb in zip(pa, pb)) for pa in points_a for pb in points_b
    )


def semi_general_upper(n: int) -> int:
    """Best known upper bound for the no-3-collinear maximum over Z_n^2.

    Minimum of the row-partition bound 2n, the projective bound p + 1 for odd
    primes, and the prime-power bound n(1 + p^-ceil((a+1)/2) + p^-a) for each
    p^a exactly dividing n, floored to an integer.
    """
    if n < 2:
        raise InvalidInputError("upper bound defined for n >= 2")
    bounds = [2 * n]
    if n % 2 == 1 and is_prime(n):
        bounds.append(n + 1)
    for p, a in factorize(n):
        val = n * (1 + Fraction(1, p ** ((a + 2) // 2)) + Fraction(1, p**a))
        bounds.append(int(val))  # Fraction floors via int() for positive values
    return min(bounds)


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


def _generators(elements, mul, one):
    """A subset of ``elements`` that generates the same group under ``mul``:
    an element joins when those taken so far do not generate it."""
    group, gens = {one}, []
    for g in elements:
        if g not in group:
            gens.append(g)
            while True:
                grown = group | {mul(h, x) for h in group for x in gens}
                if grown == group:
                    break
                group = grown
    return gens


def triangle_orbit_count(n: int) -> int:
    """The number of orbits of the integral non-collinear triangles of Z_n^2
    under translations, sign changes, the swap, unit scalings and rotations
    (x, y) -> (ax - by, bx + ay) with a^2 + b^2 = 1, by union-find.

    A triangle is stored as {0, p, q}, points as row-major indices x*n + y,
    once per point moved to 0; the maps joined are a generating set of the
    linear group and the move by -p to {0, -p, q - p}, which links the
    three stored copies of one triangle.
    """
    n2 = n * n
    integral = [d != 0 and is_integral_delta(divmod(d, n), n) for d in range(n2)]
    points = [d for d in range(n2) if integral[d]]
    on_line = [0] * n2  # the points on a cyclic line through 0 and d
    for line in _lines_through_origin(n):
        mask = sum(1 << (x * n + y) for x, y in line)
        for x, y in line:
            on_line[x * n + y] |= mask
    units = _generators([u for u in range(2, n) if gcd(u, n) == 1], lambda h, u: h * u % n, 1)
    turns = _generators(
        [(a, b) for a in range(n) for b in range(n) if (a * a + b * b) % n == 1],
        lambda h, g: ((h[0] * g[0] - h[1] * g[1]) % n, (h[0] * g[1] + h[1] * g[0]) % n),
        (1, 0),
    )
    linear = [(-1, 0, 0, 1), (0, 1, 1, 0), *((u, 0, 0, u) for u in units), *((a, -b, b, a) for a, b in turns)]
    maps = [[((a * x + b * y) % n) * n + (c * x + e * y) % n for x in range(n) for y in range(n)] for a, b, c, e in linear]

    def sub(q, p):
        return ((q // n - p // n) % n) * n + (q - p) % n

    nodes = {}
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if integral[sub(q, p)] and not on_line[p] >> q & 1:
                nodes[p * n2 + q] = len(nodes)
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for code, i in nodes.items():
        p, q = divmod(code, n2)
        root = find(i)
        images = [(m[p], m[q]) for m in maps]
        images.append((sub(0, p), sub(q, p)))
        for a, b in images:
            j = find(nodes[a * n2 + b if a < b else b * n2 + a])
            if j != root:
                parent[j] = root
    return sum(1 for i, up in enumerate(parent) if up == i)


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
