"""Orderly generation of integral point sets over Z_n^2 under position filters.

Point sets are represented, up to translation and reflection, by the symmetric
matrix of edge-class indices: entry (i, j) is the position of the Lee-reduced
difference of points i and j in a fixed table of integral difference vectors.
Matrices are ordered by reading the strict upper triangle column by column
(column j top to bottom), so the order key of a matrix extends the key of the
matrix with its last point removed.  A matrix is canonical if no simultaneous
row/column permutation yields a larger key, and semi-canonical if no
permutation yields a larger key after dropping the last row and column.

The maximum is found by one engine: ``max_cardinality`` runs a clique
search with greedy-coloring bounds around each canonical triangle, which
reaches the published maxima at moduli where whole levels of matrices would
not fit in time or memory.  The triangles themselves need no permutation
search to be admitted: a triangle is semi-canonical iff its leading class is
at least the image of each of its classes under the identity and every
relabeling (``EdgeClassTable.tops``), and its second point is
pinned to the first point of its leading class's sphere.  A triangle's
search keeps only the sets whose every triangle keys at most its own
(orderly generation by canonical augmentation): the first three entries of a
canonical key are the largest canonical triangle key (``_triangle_key``)
over the set's triples, so a set holding a triple that keys higher leads
with a larger triangle, whose search ran earlier and covered a copy of it.
Circles are decided by the bisector masks of ``geometry``.

Around each triangle the filters run on bitmasks over Z_n^2 (bit x*n + y)
translated on the torus by ``_shift``: adjacency rows and the candidates on a
line through two of them are translated masks, read at the candidates by one
C gather, not scans of all n^2 points.  Each candidate is tested in its own
frame, translated by minus the candidate: ``seed_candidates`` decides its
lines with the witness points there, once per seed, and it keeps its circle
state there, so every bisector mask it needs is one entry of a table built
once per modulus (``_circle_tables``); in general mode its lines through the
chosen points stay in that frame too.  The search is bounded by the greedy
coloring of ``cliquegraph._color_order``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import itemgetter, or_
import time

from .cliquegraph import BUDGET_POLL, _color_order
from .errors import InvalidInputError, SearchTimeout
from .geometry import (
    DeltaVec,
    Point,
    _bisector_mask,
    is_collinear,
    is_integral_delta,
)

MODES = ("any", "semi-general", "general")

DeltaMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EdgeClassTable:
    """Numbered integral difference classes of Z_n^2, class 0 = (0, 0).

    ``spheres[i]`` lists the points of Z_n^2 whose Lee reduction is class i,
    i.e. the locus at that distance class around any fixed point.
    ``class_of_diff`` maps the row-major index x*n + y of a difference vector
    to its class, -1 for non-integral differences.

    ``relabelings`` are the permutations of the classes induced by the extra
    isometries of Z_n^2 beyond translation and componentwise negation: unit
    scalings (x, y) -> (ux, uy), which keep squared distances square because
    u^2 is one, and the coordinate swap.  They are used to coarsen the
    canonical form, which shrinks the generation lists without affecting the
    achievable maximum cardinalities; the identity is not among them.
    ``tops[c]`` is the largest image of class c under the identity and every
    relabeling, ``lifts[c]`` lists those that carry c there, and
    ``admissible[t]`` masks the differences whose class c > 0 has
    ``tops[c] <= t``.
    """

    n: int
    classes: tuple[DeltaVec, ...]
    index: dict[DeltaVec, int]
    spheres: tuple[tuple[Point, ...], ...]
    class_of_diff: tuple[int, ...]
    relabelings: tuple[tuple[int, ...], ...]
    tops: tuple[int, ...]
    lifts: tuple[tuple[tuple[int, ...], ...], ...]
    admissible: tuple[int, ...]


@lru_cache(maxsize=None)
def edge_classes(n: int) -> EdgeClassTable:
    from .modring import lee_weight

    half = n // 2
    vecs = [
        (a, b)
        for a in range(half + 1)
        for b in range(half + 1)
        if (a, b) != (0, 0) and is_integral_delta((a, b), n)
    ]
    classes = ((0, 0),) + tuple(sorted(vecs))
    index = {v: i for i, v in enumerate(classes)}
    spheres = []
    diff_cls = [-1] * (n * n)
    for i, v in enumerate(classes):
        pts = {(x % n, y % n) for x in (v[0], -v[0]) for y in (v[1], -v[1])}
        spheres.append(tuple(sorted(pts)))
        for x, y in pts:
            diff_cls[x * n + y] = i

    relabelings: set[tuple[int, ...]] = set()
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        for swap in (False, True):
            perm = []
            for a, b in classes:
                ua, ub = lee_weight(u * a, n), lee_weight(u * b, n)
                perm.append(index[(ub, ua) if swap else (ua, ub)])
            relabelings.add(tuple(perm))
    identity = tuple(range(len(classes)))
    perms = (identity, *sorted(relabelings - {identity}))
    tops = tuple(max(s[c] for s in perms) for c in identity)
    lifts = tuple(tuple(s for s in perms if s[c] == top) for c, top in enumerate(tops))
    masks = [0] * len(classes)
    for d, c in enumerate(diff_cls):
        if c > 0:
            masks[tops[c]] |= 1 << d
    return EdgeClassTable(
        n, classes, index, tuple(spheres), tuple(diff_cls), perms[1:], tops, lifts,
        tuple(accumulate(masks, or_)),
    )


def matrix_key(dm: DeltaMatrix) -> tuple[int, ...]:
    """Column-lexicographic read of the strict upper triangle."""
    r = len(dm)
    return tuple(dm[i][j] for j in range(1, r) for i in range(j))


def _ordering_exceeds(
    dm: DeltaMatrix, target: tuple[int, ...], length: int, relabel: tuple[int, ...] | None = None
) -> bool:
    """True iff some ordering of ``length`` of the r indices beats ``target``.

    The key is built column by column as indices are placed, so branches are
    pruned as soon as their column prefix drops below the target; a branch that
    rises above it decides immediately.  ``relabel`` optionally renames the
    entries before comparison (an edge-class permutation).
    """
    r = len(dm)
    used = [False] * r

    if relabel is None:
        rows = dm
    else:
        rows = tuple(tuple(relabel[e] for e in row) for row in dm)

    def rec(seq: list[int], pos: int) -> bool:
        k = len(seq)
        if k == length:
            return False
        for v in range(r):
            if used[v]:
                continue
            cmp = 0
            for i in range(k):
                e = rows[seq[i]][v]
                t = target[pos + i]
                if e != t:
                    cmp = 1 if e > t else -1
                    break
            if cmp > 0:
                return True
            if cmp == 0:
                used[v] = True
                seq.append(v)
                if rec(seq, pos + k):
                    return True
                seq.pop()
                used[v] = False
        return False

    return rec([], 0)


def is_canonical(dm: DeltaMatrix, relabelings: tuple[tuple[int, ...], ...] = ()) -> bool:
    """No simultaneous row/column permutation, alone or combined with one of
    the class ``relabelings``, yields a larger key."""
    target = matrix_key(dm)
    return not any(_ordering_exceeds(dm, target, len(dm), s) for s in (None, *relabelings))


@dataclass(frozen=True)
class PointSetRecord:
    """A distance-class matrix plus one coordinate realization."""

    matrix: DeltaMatrix
    witness: tuple[Point, ...]
    key: tuple[int, ...] = field(hash=False, compare=False, default=())
    canonical: bool = field(hash=False, compare=False, default=False)


def _make_record(
    matrix: DeltaMatrix, witness: tuple[Point, ...], relabelings: tuple[tuple[int, ...], ...]
) -> PointSetRecord:
    return PointSetRecord(matrix, witness, matrix_key(matrix), is_canonical(matrix, relabelings))


def _point_bisector(q: Point, w: Point, n: int) -> int:
    dx = (w[0] - q[0]) % n
    dy = (w[1] - q[1]) % n
    c = (w[0] * w[0] + w[1] * w[1] - q[0] * q[0] - q[1] * q[1]) % n
    return _bisector_mask(dx, dy, c, n)


def _triangle_key(
    x: int, y: int, z: int, tops: Sequence[int], lifts: Sequence[Sequence[tuple[int, ...]]], floor: int = 0
) -> tuple[int, ...]:
    """The canonical key of a triangle with edge classes x, y, z, in closed form.

    It is the largest ``matrix_key`` over the six orderings of the triangle's
    points and the identity and every relabeling s, i.e. the largest
    (s(f), max(s(g), s(h)), min(s(g), s(h))) over s and the leading edge f
    (others g, h).  Its first entry is the largest of the ``tops``, so only
    the edges f that reach it, and only their ``lifts``, can lead.  If that
    entry is below ``floor`` the key is cut to it alone, which still compares
    below every key that starts at ``floor``.
    """
    top = max(tops[x], tops[y], tops[z])
    if top < floor:
        return (top,)
    best = (top, 0, 0)
    for f, g, h in ((x, y, z), (y, z, x), (z, x, y)):
        if tops[f] == top:
            for s in lifts[f]:
                a, b = s[g], s[h]
                key = (top, a, b) if a > b else (top, b, a)
                if key > best:
                    best = key
    return best


def _reaching_relabelings(
    relabelings: tuple[tuple[int, ...], ...], key: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The ``relabelings`` that carry an entry of the triangle ``key`` to its leading entry."""
    c12, c13, c23 = key
    return tuple(s for s in relabelings if c12 in (s[c12], s[c13], s[c23]))


def seed_L3(n: int, mode: str = "any") -> list[PointSetRecord]:
    """All semi-canonical integral triangles over Z_n^2, each matrix once.

    Semi-canonicity of a triangle compares only its leading entry c12 with
    every entry under the identity and every relabeling, so (c12, c13, c23)
    is semi-canonical iff ``tops[c12] == c12``, ``tops[c13] <= c12`` and
    ``tops[c23] <= c12`` (``EdgeClassTable.tops``); no permutation is searched.
    The first point sits at the origin and the second at the first point of
    the sphere of c12: translations and the sign changes fixing 0, which are
    transitive on each sphere, carry every realization of a matrix there.
    Each matrix keeps the first realization met, in sphere order, before the
    collinearity filter; ``canonical`` comes from ``is_canonical``.

    ``is_canonical`` is given only the relabelings that can reach the
    leading class (``_reaching_relabelings``).  A relabeling s maps each
    entry e to s(e) <= ``tops[e]`` <= c12, so a relabeled ordering beats the
    key only if its first entry is c12, which needs an entry e with
    ``tops[e] == c12`` and s among ``lifts[e]``, i.e. s(e) == c12.  Every
    other relabeling keys below c12 under every ordering and cannot change
    the answer.
    """
    if mode not in MODES:
        raise InvalidInputError(f"unknown mode {mode!r}")
    table = edge_classes(n)
    if n < 2:
        return []
    tops = table.tops
    cls_of = table.class_of_diff
    spheres = table.spheres
    filtered = mode in ("semi-general", "general")
    out: list[PointSetRecord] = []
    for c12 in range(1, len(table.classes)):
        if tops[c12] != c12:
            continue
        p2 = spheres[c12][0]
        matrices: dict[DeltaMatrix, tuple[Point, Point, Point]] = {}
        for c13 in range(1, len(table.classes)):
            if tops[c13] > c12:
                continue
            for p3 in spheres[c13]:
                c23 = cls_of[((p3[0] - p2[0]) % n) * n + (p3[1] - p2[1]) % n]
                if c23 <= 0 or tops[c23] > c12:
                    continue
                matrix = ((0, c12, c13), (c12, 0, c23), (c13, c23, 0))
                matrices.setdefault(matrix, ((0, 0), p2, p3))
        for matrix, witness in matrices.items():
            if not (filtered and is_collinear(*witness, n)):
                reach = _reaching_relabelings(table.relabelings, matrix_key(matrix))
                out.append(_make_record(matrix, witness, reach))
    return sorted(out, key=lambda rec: rec.key)


@lru_cache(maxsize=None)
def _low_columns(k: int, n: int) -> int:
    """Bitmask of the points (a, b) of Z_n^2 with b < k; k = n gives all points."""
    return ((1 << k) - 1) * (((1 << n * n) - 1) // ((1 << n) - 1))


def _shift(mask: int, x: int, y: int, n: int) -> int:
    """Translate a bitmask over Z_n^2 (bit a*n + b for (a, b)) by (x, y), 0 <= x, y < n.

    Whole rows rotate by x*n bits, then each row rotates by y bits: the
    columns below n - y move up by y, the others wrap around to the bottom.
    """
    if x:
        mask = ((mask << x * n) | (mask >> (n - x) * n)) & _low_columns(n, n)
    if y:
        kept = mask & _low_columns(n - y, n)
        mask = (kept << y) | ((mask ^ kept) >> (n - y))
    return mask


def _code_layout(values: Sequence[int], n: int) -> tuple[int, ...]:
    """A table over the differences of Z_n^2 (row-major, x*n + y), laid out by code.

    The entry for the difference (dx, dy) mod n, |dx|, |dy| < n, sits at
    dx*(2n - 1) + dy.  The (2n - 1)^2 indices meet each position once,
    negative ones wrapping, so with code(p) = x*(2n - 1) + y the entry for
    q - p is at code(q) - code(p), one subtraction.
    """
    w = 2 * n - 1
    out = [0] * (w * w)
    for dx in range(1 - n, n):
        for dy in range(1 - n, n):
            out[dx * w + dy] = values[(dx % n) * n + dy % n]
    return tuple(out)


@lru_cache(maxsize=None)
def _circle_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bisector masks of 0 and each difference, and their inverse.

    ``origin_bis`` holds the bisector mask of 0 and each difference (the
    bits row-major, x*n + y), laid out by ``_code_layout``: the mask for
    q - p is ``origin_bis[code(q) - code(p)]``.  ``through_origin[z]`` is
    the mask of the differences d (row-major) whose bisector mask holds z,
    i.e. the circle about z through 0.  A centre p + z' sees p and q at one
    value iff 2 z'.(q - p) = |q - p|^2 (mod n), so every bisector mask is a
    translate of one of these: bisector(p, q) == ``_shift`` of the mask for
    q - p by p, for every n.  The same condition reads |z' - d|^2 = |z'|^2
    for d = q - p, so the circle about z is the sphere {e : |e|^2 = |z|^2}
    moved by z: one pass over Z_n^2 builds the n spheres, and each entry is
    one ``_shift``.
    """
    n2 = n * n
    base = [_point_bisector((0, 0), divmod(d, n), n) for d in range(n2)]
    spheres = [0] * n
    for d in range(n2):
        x, y = divmod(d, n)
        spheres[(x * x + y * y) % n] |= 1 << d
    through_origin = []
    for z in range(n2):
        x, y = divmod(z, n)
        through_origin.append(_shift(spheres[(x * x + y * y) % n], x, y, n))
    return _code_layout(base, n), tuple(through_origin)


def _gatherer(points: list[Point], n: int) -> Callable[[int], int]:
    """``gather(mask)``: bit i is the bit of the mask over Z_n^2 at ``points[i]``.

    ``format`` writes the highest bit first and ``int(..., 2)`` reads it
    first, so one ``itemgetter`` over the bit string picks the candidates from
    last to first, in C.  With one candidate it picks a one-character string
    instead of a tuple, which ``join`` reads the same.
    """
    n2 = n * n
    width = f"0{n2}b"
    pick = itemgetter(*[n2 - 1 - x * n - y for x, y in reversed(points)])
    return lambda mask: int("".join(pick(format(mask, width))), 2)


def seed_candidates(
    witness: tuple[Point, ...], key: tuple[int, ...], allowed: int, frame: tuple, n: int, best: int
) -> tuple[list[Point], list[int], list[int], list[int], Callable[[int], int]] | None:
    """The candidates around a triangle, in row-major order, and their graph.

    A candidate is at an admissible difference (``allowed``) from each
    witness point, and no triangle it spans with two witness points has a
    canonical key above the seed's ``key`` (``_triangle_key``).  ``frame =
    (tops, lifts, cls_at, bit_at, line_at, origin_bis)`` holds the class
    order of ``edge_classes`` and ``_code_layout`` tables of the class of
    each difference and, in the filtered modes, its bit, the
    cyclic lines through 0 and it and, in general mode, its bisector mask
    with 0; tables a mode does not filter by are empty.  Candidate p reads
    them in its own frame, at code(w) - code(p), and is on a line with
    witness points w and w' iff the line entry for w - p holds w' - p.  In
    general mode ``spans[i]`` and ``pairs[i]`` are the unions of the bisector
    masks of candidate i with the witness points and of their pairwise
    overlaps, in its frame; a candidate whose three masks share a centre is
    concyclic with the witness.

    Returns None if the candidates cannot beat ``best`` (at least 3), else
    (points, spans, pairs, adj, gather), ``gather = _gatherer(points, n)``.
    Row p of ``adj`` is, in p's frame, the admissible differences less its
    spokes (its lines through the witness) and, in general mode, the circles
    through 0 about each centre of ``pairs[p]`` (``through_origin``), shifted
    by p and gathered.  Both filters are symmetric in two candidates, so the
    rows are; ``allowed`` holds no zero difference, so no row has its own bit.
    """
    cand = allowed
    for wx, wy in witness:
        cand &= _shift(allowed, wx, wy, n)
    tops, lifts, cls_at, bit_at, line_at, origin_bis = frame
    k0, k1, k2 = key
    w = 2 * n - 1
    c1, c2, c3 = (x * w + y for x, y in witness)
    points: list[Point] = []
    spans: list[int] = []
    pairs: list[int] = []
    spokes: list[int] = []
    while cand:
        low = cand & -cand
        cand ^= low
        px, py = p = divmod(low.bit_length() - 1, n)
        cp = px * w + py
        line = 0
        if line_at:
            line = line_at[c1 - cp]
            if line & bit_at[c2 - cp]:
                continue
            line |= line_at[c2 - cp]
            if line & bit_at[c3 - cp]:
                continue
            line |= line_at[c3 - cp]
        a1, a2, a3 = cls_at[c1 - cp], cls_at[c2 - cp], cls_at[c3 - cp]
        if (
            _triangle_key(k0, a1, a2, tops, lifts, k0) > key
            or _triangle_key(k1, a1, a3, tops, lifts, k0) > key
            or _triangle_key(k2, a2, a3, tops, lifts, k0) > key
        ):
            continue
        if origin_bis:
            b1 = origin_bis[c1 - cp]
            b2 = origin_bis[c2 - cp]
            b3 = origin_bis[c3 - cp]
            if b1 & b2 & b3:
                continue
            spans.append(b1 | b2 | b3)
            pairs.append((b1 & b2) | (b1 & b3) | (b2 & b3))
        points.append(p)
        spokes.append(line)
    if 3 + len(points) <= best:
        return None
    gather = _gatherer(points, n)
    through_origin = _circle_tables(n)[1] if origin_bis else ()
    adj = []
    for i, (px, py) in enumerate(points):
        drop = spokes[i]
        centres = pairs[i] if pairs else 0
        while centres:
            low = centres & -centres
            centres ^= low
            drop |= through_origin[low.bit_length() - 1]
        adj.append(gather(_shift(allowed & ~drop, px, py, n)))
    return points, spans, pairs, adj, gather


def _dfs_max(n: int, mode: str, budget: float | None) -> tuple[int, tuple[Point, ...]]:
    """Exact maximum cardinality by a clique search around each canonical triangle.

    A canonical matrix leads with a canonical triangle, and realizations of
    one matrix differ by isometries that keep the position predicates, so a
    copy of every set of three or more points extends the witness of a
    ``seed_L3`` record.  The leading entry ``key[0]`` of a canonical matrix
    is its largest entry under every relabeling, so the copy only uses
    admissible classes: ``tops[c] <= key[0]``, where ``tops[c]`` is the
    largest image of c under the identity and every relabeling; the table
    holds their differences as ``admissible[key[0]]``.  Each
    record's witness stands for all realizations of its triangle: with the
    first two points fixed, the third points realizing one matrix lie in one
    orbit of the sign changes fixing both, which keep the position predicates.

    The copy only uses candidates whose triangles with two witness points
    key at most the seed's ``key``: the first three entries of a matrix key
    are the key of its first three points, so those of a canonical key are
    the largest key of a triple under any ordering and relabeling, the
    largest canonical triangle key over the set's triples
    (``_triangle_key``).  A set holding a triple that keys above ``key``
    thus leads with a larger canonical triangle, whose seed ran earlier and
    already searched a copy of the set; a triple that keys equal is kept.
    The admissible classes are this rule for one edge, and
    ``seed_candidates`` applies it to each triangle of a candidate with two
    witness points.

    ``seed_candidates`` is the whole per-seed set-up: the candidates are the
    points at admissible distances from the witness that pass the position
    filters and the triangle keys with it, two adjacent when their distance
    is admissible and they pass the filters with the witness.  The extra
    points form a clique, bounded by the greedy coloring of
    ``cliquegraph._color_order``; lines through two chosen points, and in
    general mode circles through three, drop candidates as points are
    chosen.  Seeds run in descending key order, as large leading classes
    admit the most candidates and give a large incumbent early.  A budget
    expiry raises ``SearchTimeout`` carrying the incumbent size and points.

    The filters work on bitmasks over Z_n^2 moved by ``_shift`` and read at
    the candidates by one gather.  One ``frame`` of class and
    ``_code_layout`` tables decides the witness constraints in each
    candidate's own frame; its line tables are built per call from the line
    table the call reads.  In semi-general mode the points on a line
    through candidates u and v are ``pair_rows[v - u]`` translated by u,
    filled into ``lines`` on first use.  In general mode each candidate keeps
    its line and circle state in its own frame, and ``descend`` visits every
    candidate at each branch for the circles anyway, so both tests are
    lookups at ``codes[v] - codes[p]`` in tables laid out by
    ``_code_layout``: the bisector of candidate p and a new point v is
    ``origin_bis[codes[v] - codes[p]]`` of ``_circle_tables``, and
    ``_point_bisector`` runs only to fill that table, n^2 times per modulus.
    """
    from .geometry import line_table

    start = time.monotonic()
    table = edge_classes(n)
    rows = line_table(n).pair_rows
    filtered = mode in ("semi-general", "general")
    circles = mode == "general"
    w = 2 * n - 1
    bit_at = line_at = origin_bis = ()
    if filtered:  # built per call, from the line table this call reads
        bit_at = _code_layout([1 << d for d in range(n * n)], n)
        line_at = _code_layout(rows, n)
        origin_bis = _circle_tables(n)[0] if circles else ()
    cls_at = _code_layout(table.class_of_diff, n)
    frame = (table.tops, table.lifts, cls_at, bit_at, line_at, origin_bis)
    seeds = [rec for rec in seed_L3(n, mode) if rec.canonical]
    best = 3 if seeds else 0
    best_witness: tuple[Point, ...] = seeds[-1].witness if seeds else ()
    nodes = 0

    def check_budget() -> None:
        if budget is not None and time.monotonic() - start > budget:
            raise SearchTimeout(f"generation for n={n} mode={mode} hit budget", best, best_witness)

    for rec in reversed(seeds):
        check_budget()
        witness = rec.witness
        found = seed_candidates(witness, rec.key, table.admissible[rec.key[0]], frame, n, best)
        if found is None:
            continue
        points, spans, pairs, adj, gather = found
        size = len(points)
        lines: list[int | None] = [None] * (size * size if filtered and not circles else 0)
        codes = [x * w + y for x, y in points]

        def line_mask(u: int, v: int) -> int:
            """Candidates on the cyclic line through candidates u and v, stored
            for (u, v) and (v, u)."""
            ux, uy = points[u]
            vx, vy = points[v]
            mask = gather(_shift(rows[((vx - ux) % n) * n + (vy - uy) % n], ux, uy, n))
            lines[u * size + v] = lines[v * size + u] = mask
            return mask

        chosen: list[int] = []

        def descend(cand: int, spans: list[int], pairs: list[int], spokes: list[int]) -> None:
            """Extend the chosen points by cliques inside ``cand``.

            In general mode ``spans[p]`` is the union of the bisector masks of
            candidate p with the points so far, ``pairs[p]`` the union of
            their pairwise overlaps and ``spokes[p]`` the union of the cyclic
            lines through p and each chosen point, all in p's frame: p is
            concyclic with a new point v and two earlier points iff the
            bisector mask for v - p (``origin_bis[codes[v] - codes[p]]``)
            meets ``pairs[p]``, and on one line with v and a chosen point iff
            ``spokes[p]`` holds v - p.  The witness needs no spokes, as the
            adjacency rows already drop its lines.  Entries of candidates
            outside ``cand`` are stale.
            """
            nonlocal best, best_witness, nodes
            nodes += 1
            r = 3 + len(chosen)
            if r > best:
                best = r
                best_witness = witness + tuple(points[i] for i in chosen)
            if r + cand.bit_count() <= best:
                return
            if nodes % BUDGET_POLL == 0:
                check_budget()
            order, colors = _color_order(cand, adj)
            for v, color in zip(reversed(order), reversed(colors)):
                if r + color <= best:
                    return
                sub = cand & adj[v]
                sub_spans, sub_pairs, sub_spokes = spans, pairs, spokes
                if circles:
                    sub_spans, sub_pairs, sub_spokes = spans[:], pairs[:], spokes[:]
                    cv = codes[v]
                    rest = sub
                    while rest:
                        low = rest & -rest
                        p = low.bit_length() - 1
                        rest ^= low
                        c = cv - codes[p]
                        bis = origin_bis[c]
                        if bis & pairs[p] or spokes[p] & bit_at[c]:
                            sub ^= low
                            continue
                        sub_pairs[p] = pairs[p] | (bis & spans[p])
                        sub_spans[p] = spans[p] | bis
                        sub_spokes[p] = spokes[p] | line_at[c]
                elif filtered:
                    for u in chosen:
                        line = lines[u * size + v]
                        sub &= ~(line_mask(u, v) if line is None else line)
                chosen.append(v)
                descend(sub, sub_spans, sub_pairs, sub_spokes)
                chosen.pop()
                cand ^= 1 << v

        descend((1 << size) - 1, spans, pairs, [0] * (size if circles else 0))
    return best, best_witness


def max_cardinality(n: int, mode: str = "any", budget: float | None = None) -> int:
    """Exact maximum cardinality of a mode-filtered integral point set over Z_n^2."""
    return max_cardinality_witness(n, mode, budget)[0]


def max_cardinality_witness(
    n: int, mode: str = "any", budget: float | None = None
) -> tuple[int, tuple[Point, ...]]:
    """Maximum cardinality plus one realizing point set."""
    if n < 1:
        raise InvalidInputError("modulus must be positive")
    if mode not in MODES:
        raise InvalidInputError(f"unknown mode {mode!r}")
    if n == 1:
        return 1, ((0, 0),)
    best, witness = _dfs_max(n, mode, budget)
    if best >= 3:
        return best, witness
    # no triangle survives the filter; two distinct points are always integral
    return 2, ((0, 0), (1, 0))
