"""Points of Z_n^m, Lee-reduced difference vectors, and the position predicates.

A point is an m-tuple of residues.  The integral-distance test only depends on
the componentwise Lee reduction of the difference vector, because
(n - x)^2 = x^2 mod n.

Collinearity over Z_n^2 is the parametric notion: three points lie on a
"cyclic line" {(a, b) + w * (t1, t2) : w in Z_n}.  For composite n this is
strictly stronger than the vanishing of the classical 3x3 determinant, so the
exact test enumerates cyclic lines once per modulus and answers lookups from a
bitmap of pair memberships.  Concyclicity likewise quantifies over centers and
a nonzero radius ring element.  Both circle predicates, and the circle filter
of the orderly search, read the common centers from the bisector bitmasks of
``_bisector_mask``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import InvalidInputError
from .modring import lee_weight, squares

Point = tuple[int, ...]
DeltaVec = tuple[int, ...]


def delta(u: Point, v: Point, n: int) -> DeltaVec:
    """Componentwise Lee reduction of u - v; symmetric and translation invariant."""
    if len(u) != len(v):
        raise InvalidInputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(lee_weight(a - b, n) for a, b in zip(u, v))


def is_integral_delta(d: DeltaVec, n: int) -> bool:
    """True iff the squared length of the difference vector is a square in Z_n."""
    return sum(x * x for x in d) % n in squares(n).squares


def is_integral(u: Point, v: Point, n: int) -> bool:
    """True iff u and v are at integral distance in Z_n^m."""
    if len(u) != len(v):
        raise InvalidInputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a - b) * (a - b) for a, b in zip(u, v)) % n in squares(n).squares


def point_index(p: Point, n: int) -> int:
    """Row-major encoding sum(p_i * n^(m-1-i)); fixed so exports are reproducible."""
    idx = 0
    for c in p:
        idx = idx * n + c % n
    return idx


def point_code(p: Point, k: int) -> int:
    """Base-(2k - 1) code sum(p_i * (2k - 1)^(m-1-i)) of a point of Z_k^m, 0 <= p_i < k."""
    code = 0
    for c in p:
        code = code * (2 * k - 1) + c
    return code


def diff_layout(values: Sequence, k: int, m: int) -> list:
    """A table over the differences of Z_k^m (``point_index`` order), laid out by code.

    The entry for the difference d, |d_i| < k, sits at ``point_code(d, k)``.
    The (2k - 1)^m positions meet each code once, negative ones wrapping, so
    the entry for q - p is at point_code(q) - point_code(p), one subtraction.
    """
    out = values
    size = 1  # entries per value of the next axis; the axes after it already run in code order
    for _ in range(m - 1):  # its residues 1..k-1, then 0..k-1, are the digits 1-k..k-1 ascending
        step = k * size
        out = [x for b in range(0, len(out), step) for x in out[b + size : b + step] + out[b : b + step]]
        size *= 2 * k - 1
    # the first axis in wrapped order, residues 0..k-1 then 1..k-1, holds code c at
    # (c + size // 2) mod (2k - 1)^m; moving the first size // 2 entries to the end
    # puts every code c at c mod (2k - 1)^m
    h = size // 2
    return [*out[h:], *out[size:], *out[:h]]


def bit_reader(positions: Sequence[int]) -> Callable[[Sequence[str]], int]:
    """``read(s)``: bit i is the '0'/'1' character ``s[positions[i]]``, for one or more positions."""
    pick = itemgetter(*reversed(positions))  # int(..., 2) reads the highest bit first
    return lambda s: int("".join(pick(s)), 2)


@dataclass(frozen=True)
class LineTable:
    """Per-modulus cyclic-line structure for exact collinearity over Z_n^2.

    ``pair_rows[q]`` is a bitmask over point indices r such that {0, q, r} is
    collinear.
    """

    n: int
    pair_rows: tuple[int, ...]


@lru_cache(maxsize=None)
def line_table(n: int) -> LineTable:
    """Enumerate all cyclic lines through the origin and mark collinear pairs."""
    n2 = n * n
    line_masks: set[int] = set()
    for tx in range(n):
        for ty in range(n):
            mask = 0
            x = y = 0
            for _ in range(n):
                mask |= 1 << (x * n + y)
                x = (x + tx) % n
                y = (y + ty) % n
            line_masks.add(mask)
    rows = [0] * n2
    for mask in line_masks:
        m = mask
        while m:
            b = m & -m
            rows[b.bit_length() - 1] |= mask
            m ^= b
    return LineTable(n, tuple(rows))


def is_collinear(p1: Point, p2: Point, p3: Point, n: int) -> bool:
    """Exact parametric collinearity of three points of Z_n^2.

    Translation reduces the test to whether p2 - p1 and p3 - p1 lie on a common
    cyclic line through 0; triples with repeated points are always collinear.
    """
    if not len(p1) == len(p2) == len(p3) == 2:
        raise InvalidInputError("collinearity is defined over Z_n^2")
    table = line_table(n)
    q = ((p2[0] - p1[0]) % n) * n + (p2[1] - p1[1]) % n
    r = ((p3[0] - p1[0]) % n) * n + (p3[1] - p1[1]) % n
    return (table.pair_rows[q] >> r) & 1 == 1


def collinear_det(p1: Point, p2: Point, p3: Point, n: int) -> bool:
    """Vanishing of the 3x3 unit-column determinant mod n.

    Characterizes collinearity exactly for prime n; for composite n it is only
    a necessary condition.
    """
    d = (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p3[0] - p1[0]) * (p2[1] - p1[1])
    return d % n == 0


@lru_cache(maxsize=None)
def _row_patterns(t: int, n: int) -> tuple[int, ...]:
    """``patterns[r]``: bitmask over b in Z_n of the solutions of t*b = r (mod n)."""
    patterns = [0] * n
    for b in range(n):
        patterns[t * b % n] |= 1 << b
    return tuple(patterns)


@lru_cache(maxsize=1 << 17)
def _bisector_mask(dx: int, dy: int, c: int, n: int) -> int:
    """Bitmask over centers (a, b) seeing two points at one common value.

    The centers equidistant (in the squared sense) from points p and p' with
    difference (dx, dy) and norm difference c solve 2a dx + 2b dy = c (mod n);
    bit a*n + b marks a solution.  Row a holds the solutions b of
    2b dy = c - 2a dx, one cached pattern of ``_row_patterns``.  Four points
    share a center iff three such masks, each pairing the first point with
    another, have a common bit.
    """
    tx = 2 * dx % n
    patterns = _row_patterns(2 * dy % n, n)
    mask = 0
    for a in range(n):
        mask |= patterns[(c - tx * a) % n] << (a * n)
    return mask


def _common_centers(pts: tuple[Point, ...], n: int) -> int:
    """Bitmask of the centers (a, b), bit a*n + b, that see all points at one value."""
    x1, y1 = pts[0]
    n1 = x1 * x1 + y1 * y1
    mask = -1
    for x, y in pts[1:]:
        mask &= _bisector_mask((x - x1) % n, (y - y1) % n, (x * x + y * y - n1) % n, n)
    return mask


def _circle_points(pts: tuple[Point, ...]) -> tuple[Point, ...]:
    if any(len(p) != 2 for p in pts):
        raise InvalidInputError("circle predicates are defined over Z_n^2")
    if len(set(pts)) < len(pts):
        raise InvalidInputError("circle predicates need distinct points")
    return pts


def is_concyclic(p1: Point, p2: Point, p3: Point, p4: Point, n: int) -> bool:
    """Exact concyclicity: a common center and a nonzero ring element r with
    (x_i - a)^2 + (y_i - b)^2 = r^2 for all four points.

    The radius r must be nonzero but r^2 = 0 is legal for composite n, so the
    common value is tested against the squares of nonzero elements.  Quadruples
    with repeated points are rejected: the definition presumes four points.
    """
    pts = _circle_points((p1, p2, p3, p4))
    if not concyclic_det(*pts, n):  # necessary condition, cheap rejection
        return False
    nz = squares(n).nonzero_squares
    x1, y1 = p1
    centers = _common_centers(pts, n)
    while centers:
        low = centers & -centers
        a, b = divmod(low.bit_length() - 1, n)
        if ((x1 - a) * (x1 - a) + (y1 - b) * (y1 - b)) % n in nz:
            return True
        centers ^= low
    return False


def is_cocircular(p1: Point, p2: Point, p3: Point, p4: Point, n: int) -> bool:
    """Four distinct points on a common circle locus (x-a)^2 + (y-b)^2 = s.

    Unlike is_concyclic the common value s is unrestricted: it may be zero or a
    non-square, covering degenerate and irrational-radius circles.  This is the
    position filter under which the published general-position maxima arise.
    """
    pts = _circle_points((p1, p2, p3, p4))
    if not concyclic_det(*pts, n):  # necessary condition, cheap rejection
        return False
    return _common_centers(pts, n) != 0


def concyclic_det(p1: Point, p2: Point, p3: Point, p4: Point, n: int) -> bool:
    """Vanishing mod n of the 4x4 determinant with rows (x^2+y^2, x, y, 1).

    Necessary for four points on a circle; not sufficient in general.
    """
    rows = [[x * x + y * y, x, y, 1] for x, y in (p1, p2, p3, p4)]
    return _int_det(rows) % n == 0


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[size - 1][size - 1]
