"""Characteristic theory of integral point sets with distances in Z_p.

A triangle with side lengths a, b, c in Z_p realizes with its third vertex at
(x3, y3 * sqrt(char)): the squared height V^2 / (2a)^2 is either a quadratic
residue (char 1) or a fixed non-residue multiple (char alpha(p), the smallest
non-residue).  The characteristic is an invariant of a whole point set: any
two realized simplices sharing a face force equal radicals.

Volumes are carried as the bordered determinant of squared distances.  The
determinant is evaluated by fraction-free integer elimination and reduced mod
n afterwards, so composite moduli need no division.  Signs are normalized so
that the order-3 bordered determinant equals the four-factor side-length
product identically; the unbordered square-distance determinant of four points
(the sphere condition) keeps its raw sign, factoring as minus the product of
the four Ptolemy terms.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegenerateError, InvalidInputError
from .geometry import Point, _int_det, is_integral
from .modring import alpha, is_prime, sqrt_mod, squares

DistMatrix = tuple[tuple[int, ...], ...]


def heron_v2(a: int, b: int, c: int, n: int) -> int:
    """(a+b+c)(a+b-c)(a-b+c)(-a+b+c) mod n: sixteen times the squared area."""
    return (a + b + c) * (a + b - c) * (a - b + c) * (-a + b + c) % n


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise InvalidInputError(f"characteristic theory needs an odd prime, got {p}")


def _char_of(v2: int, p: int) -> int:
    """1 if the nonzero squared volume v2 is a residue mod p, alpha(p) otherwise."""
    return 1 if v2 in squares(p).nonzero_squares else alpha(p)


def triangle_char(a: int, b: int, c: int, p: int) -> int:
    """1 if the squared-area value is a nonzero residue mod p, alpha(p) otherwise."""
    _check_odd_prime(p)
    if a % p == 0 or b % p == 0 or c % p == 0:
        raise InvalidInputError("triangle sides must be nonzero")
    v2 = heron_v2(a, b, c, p)
    if v2 == 0:
        raise DegenerateError(f"triangle ({a},{b},{c}) mod {p} is degenerate")
    return _char_of(v2, p)


ExtElem = tuple[int, int]  # u + v * sqrt(radical), coordinates mod p


def ext_mul(x: ExtElem, y: ExtElem, radical: int, p: int) -> ExtElem:
    """(u + v sqrt(r)) (u' + v' sqrt(r)) in the quadratic extension."""
    return (
        (x[0] * y[0] + x[1] * y[1] * radical) % p,
        (x[0] * y[1] + x[1] * y[0]) % p,
    )


def ext_sub(x: ExtElem, y: ExtElem, p: int) -> ExtElem:
    return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)


class TriangleRealization:
    """Coordinates ((0,0), (a,0), (x3, y3 sqrt(char))) of an integral triangle.

    Coordinates are pairs (rational part, radical part) with respect to
    sqrt(char); for char 1 the radical part stays zero.
    """

    def __init__(self, a: int, b: int, c: int, p: int):
        _check_odd_prime(p)
        char = triangle_char(a, b, c, p)  # validates sides and degeneracy
        inv_2a = pow(2 * a % p, -1, p)
        x3 = (b * b - c * c + a * a) * inv_2a % p
        y3_sq_total = heron_v2(a, b, c, p) * inv_2a * inv_2a % p
        if char == 1:
            base = y3_sq_total
        else:
            base = y3_sq_total * pow(char, -1, p) % p
        y3 = sqrt_mod(base, p)
        assert y3 is not None  # base is a residue by the choice of char
        self.p = p
        self.sides = (a % p, b % p, c % p)
        self.char = char
        self.points: tuple[tuple[ExtElem, ExtElem], ...] = (
            ((0, 0), (0, 0)),
            ((a % p, 0), (0, 0)),
            ((x3, 0), (0, y3)),
        )

    def squared_distance(self, i: int, j: int) -> ExtElem:
        """Squared distance of vertices i, j in the extension arithmetic."""
        p = self.p
        (xi, yi), (xj, yj) = self.points[i], self.points[j]
        dx = ext_sub(xi, xj, p)
        dy = ext_sub(yi, yj, p)
        xx = ext_mul(dx, dx, self.char, p)
        yy = ext_mul(dy, dy, self.char, p)
        return ((xx[0] + yy[0]) % p, (xx[1] + yy[1]) % p)

    def verify(self) -> bool:
        """Re-substitution: both defining squared distances come out rational."""
        a, b, c = self.sides
        p = self.p
        return (
            self.squared_distance(0, 1) == (a * a % p, 0)
            and self.squared_distance(0, 2) == (b * b % p, 0)
            and self.squared_distance(1, 2) == (c * c % p, 0)
        )


def realize_triangle(a: int, b: int, c: int, p: int) -> TriangleRealization:
    """Coordinate realization of side lengths a, b, c over Z_p (see class)."""
    return TriangleRealization(a, b, c, p)


def _as_matrix(d) -> DistMatrix:
    m = tuple(tuple(int(x) for x in row) for row in d)
    t = len(m)
    for i, row in enumerate(m):
        if len(row) != t:
            raise InvalidInputError("distance matrix must be square")
        if row[i] != 0:
            raise InvalidInputError("distance matrix needs a zero diagonal")
    for i in range(t):
        for j in range(t):
            if m[i][j] != m[j][i]:
                raise InvalidInputError("distance matrix must be symmetric")
    return m


def cayley_menger(d, n: int) -> int:
    """Bordered determinant of squared distances, mod n.

    The sign is chosen so that for three points the value coincides with the
    four-factor product of the side lengths; its vanishing detects point
    tuples that fit a lower-dimensional flat.
    """
    m = _as_matrix(d)
    t = len(m)
    rows = [[(m[i][j] * m[i][j]) for j in range(t)] + [1] for i in range(t)]
    rows.append([1] * t + [0])
    det = _int_det(rows)
    if t % 2:
        det = -det
    return det % n


def sphere_det(d, n: int) -> int:
    """Determinant of the plain squared-distance matrix, mod n.

    Vanishing is necessary for the points to lie on a common sphere of one
    dimension less; for four points it factors into the Ptolemy terms.
    """
    m = _as_matrix(d)
    t = len(m)
    rows = [[m[i][j] * m[i][j] for j in range(t)] for i in range(t)]
    return _int_det(rows) % n


def simplex_char(d, p: int) -> int:
    """Characteristic of a simplex given by its distance matrix over Z_p."""
    _check_odd_prime(p)
    v2 = cayley_menger(d, p)
    if v2 == 0:
        raise DegenerateError("simplex is degenerate")
    return _char_of(v2, p)


def char_consistent(d, p: int, m: int = 2) -> tuple[bool, int | None]:
    """Whether all non-degenerate (m+1)-point sub-simplices share one characteristic.

    Returns (consistent, the common value); raises DegenerateError when every
    sub-simplex is degenerate.
    """
    mat = _as_matrix(d)
    r = len(mat)
    if r < m + 1:
        raise InvalidInputError(f"need at least {m + 1} points")
    seen: set[int] = set()
    for idx in combinations(range(r), m + 1):
        sub = tuple(tuple(mat[i][j] for j in idx) for i in idx)
        v2 = cayley_menger(sub, p)
        if v2 == 0:
            continue
        seen.add(_char_of(v2, p))
        if len(seen) > 1:
            return False, None
    if not seen:
        raise DegenerateError("all sub-simplices are degenerate")
    return True, seen.pop()


def is_valid_abstract(d, m: int, n: int) -> bool:
    """Abstract integral point set test over Z_n: coordinate-free embeddability.

    All distances must be nonzero, every (m+2)- and (m+3)-point bordered
    determinant must vanish, and at least one (m+1)-point value must not;
    subset families beyond the available cardinality hold vacuously.
    """
    mat = _as_matrix(d)
    r = len(mat)
    if r < m + 1:
        raise InvalidInputError(f"abstract point set needs at least {m + 1} points")
    for i in range(r):
        for j in range(i + 1, r):
            if mat[i][j] % n == 0:
                return False
    for t in (m + 2, m + 3):
        if r < t:
            continue
        for idx in combinations(range(r), t):
            sub = tuple(tuple(mat[i][j] for j in idx) for i in idx)
            if cayley_menger(sub, n) != 0:
                return False
    return any(
        cayley_menger(tuple(tuple(mat[i][j] for j in idx) for i in idx), n) != 0
        for idx in combinations(range(r), m + 1)
    )


def dist_matrix_from_points(points: list[Point], n: int) -> DistMatrix:
    """Distance matrix of a coordinate point set, taking the least square roots."""
    r = len(points)
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            sq = sum((a - b) * (a - b) for a, b in zip(points[i], points[j])) % n
            d = sqrt_mod(sq, n)
            if d is None:
                raise InvalidInputError(f"points {points[i]}, {points[j]} not at integral distance")
            rows[i][j] = rows[j][i] = d
    return tuple(tuple(row) for row in rows)


def ring_integral_check(points: list[Point], n: int) -> bool:
    """Every pair of points has a squared distance that is a square in Z_n."""
    return all(
        is_integral(points[i], points[j], n)
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )
