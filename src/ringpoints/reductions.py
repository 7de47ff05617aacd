"""Closed forms, constructive lower bounds, and reductions for I(n, m).

Two families of constructions give the conjecturally tight lower bounds for
I(n, 2): a grid of full rows whose second coordinate is scaled so its squared
contribution vanishes mod n, and a refinement for n = 2 mod 4 where the
contribution collapses to 0 or a fixed square shift.  Even moduli reduce to a
weight condition on the half ring (every point of Z_n^m has exactly 2^m
preimages in Z_{2n}^m), coprime moduli multiply via the CRT, and Z_3^m is a
pure Hamming-distance selection problem.

``I_of`` dispatches the exact value of I(n, m) over these reductions.  The
exact searches on graphs rooted at 0 (integral distance, the even weight graph
and the Hamming graph of Z_3^m) share one builder, ``build_rooted``, one
orbit-branched search, ``_rooted_value``, and one seed, ``_rooted_seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .cliquegraph import (
    DistanceGraph,
    _all_points,
    _rooted_orbits,
    build_rooted,
    deadline_after,
    max_clique,
)
from .errors import InvalidInputError, NotApplicableError, SearchTimeout
from .geometry import Point
from .modring import factorize, omega, squares


def _scales(n: int, odd: bool) -> tuple[int, int]:
    """(prod p^ceil(r/2), prod p^floor(r/2)) over the p^r exactly dividing n,
    over the odd p only if ``odd``."""
    k = cofactor = 1
    for p, r in factorize(n):
        if p != 2 or not odd:
            k *= p ** ((r + 1) // 2)
            cofactor *= p ** (r // 2)
    return k, cofactor


def _scaled_rows(n: int, k: int, bound: int) -> tuple[list[Point], int]:
    """The points (u, v*k) of Z_n^2, checked to number ``bound`` and to be integral."""
    pts = sorted({(u, v * k % n) for u in range(n) for v in range(n)})
    assert len(pts) == bound
    _verify_integral(pts, n)
    return pts, bound


def lemma1_bound(n: int) -> int:
    return n * _scales(n, False)[1]


def lemma1_points(n: int) -> tuple[list[Point], int]:
    """Integral point set {(u, v*k)} over Z_n^2 of size n * prod p^floor(r/2).

    k is chosen so k^2 = 0 mod n, making every squared distance collapse to
    (u1 - u2)^2.  Pairwise integrality is re-verified before returning.
    """
    return _scaled_rows(n, _scales(n, False)[0], lemma1_bound(n))


def lemma2_bound(n: int) -> int:
    if n % 4 != 2:
        raise NotApplicableError(f"the n = 2 mod 4 construction needs n = 2 mod 4, got {n}")
    return 2 * n * _scales(n, True)[1]


def lemma2_points(n: int) -> tuple[list[Point], int]:
    """Integral point set of size 2n * prod_{p odd} p^floor(r/2) for n = 2 mod 4.

    With k the odd scale, 2k^2 = 0 mod n, so each squared distance equals
    either (u1 - u2)^2 or (u1 - u2 + k^2)^2.
    """
    bound = lemma2_bound(n)  # raises unless n = 2 mod 4
    return _scaled_rows(n, _scales(n, True)[0], bound)


def _verify_integral(pts: list[Point], n: int) -> None:
    """Raise unless every pair of these points of Z_n^2 is at integral distance.

    The test of ``is_integral``, written out for two coordinates.
    """
    sq = squares(n).squares
    for i, (x, y) in enumerate(pts):
        for a, b in pts[i + 1 :]:
            if ((x - a) * (x - a) + (y - b) * (y - b)) % n not in sq:
                raise AssertionError(f"constructed set not integral at {(x, y)}, {(a, b)} mod {n}")


def conjectured_I2(n: int) -> int:
    """The conjecturally tight lower bound for I(n, 2): best applicable construction."""
    return conjectured_I2_tag(n)[0]


def conjectured_I2_tag(n: int) -> tuple[int, str]:
    if n % 4 == 2 and lemma2_bound(n) > lemma1_bound(n):
        return lemma2_bound(n), "lemma2"
    return lemma1_bound(n), "lemma1"


def best_construction(n: int) -> tuple[list[Point], int]:
    """The points and size of the construction ``conjectured_I2_tag`` names."""
    if conjectured_I2_tag(n)[1] == "lemma2":
        return lemma2_points(n)
    return lemma1_points(n)


def even_weight(u: Point, v: Point, two_n: int) -> int:
    """Sum of squared canonical-lift differences, taken mod 2n."""
    return sum((a - b) * (a - b) for a, b in zip(u, v)) % two_n


def even_reduction_graph(two_n: int, m: int) -> DistanceGraph:
    """Weight graph on Z_n^m, rooted at 0, whose cliques lift to Z_{2n}^m.

    Each vertex has 2^m preimages under the mod-n projection, and a set S is
    admissible iff all pairwise weights are squares mod 2n; hence
    I(2n, m) = 2^m * (1 + maximum clique), with 0 in the set by translation.
    """
    if two_n % 2 != 0:
        raise InvalidInputError(f"even reduction needs an even modulus, got {two_n}")
    n = two_n // 2
    # Squareness of the weight depends on u - v only mod n, so the graph is a
    # Cayley graph of Z_n^m.  Adding n to one difference adds 2dn + n^2 = n^2
    # (mod 2n) to the weight.  For even n, n^2 = 0 (mod 2n).  For odd n,
    # n^2 = n (mod 2n): the weight keeps its residue mod n and changes mod 2,
    # and since Z_2n = Z_2 x Z_n with every residue mod 2 a square, squareness
    # mod 2n equals squareness mod n.
    # The orbit group of the rooted search acts on this graph too: unit
    # scalings mod n, sign changes, coordinate permutations and rotations are
    # linear, and wrapping a coordinate adds n^2 to the weight.  For even n,
    # n^2 = 0 (mod 2n) and a unit u is odd, so u^2 is a unit square mod 2n; for
    # odd n, squareness mod 2n is squareness mod n.  A rotation (x, y) ->
    # (ax - by, bx + ay) multiplies the weight of the lifts by a^2 + b^2, so it
    # needs a^2 + b^2 = 1 (mod 2n), not only mod n: the form modulus is 2n.
    sq = squares(two_n).squares
    zero = (0,) * m
    return build_rooted(n, m, [even_weight(d, zero, two_n) in sq for d in _all_points(n, m)])


def even_reduction_value(two_n: int, m: int, budget: float | None = None) -> int:
    deadline = deadline_after(budget)
    return _rooted_value(even_reduction_graph(two_n, m), two_n, deadline)


def _rooted_seed(N: int, k: int, m: int) -> list[Point]:
    """A known clique of a graph rooted at 0 over Z_k^m, as labels without 0.

    For m = 2 the best construction over Z_N^2 reduced mod k (N = k for the
    integral graph, N = 2k for the even weight graph); otherwise the axis line
    (u, 0, ..., 0), whose squared distances (u1 - u2)^2 are squares.
    """
    if m == 2:
        return sorted({(x % k, y % k) for x, y in best_construction(N)[0]} - {(0, 0)})
    return [(u,) + (0,) * (m - 1) for u in range(1, k)]


def _rooted_value(g: DistanceGraph, form_modulus: int, deadline: float | None) -> int:
    """scale * (1 + maximum clique) of a graph rooted at 0, branching per orbit.

    ``form_modulus`` is the modulus of the quadratic form behind the graph's
    adjacency over Z_k^m (2k for the even weight graph, else k), as
    ``_rooted_orbits`` takes it.  The seed is ``_rooted_seed(form_modulus, k,
    m)`` and scale = (form_modulus / k)^m, the preimages of each point.  Past
    ``deadline`` raises SearchTimeout carrying the same expression for the
    incumbent clique, a proven lower bound.
    """
    scale = (form_modulus // g.n) ** g.m
    orbits = _rooted_orbits(g.labels, g.n, form_modulus)
    try:
        return scale * (1 + max_clique(g, deadline, _rooted_seed(form_modulus, g.n, g.m), orbits).size)
    except SearchTimeout as exc:
        bound = scale * (1 + exc.lower_bound)
        raise SearchTimeout(f"rooted search over Z_{g.n}^{g.m} hit budget", bound) from exc


def hamming_distance(u: Point, v: Point) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


def hamming_I3_value(m: int, budget: float | None = None) -> int:
    """I(3, m) via the Hamming formulation, rooted at 0 by translation symmetry.

    The top level branches once per Hamming weight: coordinate permutations
    and sign changes fix 0 and move any point onto any other of its weight.
    """
    deadline = deadline_after(budget)
    return _rooted_value(build_rooted(3, m, _hamming_table(m)), 3, deadline)


def _hamming_table(m: int) -> list[bool]:
    """table[point_index(d)]: the Hamming weight of d in Z_3^m is not 2 mod 3."""
    zero = (0,) * m
    return [hamming_distance(d, zero) % 3 != 2 for d in _all_points(3, m)]


def ilig_set(p: int) -> list[Point]:
    """The non-collinear integral point set (1, +-w) * squares of size p.

    Needs w with w^2 = -1, hence p = 1 mod 4; the defining identities make all
    pairwise squared distances products of squares.
    """
    w = omega(p)  # raises for p not prime or p != 1 mod 4
    sq = sorted(squares(p).squares)
    pts = sorted({(q, w * q % p) for q in sq} | {(q, -w * q % p) for q in sq})
    assert len(pts) == p
    _verify_integral(pts, p)
    return pts


def _solve_rooted(n: int, m: int, deadline: float | None) -> int:
    return _rooted_value(build_rooted(n, m), n, deadline)


def I_of(n: int, m: int, use_cartesian: bool = True, budget: float | None = None) -> int:
    """Exact maximum cardinality of an integral point set over Z_n^m.

    Dispatches the closed forms (m = 1, n <= 2) and splits composite n into
    coprime prime-power factors unless ``use_cartesian`` is false.  Each
    factor (the whole n without splitting) is 2^m for 2, the half-ring weight
    graph for other even moduli, else the rooted clique search.  ``budget``
    becomes one deadline as the call starts, shared by every factor's graph
    build and search; a graph build counts against it but is not interrupted.
    Once it has passed, SearchTimeout carries the best proven lower bound.
    """
    if n < 1 or m < 1:
        raise InvalidInputError("n and m must be positive")
    deadline = deadline_after(budget)
    if n == 1:
        return 1
    if m == 1:
        return n

    factors = [p**r for p, r in factorize(n)] if use_cartesian else [n]
    out = 1
    for pos, q in enumerate(factors):
        try:
            if q % 2:
                out *= _solve_rooted(q, m, deadline)
            else:
                out *= 2**m if q == 2 else _rooted_value(even_reduction_graph(q, m), q, deadline)
        except SearchTimeout as exc:
            # finished factors are exact; each remaining factor q has the
            # axis line, so I(q, m) >= q
            bound = out * exc.lower_bound * prod(factors[pos + 1 :])
            if m == 2:
                bound = max(bound, conjectured_I2(n))
            raise SearchTimeout(f"I({n},{m}) factor {q} hit budget", bound) from exc
    return out


@dataclass
class ConjectureEntry:
    n: int
    conjectured: int
    tag: str
    exact: int | None
    tight: bool | None


@dataclass
class ConjectureReport:
    entries: list[ConjectureEntry]

    @property
    def all_tight(self) -> bool:
        return all(e.tight for e in self.entries if e.tight is not None)

    @property
    def unverified(self) -> list[int]:
        return [e.n for e in self.entries if e.tight is None]


def verify_conjecture(n_max: int, budget: float | None = None, n_min: int = 2) -> ConjectureReport:
    """Compare exact I(n, 2) against the best construction bound for n <= n_max.

    Each n is recomputed from scratch (prime-power factors by clique search);
    budget expiry marks the entry unverified instead of failing the run.
    """
    entries = []
    for n in range(n_min, n_max + 1):
        conj, tag = conjectured_I2_tag(n)
        try:
            exact = I_of(n, 2, budget=budget)
            entries.append(ConjectureEntry(n, conj, tag, exact, exact == conj))
        except SearchTimeout:
            entries.append(ConjectureEntry(n, conj, tag, None, None))
    return ConjectureReport(entries)
