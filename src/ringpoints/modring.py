"""Exact arithmetic in Z_n and the number-theoretic primitives everything else consumes.

Residues are plain Python ints in [0, n-1]; the modulus travels as a separate
argument.  Moduli are assumed small (n <= 2**16, dimensions m <= 8), so every
intermediate product fits comfortably in machine words and all searches here
are exhaustive rather than algebraic: that keeps correctness obvious at the
scale the tables need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError, NotApplicableError

MAX_MODULUS = 1 << 16


def _check_modulus(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"modulus must be a positive integer, got {n!r}")
    if n > MAX_MODULUS:
        raise InvalidInputError(f"modulus {n} exceeds supported limit {MAX_MODULUS}")


def lee_weight(r: int, n: int) -> int:
    """Circular distance of the residue r to 0: min(r, n - r)."""
    _check_modulus(n)
    r %= n
    return min(r, n - r)


@dataclass(frozen=True)
class SquareTable:
    """Membership tables for the squares of Z_n.

    ``squares`` is {x^2 mod n}; ``nonzero_squares`` only quadrates nonzero
    elements, which still may contain 0 for composite n (e.g. 4^2 = 0 mod 8).
    """

    n: int
    squares: frozenset[int]
    nonzero_squares: frozenset[int]


@lru_cache(maxsize=None)
def squares(n: int) -> SquareTable:
    """Exact square tables of Z_n by exhaustive squaring."""
    _check_modulus(n)
    all_sq = frozenset(x * x % n for x in range(n))
    nonzero_sq = frozenset(x * x % n for x in range(1, n))
    return SquareTable(n, all_sq, nonzero_sq)


Factorization = list[tuple[int, int]]


@lru_cache(maxsize=None)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def factorize(n: int) -> Factorization:
    """Prime factorization of n as [(p, exponent)] with p increasing (trial division)."""
    _check_modulus(n)
    return list(_factorize_cached(n))


def is_prime(n: int) -> bool:
    return n >= 2 and _factorize_cached(n) == ((n, 1),)


def omega(p: int) -> int:
    """The unique w < p/2 with w^2 = -1 mod p (the smaller root), for primes p = 1 mod 4."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if p % 4 != 1:
        raise NotApplicableError(f"omega({p}) needs p = 1 mod 4")
    return sqrt_mod(p - 1, p)


def alpha(p: int) -> int:
    """Smallest quadratic non-residue mod an odd prime p."""
    if not is_prime(p) or p == 2:
        raise InvalidInputError(f"alpha needs an odd prime, got {p}")
    table = squares(p).squares
    for a in range(2, p):
        if a not in table:
            return a
    raise AssertionError(f"no non-residue mod {p}")  # unreachable for odd primes


def sqrt_mod(s: int, p: int) -> int | None:
    """Smallest y with y^2 = s mod p, or None for non-residues (exhaustive search)."""
    _check_modulus(p)
    s %= p
    for y in range(p):
        if y * y % p == s:
            return y
    return None
