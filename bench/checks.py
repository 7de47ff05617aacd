"""Answer checks for the benchmark, built apart from the package under test.

Nothing here imports ``ringpoints``.  Published values are transcribed from the
paper's tables, closed-form bounds are computed from their formulas, and every
point set (orderly witnesses and the benchmark's own constructions) is verified
with plain modular arithmetic: integrality as (dx^2 + dy^2 + ...) mod n against
the squares mod n, collinearity by enumerating the cyclic lines
{p + t*w : t in Z_n}, cocircularity by enumerating the centers (a, b).

Each check returns a list of fault strings; an empty list means the answer
passed.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

# Table 1, I(n, m) for m = 2, 3 at the published columns n.
TABLE1_COLUMNS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17)
TABLE1 = {
    (n, m): v
    for m, row in (
        (2, (3, 8, 5, 7, 16, 27, 11, 13, 64, 17)),
        (3, (4, 16, 25, 8, 64, 81, 11, 169, 256, 289)),
    )
    for n, v in zip(TABLE1_COLUMNS, row)
}

# The I(4, m) sequence, m = 1..12.
I4_SEQUENCE = (4, 8, 16, 32, 128, 256, 1024, 4096, 16384, 32768, 65536, 131072)

# Table 2 (no three points on a cyclic line) and Table 3 (additionally no four
# points on a circle), proven maxima for n = 1..30.
TABLE2 = dict(enumerate((
    1, 4, 2, 4, 4, 4, 4, 6, 6, 6,
    6, 4, 6, 6, 4, 8, 8, 10, 10, 8,
    4, 8, 12, 6, 10, 10, 10, 8, 14, 6,
), start=1))
TABLE3 = dict(enumerate((
    1, 4, 2, 4, 4, 4, 3, 4, 4, 6,
    4, 4, 5, 6, 4, 6, 5, 8, 5, 6,
    4, 8, 5, 4, 6, 8, 7, 6, 7, 6,
), start=1))
PUBLISHED_ORDERLY = {"semi-general": ("Table 2", TABLE2), "general": ("Table 3", TABLE3)}


def factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        r = 0
        while n % p == 0:
            n //= p
            r += 1
        if r:
            out.append((p, r))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def construction_bound_I2(n: int) -> int:
    """Closed-form lower bound for I(n, 2): n * prod p^floor(r/2), and for
    n = 2 mod 4 also 2n * prod_{p odd} p^floor(r/2); the larger one."""
    half_powers = 1
    odd_half_powers = 1
    for p, r in factor(n):
        half_powers *= p ** (r // 2)
        if p != 2:
            odd_half_powers *= p ** (r // 2)
    best = n * half_powers
    if n % 4 == 2:
        best = max(best, 2 * n * odd_half_powers)
    return best


def squares_mod(n: int) -> frozenset[int]:
    return frozenset(x * x % n for x in range(n))


def _sqrt_minus_one(p: int) -> int | None:
    for w in range(2, p):
        if w * w % p == p - 1:
            return w
    return None


def _is_prime(n: int) -> bool:
    return n > 1 and factor(n) == [(n, 1)]


def construct_integral_set(n: int, m: int) -> list[tuple[int, ...]]:
    """A large integral point set over Z_n^m, built from scratch.

    Scaled grid: {(u, k*v_2, ..., k*v_m)} with k = prod p^ceil(r/2), so k^2 = 0
    mod n and every squared distance is du^2.  For n = 2 mod 4 and m = 2 the odd
    scale k = prod_{p odd} p^ceil(r/2) also works, since every residue is a
    square mod 2.  For a prime n = 1 mod 4 with w^2 = -1, coordinates paired as
    (x, w*x) contribute nothing, leaving one free coordinate when m is odd.
    The set is verified by the caller; it is only a lower bound.
    """
    k = 1
    k_odd = 1
    for p, r in factor(n):
        k *= p ** ((r + 1) // 2)
        if p != 2:
            k_odd *= p ** ((r + 1) // 2)
    candidates = []
    for scale in {k, k_odd} if (m == 2 and n % 4 == 2) else {k}:
        steps = sorted({v * scale % n for v in range(n)})
        candidates.append([(u,) + rest for u in range(n) for rest in product(steps, repeat=m - 1)])
    w = _sqrt_minus_one(n) if _is_prime(n) and n % 4 == 1 else None
    if w is not None:
        paired = []
        for xs in product(range(n), repeat=(m + 1) // 2):
            pt: list[int] = []
            for i, x in enumerate(xs):
                pt += [x, w * x % n] if 2 * i + 1 < m else [x]
            paired.append(tuple(pt))
        candidates.append(paired)
    return max(candidates, key=len)


def integral_faults(points, n: int) -> list[str]:
    sq = squares_mod(n)
    for i, u in enumerate(points):
        for v in points[i + 1 :]:
            if sum((a - b) * (a - b) for a, b in zip(u, v)) % n not in sq:
                return [f"{u} and {v} are not at integral distance mod {n}"]
    return []


def collinear_faults(points, n: int) -> list[str]:
    """Enumerate the cyclic lines {p + t*w} through each point; none may hold three."""
    pts = set(points)
    for wx, wy in product(range(n), repeat=2):
        if (wx, wy) == (0, 0):
            continue
        for px, py in points:
            line = {((px + t * wx) % n, (py + t * wy) % n) for t in range(n)}
            on = pts & line
            if len(on) >= 3:
                return [f"cyclic line through {(px, py)} with direction {(wx, wy)} holds {sorted(on)}"]
    return []


def cocircular_faults(points, n: int) -> list[str]:
    """Enumerate the centers (a, b); none may see four points at one value."""
    for a, b in product(range(n), repeat=2):
        by_value = Counter(((x - a) ** 2 + (y - b) ** 2) % n for x, y in points)
        value, count = by_value.most_common(1)[0]
        if count >= 4:
            return [f"center {(a, b)} sees {count} points at value {value} mod {n}"]
    return []


def witness_faults(points, n: int, mode: str, value: int) -> list[str]:
    """Verify an orderly witness: size, distinctness, integrality, position."""
    points = [tuple(p) for p in points]
    faults = []
    if len(points) != value:
        faults.append(f"witness has {len(points)} points, value is {value}")
    if len(set(points)) != len(points):
        faults.append("witness points are not distinct")
    if any(len(p) != 2 or not all(0 <= c < n for c in p) for p in points):
        faults.append(f"witness points are not residues of Z_{n}^2")
        return faults
    faults += integral_faults(points, n)
    if mode in ("semi-general", "general"):
        faults += collinear_faults(points, n)
    if mode == "general":
        faults += cocircular_faults(points, n)
    return faults


@lru_cache(maxsize=None)
def constructed_size(n: int, m: int) -> int:
    """Size of the benchmark's own verified integral set over Z_n^m."""
    pts = construct_integral_set(n, m)
    bad = integral_faults(pts, n)
    if bad or len(set(pts)) != len(pts):
        raise AssertionError(f"benchmark construction for ({n}, {m}) is wrong: {bad}")
    return len(pts)


def clique_value_faults(n: int, m: int, value: int) -> list[str]:
    """Check an I(n, m) answer against the published value or closed form,
    and against the benchmark's own constructed integral set."""
    faults = []
    if (n, m) in TABLE1:
        if value != TABLE1[(n, m)]:
            faults.append(f"I({n},{m}) = {value}, Table 1 has {TABLE1[(n, m)]}")
    elif n == 4:
        if value != I4_SEQUENCE[m - 1]:
            faults.append(f"I(4,{m}) = {value}, the I(4, m) sequence has {I4_SEQUENCE[m - 1]}")
    elif m == 2:
        bound = construction_bound_I2(n)
        if value != bound:
            faults.append(f"I({n},2) = {value}, the construction bound is {bound}")
    else:
        faults.append(f"no published value or closed form for I({n},{m})")
    size = constructed_size(n, m)
    if value < size:
        faults.append(f"I({n},{m}) = {value} is below a verified integral set of {size} points")
    return faults


def orderly_value_faults(n: int, mode: str, value: int) -> list[str]:
    table_name, table = PUBLISHED_ORDERLY[mode]
    if table.get(n) != value:
        return [f"{mode} maximum for n={n} is {value}, {table_name} has {table.get(n)}"]
    return []


def mode_order_faults(values: dict[tuple[int, str], int]) -> list[str]:
    """general <= semi-general for every n computed in both modes."""
    faults = []
    for (n, mode), v in values.items():
        semi = values.get((n, "semi-general"))
        if mode == "general" and semi is not None and v > semi:
            faults.append(f"general maximum {v} exceeds semi-general {semi} at n={n}")
    return faults
