import pytest

from ringpoints.errors import InvalidInputError, NotApplicableError
from ringpoints.modring import (
    alpha,
    factorize,
    is_prime,
    lee_weight,
    omega,
    sqrt_mod,
    squares,
)


def test_reduce_rejects_zero_modulus():
    # every function that reduces modulo n checks the modulus first
    for call in (
        lambda: lee_weight(3, 0),
        lambda: squares(0),
        lambda: factorize(0),
        lambda: sqrt_mod(3, 0),
    ):
        with pytest.raises(InvalidInputError):
            call()


def test_lee_weight():
    assert lee_weight(7, 12) == 5
    assert lee_weight(5, 12) == 5
    assert lee_weight(0, 7) == 0
    for n in range(1, 40):
        for r in range(n):
            assert lee_weight(r, n) == lee_weight(-r, n)
            assert lee_weight(r, n) <= n // 2


def test_squares_small():
    assert squares(8).squares == frozenset({0, 1, 4})
    assert squares(8).nonzero_squares == frozenset({0, 1, 4})  # 4^2 = 0 with 4 != 0
    assert squares(5).squares == frozenset({0, 1, 4})
    assert squares(5).nonzero_squares == frozenset({1, 4})
    assert squares(2).squares == frozenset({0, 1})
    assert squares(1).squares == frozenset({0})


def test_squares_symmetry():
    # x and n - x square to the same value
    for n in range(1, 501):
        t = squares(n)
        again = frozenset((n - x) * (n - x) % n for x in range(n))
        assert t.squares == again


def test_factorize():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(307) == [(307, 1)]
    for n in range(1, 500):
        prod = 1
        prev = 0
        for p, e in factorize(n):
            assert p > prev and e >= 1 and is_prime(p)
            prev = p
            prod *= p**e
        assert prod == n


def test_omega():
    assert omega(5) == 2
    assert omega(13) == 5
    with pytest.raises(NotApplicableError):
        omega(7)
    with pytest.raises(InvalidInputError):
        omega(21)


def test_omega_exhaustive_small_primes():
    for p in range(2, 1000):
        if not is_prime(p) or p % 4 != 1:
            continue
        w = omega(p)
        assert w * w % p == p - 1
        assert w < p / 2
        # uniqueness below p/2
        others = [x for x in range(1, (p + 1) // 2) if x * x % p == p - 1]
        assert others == [w]


def test_alpha():
    assert alpha(3) == 2
    assert alpha(7) == 3
    assert alpha(5) == 2
    with pytest.raises(InvalidInputError):
        alpha(2)
    with pytest.raises(InvalidInputError):
        alpha(15)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        a = alpha(p)
        table = squares(p).squares
        assert a not in table
        assert all(x in table for x in range(1, a))


def test_sqrt_mod():
    assert sqrt_mod(4, 7) == 2
    assert sqrt_mod(3, 5) is None
    assert sqrt_mod(0, 11) == 0
    for p in (3, 5, 7, 11, 13):
        for s in range(p):
            y = sqrt_mod(s, p)
            if y is None:
                assert all(x * x % p != s for x in range(p))
            else:
                assert y * y % p == s
