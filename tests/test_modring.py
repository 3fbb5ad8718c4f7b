"""Modular arithmetic and CRT ring maps."""

import pytest
from hypothesis import given, strategies as st

from qstab.errors import InvalidDimension, NotCoprime, NotInvertible
from qstab.modring import (
    crt_combine,
    egcd,
    factorize,
    inv_mod,
    is_prime,
    make_split,
    sqrt_mod,
)


def test_factorize_prime():
    mod = factorize(7)
    assert mod.factors == ((7, 1),)
    assert mod.squarefree and mod.is_prime


def test_factorize_six():
    mod = factorize(6)
    assert mod.factors == ((2, 1), (3, 1))
    assert mod.squarefree and not mod.is_prime


def test_factorize_twelve():
    mod = factorize(12)
    assert mod.factors == ((2, 2), (3, 1))
    assert not mod.squarefree


def test_factorize_rejects_small():
    with pytest.raises(InvalidDimension):
        factorize(1)


@given(st.integers(min_value=2, max_value=100000))
def test_factorize_reconstructs(d):
    mod = factorize(d)
    prod = 1
    for p, e in mod.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == d
    assert [p for p, _ in mod.factors] == sorted({p for p, _ in mod.factors})


def test_inv_mod_examples():
    assert inv_mod(1, 5) == 1
    assert inv_mod(3, 7) == 5
    with pytest.raises(NotInvertible):
        inv_mod(2, 6)


@given(st.integers(min_value=2, max_value=500), st.integers())
def test_inv_mod_property(m, a):
    try:
        b = inv_mod(a, m)
    except NotInvertible:
        from math import gcd

        assert gcd(a, m) != 1
        return
    assert 0 <= b < m
    assert (a * b) % m == 1


def test_egcd():
    g, x, y = egcd(240, 46)
    assert g == 2 and 240 * x + 46 * y == 2


def test_make_split_six():
    split = make_split(6, 2)
    # r_i = (D/d_i)^{-1} mod d_i
    assert (split.d1, split.d2) == (2, 3)
    assert split.r1 == inv_mod(3, 2) == 1
    assert split.r2 == inv_mod(2, 3) == 2
    assert split.u * split.d2 + split.v * split.d1 == 1


def test_make_split_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        make_split(12, 2)  # 2 and 6 share a factor
    with pytest.raises(NotCoprime):
        make_split(6, 5)


def test_crt_combine_derived_value():
    # independent oracle: exhaustive search over Z_6
    split = make_split(6, 2)
    expected = [a for a in range(6) if a % 2 == 1 and a % 3 == 2]
    assert expected == [5]
    assert crt_combine(1, 2, split) == 5
    assert crt_combine(0, 0, split) == 0


@pytest.mark.parametrize("d,d1", [(6, 2), (6, 3), (10, 2), (15, 3), (30, 2),
                                  (210, 6), (9996, 4)])
def test_crt_round_trip(d, d1):
    split = make_split(d, d1)
    for a in range(d):
        assert crt_combine(a % split.d1, a % split.d2, split) == a


def test_crt_split_fields_are_units():
    from math import gcd

    for d, d1 in ((6, 2), (30, 5), (105, 7)):
        split = make_split(d, d1)
        assert gcd(split.r1, split.d1) == 1
        assert gcd(split.r2, split.d2) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 1009, 65537, 2**31 - 1])
def test_sqrt_mod_smaller_root_or_none(p):
    squares = {x * x % p for x in range(min(p, 200))}
    for a in range(min(p, 200)):
        r = sqrt_mod(a, p)
        if r is None:
            assert pow(a, (p - 1) // 2, p) == p - 1
        else:
            assert r * r % p == a and r <= p - r
        if a in squares:
            assert r is not None


def test_factorize_is_cached():
    assert factorize(2**31 - 1) is factorize(2**31 - 1)
