"""Pauli product algebra, pinned against the dense matrix realization."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstab import oracle
from qstab.errors import ShapeMismatch
from qstab.pauli import (
    commutation_phase,
    from_exponents,
    from_row,
    from_text,
    identity,
    inverse,
    multiply,
    order,
    phase_op,
    power,
    proportional,
    tensor,
    to_row,
    to_text,
    x_op,
    z_op,
)

from group_helpers import is_identity_on


def random_pauli(rng, d, n, with_phase=True):
    return from_exponents(d, [rng.randrange(d) for _ in range(n)],
                          [rng.randrange(d) for _ in range(n)],
                          rng.randrange(2 * d) if with_phase else 0)


def test_multiply_identity():
    rng = random.Random(1)
    for d in (2, 3, 6):
        p = random_pauli(rng, d, 3)
        assert multiply(identity(d, 3), p) == p
        assert multiply(p, identity(d, 3)) == p


def test_multiply_z_times_x_matches_dense():
    # the omega power in Z.X is fixed by the defining matrices
    for d in (2, 3, 5, 6):
        z = z_op(d, 1, 0)
        x = x_op(d, 1, 0)
        prod = multiply(z, x)
        assert prod.gamma == 2 * d - 2
        assert oracle.matrices_equal(
            oracle.pauli_matrix(z) @ oracle.pauli_matrix(x),
            oracle.pauli_matrix(prod))


def test_inverse_cancels():
    rng = random.Random(2)
    for d in (2, 3, 5, 6, 10):
        for _ in range(20):
            p = random_pauli(rng, d, 2)
            assert multiply(p, inverse(p)).is_identity()
            assert multiply(inverse(p), p).is_identity()


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        multiply(x_op(2, 1, 0), x_op(2, 2, 0))
    with pytest.raises(ShapeMismatch):
        commutation_phase(x_op(2, 1, 0), x_op(3, 1, 0))


def test_commutation_self():
    rng = random.Random(3)
    for d in (2, 5, 6):
        p = random_pauli(rng, d, 3)
        assert commutation_phase(p, p) == 0


def test_commutation_x_z_sign_pinned_by_dense():
    # p q = omega^alpha q p as matrices decides the sign convention
    for d in (2, 3, 5):
        x = x_op(d, 1, 0)
        z = z_op(d, 1, 0)
        assert commutation_phase(x, z) == 1
        assert commutation_phase(z, x) == d - 1
        om = np.exp(2j * np.pi / d)
        mx, mz = oracle.pauli_matrix(x), oracle.pauli_matrix(z)
        assert oracle.matrices_equal(mx @ mz, om ** 1 * mz @ mx)


def test_epr_generators_commute():
    for d in (2, 3, 5, 6):
        xx = from_exponents(d, (1, 1), (0, 0))
        zz = from_exponents(d, (0, 0), (1, d - 1))
        assert commutation_phase(xx, zz) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3),
       st.randoms(use_true_random=False))
def test_multiply_matches_dense(d, n, rng):
    p = random_pauli(rng, d, n)
    q = random_pauli(rng, d, n)
    assert oracle.matrices_equal(
        oracle.pauli_matrix(p) @ oracle.pauli_matrix(q),
        oracle.pauli_matrix(multiply(p, q)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
def test_commutation_identity_in_algebra(d, n, rng):
    p = random_pauli(rng, d, n)
    q = random_pauli(rng, d, n)
    alpha = commutation_phase(p, q)
    lhs = multiply(p, q)
    rhs = multiply(phase_op(d, n, 2 * alpha), multiply(q, p))
    assert lhs == rhs


def test_order_identity():
    assert order(identity(5, 2)) == 1
    assert order(phase_op(5, 2, 3)) == 1


def test_order_brute_force_composite():
    # independent oracle: dense repeated multiplication until proportional to I
    x = x_op(6, 1, 0)
    assert order(x) == 6 == oracle.pauli_order_dense(x)
    x2 = x_op(6, 1, 0, 2)
    assert order(x2) == 3 == oracle.pauli_order_dense(x2)


def test_order_prime_nonidentity():
    rng = random.Random(4)
    for d in (2, 3, 5, 7):
        for _ in range(20):
            p = random_pauli(rng, d, 2)
            if p.is_phase():
                continue
            assert order(p) == d


def test_power_reaches_identity_up_to_phase():
    rng = random.Random(5)
    for d in (2, 3, 6, 10):
        for _ in range(20):
            p = random_pauli(rng, d, 2)
            q = power(p, order(p))
            assert q.is_phase()
            # p^D is I or -I
            pd = power(p, d)
            assert pd.is_phase() and pd.gamma in (0, d)


def test_power_closed_form_vs_repeated_multiply():
    rng = random.Random(6)
    for d in (2, 3, 6):
        for _ in range(10):
            p = random_pauli(rng, d, 2)
            acc = identity(d, 2)
            for k in range(2 * d + 2):
                assert power(p, k) == acc
                acc = multiply(acc, p)


def test_tensor_disjoint_supports_commute():
    for d in (2, 3, 6):
        left = tensor(x_op(d, 1, 0), identity(d, 1))
        right = tensor(identity(d, 1), z_op(d, 1, 0))
        assert commutation_phase(left, right) == 0


def test_is_identity_on():
    p = tensor(x_op(2, 1, 0), identity(2, 1))
    assert is_identity_on(p, [1])
    assert not is_identity_on(p, [0])


def test_proportional():
    p = from_exponents(3, (1,), (2,), 1)
    q = from_exponents(3, (1,), (2,), 4)
    assert proportional(p, q) == (1 - 4) % 6
    assert proportional(p, x_op(3, 1, 0)) is None


def test_hilbert_schmidt_orthonormality():
    # gamma = 0 products form an orthonormal operator basis
    for d in (2, 3, 5):
        for n in (1, 2):
            mats = {}
            for xs in np.ndindex(*([d] * n)):
                for zs in np.ndindex(*([d] * n)):
                    mats[(xs, zs)] = oracle.pauli_matrix(
                        from_exponents(d, xs, zs))
            keys = list(mats)
            rng = random.Random(7)
            for _ in range(40):
                k1, k2 = rng.choice(keys), rng.choice(keys)
                ip = np.trace(mats[k1].conj().T @ mats[k2]) / d**n
                want = 1.0 if k1 == k2 else 0.0
                assert abs(ip - want) < 1e-10


def test_text_round_trip():
    rng = random.Random(8)
    for d in (2, 6):
        for _ in range(20):
            p = random_pauli(rng, d, rng.randrange(0, 4))
            assert from_row(d, from_text(to_text(to_row(p)), d)) == p
