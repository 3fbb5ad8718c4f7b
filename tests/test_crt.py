"""CRT decomposition of Paulis, generators, groups, and states."""

import random

import numpy as np
import pytest

from qstab import oracle
from qstab.crt import (
    decompose_group,
    decompose_state,
    split_generator,
    split_pauli,
)
from qstab.errors import InvalidStabilizer, NotAState
from qstab.modring import crt_combine, factorize, make_split
from qstab.pauli import (
    commutation_phase,
    from_exponents,
    from_row,
    identity,
    order,
    power,
    to_row,
    x_op,
    z_op,
)
from qstab.randgen import random_state
from qstab.stabilizer import (
    StabilizerGroup,
    epr_group,
    ghz_group,
    groups_equal,
    plus_state_group,
)


def random_pauli(rng, d, n):
    return from_exponents(d, [rng.randrange(d) for _ in range(n)],
                          [rng.randrange(d) for _ in range(n)],
                          rng.randrange(2 * d))


def crt_unitary(d, d1, n):
    """Dense per-qudit basis map a -> (a mod d1, a mod d2), qudit-major."""
    d2 = d // d1
    dim = d**n
    u = np.zeros((dim, dim), complex)
    for col in range(dim):
        digits = [(col // d ** (n - 1 - i)) % d for i in range(n)]
        row = 0
        for a in digits:
            row = row * d1 + (a % d1)
            row = row * d2 + (a % d2)
        u[row, col] = 1.0
    return u


def split_tensor_matrix(p1, p2):
    """Interleaved (per-qudit) tensor of the two component Paulis."""
    d1, d2 = p1.d, p2.d
    m = np.array([[np.exp(1j * np.pi / d1) ** p1.gamma
                   * np.exp(1j * np.pi / d2) ** p2.gamma]])
    for i in range(p1.n):
        m = np.kron(m, np.kron(
            oracle.x_matrix(d1, p1.x[i]) @ oracle.z_matrix(d1, p1.z[i]),
            oracle.x_matrix(d2, p2.x[i]) @ oracle.z_matrix(d2, p2.z[i])))
    return m


def test_split_x_and_z():
    split = make_split(6, 2)
    x1, x2 = split_pauli(x_op(6, 1, 0), split)
    assert (x1, x2) == (x_op(2, 1, 0), x_op(3, 1, 0))
    z1, z2 = split_pauli(z_op(6, 1, 0), split)
    assert z1 == z_op(2, 1, 0, split.r1)
    assert z2 == z_op(3, 1, 0, split.r2)
    assert (split.r1, split.r2) == (1, 2)


def test_split_identity():
    split = make_split(10, 2)
    i1, i2 = split_pauli(identity(10, 2), split)
    assert i1.is_identity() and i2.is_identity()


def test_split_pauli_dense_exact():
    rng = random.Random(30)
    for d, d1 in ((6, 2), (6, 3), (10, 2), (15, 3)):
        split = make_split(d, d1)
        for _ in range(20):
            n = rng.randrange(1, 3)
            p = random_pauli(rng, d, n)
            p1, p2 = split_pauli(p, split)
            u = crt_unitary(d, d1, n)
            lhs = u @ oracle.pauli_matrix(p) @ u.conj().T
            assert oracle.matrices_equal(lhs, split_tensor_matrix(p1, p2))


def test_split_preserves_commutation():
    rng = random.Random(31)
    for d, d1 in ((6, 2), (15, 5), (30, 2)):
        split = make_split(d, d1)
        for _ in range(20):
            p, q = random_pauli(rng, d, 2), random_pauli(rng, d, 2)
            alpha = commutation_phase(p, q)
            p1, p2 = split_pauli(p, split)
            q1, q2 = split_pauli(q, split)
            # omega_d^alpha restricted to each component ring
            assert commutation_phase(p1, q1) == (alpha * split.r1) % split.d1
            assert commutation_phase(p2, q2) == (alpha * split.r2) % split.d2


def test_exponent_round_trip():
    rng = random.Random(32)
    for d, d1 in ((6, 2), (10, 5), (21, 3)):
        split = make_split(d, d1)
        for _ in range(20):
            p = random_pauli(rng, d, 3)
            p1, p2 = split_pauli(p, split)
            for i in range(3):
                assert crt_combine(p1.x[i], p2.x[i], split) == p.x[i]


def test_generator_split_data_orders():
    split = make_split(6, 2)
    assert order(x_op(6, 1, 0)) == 6
    h1, h2 = split_generator(x_op(6, 1, 0), split)
    assert order(h1) == 2 and order(h2) == 3


def test_split_prime_power_part_gives_identity():
    # an order-2 element at D=6 has trivial d2 = 3 component
    split = make_split(6, 2)
    g = x_op(6, 1, 0, 3)
    assert order(g) == 2
    h1, h2 = split_generator(g, split)
    assert h2.is_identity()
    assert order(h1) == 2


def test_split_generator_group_equality():
    # <image of g> = <h1> (x) <h2> checked by element enumeration
    rng = random.Random(33)
    split = make_split(6, 2)
    for _ in range(10):
        p = random_pauli(rng, 6, 1)
        if not power(p, order(p)).is_identity():
            continue
        h1, h2 = split_generator(p, split)
        d1_els = {str(power(h1, k)) for k in range(order(h1))}
        d2_els = {str(power(h2, k)) for k in range(order(h2))}
        assert len(d1_els) * len(d2_els) == order(p)
        assert order(h1) * order(h2) == order(p)


def test_split_generator_rejects_phase_defect():
    split = make_split(6, 2)
    bad = from_exponents(6, (1,), (0,), 1)  # (lambda X)^6 = -I
    with pytest.raises(InvalidStabilizer):
        split_generator(bad, split)


def test_decompose_ghz_and_epr():
    for d in (6, 10, 15):
        for source in (ghz_group, epr_group):
            factors = decompose_state(source(d))
            assert [p for p, _ in factors] == [p for p, _ in
                                               factorize(d).factors]
            for p, fac in factors:
                assert groups_equal(fac, source(p))


def test_decompose_plus_states():
    factors = decompose_state(plus_state_group(6, 3))
    for p, fac in factors:
        assert groups_equal(fac, plus_state_group(p, 3))


def test_prime_group_unchanged():
    g = ghz_group(5)
    assert decompose_group(g) == [(5, g)]


def test_decompose_thirty():
    s = random_state(30, 2, 5)
    factors = decompose_group(s)
    assert [p for p, _ in factors] == [2, 3, 5]
    total = 1
    for p, fac in factors:
        total *= fac.size
        # commuting and valid by construction; double-check pairwise
        for a in fac.gens:
            for b in fac.gens:
                assert commutation_phase(from_row(p, a), from_row(p, b)) == 0
    assert total == s.size


def test_decompose_state_dense_fidelity():
    for d in (6, 10):
        nmax = 4 if d == 6 else 3
        for seed in range(5):
            n = 2 + seed % (nmax - 1)
            s = random_state(d, n, seed + 17 * d)
            factors = decompose_state(s)
            v = oracle.state_from_group(s)
            embedded = oracle.crt_embedded_state(v, d, n, [p for p, _ in factors])
            product = oracle.kron_states(
                [oracle.state_from_group(f) for _, f in factors])
            assert oracle.fidelity(embedded, product) >= 1 - 1e-9


def test_decompose_state_requires_state():
    partial = StabilizerGroup(6, 2, tuple(map(to_row, (x_op(6, 2, 0),))))
    with pytest.raises(NotAState):
        decompose_state(partial)
