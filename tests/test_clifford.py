"""Clifford gate lists: gate rules, composition, inversion, pivoting, dense
agreement."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qstab import oracle
from qstab.clifford import (
    GATE_NAMES,
    GATE_SHAPES,
    Gate,
    cnot,
    conjugate,
    conjugate_rows,
    cphase,
    fourier,
    inverse_gates,
    pauli_x,
    pauli_z,
    phase_w,
    pivot_part_gates,
    pivot_to_x1,
    shear_word,
    smult,
)
from qstab.errors import (IdentityOnPart, IndexOutOfRange, NonPrimeD,
                          NotInvertible, ShapeMismatch)
from qstab.modring import inv_mod
from qstab.pauli import (
    from_exponents,
    from_row,
    identity,
    multiply,
    order,
    power,
    to_row,
    x_op,
    z_op,
)


def random_pauli(rng, d, n):
    return from_exponents(d, [rng.randrange(d) for _ in range(n)],
                          [rng.randrange(d) for _ in range(n)],
                          rng.randrange(2 * d))


def images(gates, d, n):
    """Images of the X_i and Z_i generators under the circuit."""
    return ([conjugate(gates, x_op(d, n, i)) for i in range(n)],
            [conjugate(gates, z_op(d, n, i)) for i in range(n)])


def via_images(gates, p):
    """U p U^dag expanded over the generator images with exact phases."""
    image_x, image_z = images(gates, p.d, p.n)
    out = from_exponents(p.d, (0,) * p.n, (0,) * p.n, p.gamma)
    for i in range(p.n):
        if p.x[i]:
            out = multiply(out, power(image_x[i], p.x[i]))
        if p.z[i]:
            out = multiply(out, power(image_z[i], p.z[i]))
    return out


def random_gates(rng, d, n, count):
    gates = []
    for _ in range(count):
        q = rng.randrange(n)
        kind = rng.randrange(7 if n > 1 else 5)
        if kind == 0:
            gates.append(fourier(q))
        elif kind == 1:
            while True:
                a = rng.randrange(1, d)
                try:
                    inv_mod(a, d)
                    break
                except NotInvertible:
                    continue
            gates.append(smult(q, a))
        elif kind == 2:
            gates.append(phase_w(q))
        elif kind == 3:
            gates.append(pauli_x(q, rng.randrange(1, d)))
        elif kind == 4:
            gates.append(pauli_z(q, rng.randrange(1, d)))
        else:
            r = rng.choice([i for i in range(n) if i != q])
            if kind == 5:
                gates.append(cphase(q, r, rng.randrange(1, d)))
            else:
                gates.append(cnot(q, r))
    return gates


def test_fourier_table_rows():
    for d in (2, 3, 4, 5, 6):
        z = z_op(d, 1, 0)
        x = x_op(d, 1, 0)
        assert conjugate([fourier(0)], z) == x
        assert conjugate([fourier(0)], x) == z_op(d, 1, 0, d - 1)


def test_smult_table_rows():
    for d, alpha in ((3, 2), (5, 3), (7, 4)):
        abar = inv_mod(alpha, d)
        assert conjugate([smult(0, alpha)], z_op(d, 1, 0)) == z_op(d, 1, 0, alpha)
        assert conjugate([smult(0, alpha)], x_op(d, 1, 0)) == x_op(d, 1, 0, abar)


def test_smult_rejects_non_invertible():
    with pytest.raises(NotInvertible):
        conjugate([smult(0, 2)], x_op(6, 1, 0))


def test_phase_w_table_rows():
    for d in (3, 5, 7):  # odd: X -> XZ with no extra phase
        got = conjugate([phase_w(0)], x_op(d, 1, 0))
        assert got == from_exponents(d, (1,), (1,), 0)
    for d in (2, 4, 6):  # even: X -> lambda X Z
        got = conjugate([phase_w(0)], x_op(d, 1, 0))
        assert got == from_exponents(d, (1,), (1,), 1)
    for d in (2, 3, 6):
        assert conjugate([phase_w(0)], z_op(d, 1, 0)) == z_op(d, 1, 0)


def test_cnot_equals_fourier_conjugated_cphase():
    # CNOT = (I (x) F) CP (I (x) F)^dag, as conjugation maps
    for d in (2, 3, 5, 6):
        lhs = images([cnot(0, 1)], d, 2)
        rhs = images([fourier(1)] * 3 + [cphase(0, 1, 1), fourier(1)], d, 2)
        assert lhs[0] == rhs[0]
        assert lhs[1] == rhs[1]


def test_conjugate_via_images_equals_gate_replay():
    rng = random.Random(11)
    for d in (2, 3, 5, 6):
        for _ in range(10):
            n = rng.randrange(1, 4)
            gates = random_gates(rng, d, n, 8)
            p = random_pauli(rng, d, n)
            assert via_images(gates, p) == conjugate(gates, p)


def test_conjugate_matches_dense():
    rng = random.Random(12)
    for d in (2, 3, 5):
        for _ in range(8):
            n = rng.randrange(1, 4)
            gates = random_gates(rng, d, n, 6)
            u = oracle.clifford_matrix(d, n, gates)
            p = random_pauli(rng, d, n)
            lhs = u @ oracle.pauli_matrix(p) @ u.conj().T
            assert oracle.matrices_equal(lhs, oracle.pauli_matrix(conjugate(gates, p)))


def test_identity_tableau_fixes_everything():
    rng = random.Random(13)
    for d in (2, 6):
        p = random_pauli(rng, d, 3)
        assert conjugate([], p) == p


def test_fourier_fourth_power_is_identity():
    # independent oracle: dense matrix replay
    for d in (2, 3, 5, 6):
        four = images([fourier(0)] * 4, d, 1)
        assert four[0] == images([], d, 1)[0]
        assert four[1] == images([], d, 1)[1]
        u = oracle.clifford_matrix(d, 1, [fourier(0)] * 4)
        assert oracle.matrices_equal(u, oracle.clifford_matrix(d, 1, []))


def test_compose_and_inverse():
    rng = random.Random(14)
    for d in (2, 3, 4, 5, 6, 1009, 2**31 - 1):
        n = 2
        g1 = random_gates(rng, d, n, 6) + [phase_w(0), cnot(1, 0)]
        g2 = random_gates(rng, d, n, 6)
        both = g2 + g1  # U1 U2: the circuit of U2 runs first
        p = random_pauli(rng, d, n)
        assert conjugate(both, p) == conjugate(g1, conjugate(g2, p))
        # at every D the longest inverse, W^-1, is a word of at most 8 gates
        assert len(inverse_gates(g1, d)) <= 8 * len(g1)
        ident = images([], d, n)
        for round_trip in (g1 + list(inverse_gates(g1, d)),
                           list(inverse_gates(g1, d)) + g1):
            assert images(round_trip, d, n)[0] == ident[0]
            assert images(round_trip, d, n)[1] == ident[1]


def test_compose_associative():
    rng = random.Random(15)
    d, n = 3, 2
    gs = [random_gates(rng, d, n, 5) for _ in range(3)]
    p = random_pauli(rng, d, n)
    # (U0 U1) U2 and U0 (U1 U2): the circuit of U2 runs first
    left = conjugate(gs[1] + gs[0], conjugate(gs[2], p))
    right = conjugate(gs[0], conjugate(gs[2] + gs[1], p))
    assert left == right == conjugate(gs[2] + gs[1] + gs[0], p)


def test_symplectic_and_order_preservation():
    from qstab.pauli import commutation_phase

    rng = random.Random(16)
    for d in (2, 3, 5, 6):
        n = 3
        gates = random_gates(rng, d, n, 10)
        for _ in range(10):
            p, q = random_pauli(rng, d, n), random_pauli(rng, d, n)
            assert commutation_phase(p, q) == commutation_phase(
                conjugate(gates, p), conjugate(gates, q))
            assert order(p) == order(conjugate(gates, p))


def test_gate_log_replay_determinism():
    rng = random.Random(17)
    for d in (2, 5, 6):
        gates = random_gates(rng, d, 3, 12)
        assert images(gates, d, 3) == images(tuple(gates), d, 3)


def test_pivot_already_in_place():
    for d in (2, 3, 5):
        p = x_op(d, 3, 1)
        gates = pivot_to_x1(p, [0, 1, 2], target=1)
        assert gates == ()
        assert conjugate(gates, p) == p


def test_pivot_single_z_is_one_fourier():
    p = z_op(3, 1, 0)
    gates = pivot_to_x1(p, [0])
    assert [g.name for g in gates] == ["F"]
    assert conjugate(gates, p) == x_op(3, 1, 0)


def test_pivot_random_exact_with_dense():
    rng = random.Random(18)
    for d in (2, 3, 5):
        for _ in range(25):
            n = rng.randrange(1, 4)
            p = from_exponents(d, [rng.randrange(d) for _ in range(n)],
                               [rng.randrange(d) for _ in range(n)])
            if p.is_phase():
                continue
            # arrange p^D = I exactly by zeroing gamma of a bare product
            pd = power(p, d)
            if pd.gamma:
                target_gamma = next(g for g in range(2 * d)
                                    if (g * d + pd.gamma) % (2 * d) == 0)
                p = from_exponents(d, p.x, p.z, target_gamma)
            assert power(p, d).is_identity()
            gates = pivot_to_x1(p, range(n))
            got = conjugate(gates, p)
            assert got == x_op(d, n, min(p.support()))
            gates_z = pivot_to_x1(p, range(n), want_z=True)
            assert conjugate(gates_z, p) == z_op(d, n, min(p.support()))
            u = oracle.clifford_matrix(d, n, gates)
            assert oracle.matrices_equal(
                u @ oracle.pauli_matrix(p) @ u.conj().T,
                oracle.pauli_matrix(got))


def test_pivot_errors():
    with pytest.raises(IdentityOnPart):
        pivot_to_x1(identity(3, 2), [0, 1])
    with pytest.raises(NonPrimeD):
        pivot_to_x1(x_op(6, 1, 0), [0])
    with pytest.raises(IdentityOnPart):
        pivot_to_x1(x_op(3, 2, 1), [0])


def test_pivot_rejects_part_qudits_outside_register():
    p = from_exponents(3, (1, 0), (0, 0))
    for part in ([0, 7], [-1, 0]):
        with pytest.raises(IndexOutOfRange):
            pivot_to_x1(p, part)
        with pytest.raises(IndexOutOfRange):
            pivot_part_gates(to_row(p), part, 0, "X", 3)


def test_gates_confined_to_part():
    rng = random.Random(19)
    d, n = 3, 4
    p = from_exponents(d, (0, 1, 2, 0), (0, 2, 1, 0))
    gates = pivot_to_x1(p, [1, 2])
    assert all(set(g.qudits) <= {1, 2} for g in gates)
    assert conjugate(gates, p) == x_op(d, n, 1)


def shear_ts():
    rng = random.Random(17)
    for p in (2, 3, 5, 7, 11, 13):
        for t in range(p):
            yield p, t
    for p in (1009, 2**31 - 1):
        for _ in range(200):
            yield p, rng.randrange(p)


def test_shear_word_acts_as_w_power_in_five_gates():
    rng = random.Random(18)
    for p, t in shear_ts():
        word = shear_word(0, t, p)
        assert len(word) <= 5
        assert {g.name for g in word} <= {"W", "S"}
        # no word beats three plain W, so circuits at D <= 3 keep their runs
        if t <= 3:
            assert word == [phase_w(0)] * t
        for _ in range(4):
            x, z = rng.randrange(p), rng.randrange(p)
            image = conjugate(word, from_exponents(p, [x], [z]))
            assert (image.x, image.z) == ((x,), ((z + t * x) % p,))


def test_inverse_matches_dense_up_to_phase():
    rng = random.Random(20)
    for d in (2, 3, 4, 5, 6, 7):
        n = 2
        gates = random_gates(rng, d, n, 8) + [phase_w(1), cnot(1, 0)]
        u = oracle.clifford_matrix(d, n, gates)
        u_inv = oracle.clifford_matrix(d, n, inverse_gates(gates, d))
        product = u_inv @ u
        phase = product[0, 0]
        assert abs(abs(phase) - 1) < 1e-9
        assert oracle.matrices_equal(product, phase * oracle.clifford_matrix(d, n, []))


def reference_conjugate(gates, p):
    """Gate-by-gate conjugation of one Pauli product, rebuilt after every
    gate: the per-row rules the batched replay must reproduce."""
    d = p.d
    for gate in gates:
        x, z, gamma = list(p.x), list(p.z), p.gamma
        q = gate.qudits[0]
        if gate.name == "F":
            gamma += 2 * x[q] * z[q]
            x[q], z[q] = z[q], -x[q]
        elif gate.name == "S":
            x[q] *= inv_mod(gate.param, d)
            z[q] *= gate.param
        elif gate.name == "W":
            gamma += (1 - d % 2) * x[q] - x[q] * (x[q] - 1)
            z[q] += x[q]
        elif gate.name == "X":
            gamma += 2 * gate.param * z[q]
        elif gate.name == "Z":
            gamma -= 2 * gate.param * x[q]
        elif gate.name == "CP":
            r, w = gate.qudits[1], gate.param
            gamma += 2 * w * x[q] * x[r]
            z[q] -= w * x[r]
            z[r] -= w * x[q]
        else:
            r = gate.qudits[1]
            z[q] += z[r]
            x[r] -= x[q]
        p = from_exponents(d, x, z, gamma)
    return p


@pytest.mark.parametrize("name", GATE_SHAPES)
@pytest.mark.parametrize("extra", [-1, 1])
def test_conjugate_rows_rejects_wrong_qudit_count(name, extra):
    # a CP of a qudit with itself, or an F on two qudits, is no gate
    width = GATE_SHAPES[name][0]
    gate = Gate(name, tuple(range(width + extra)), 1)
    with pytest.raises(ShapeMismatch):
        conjugate_rows([gate], [to_row(x_op(3, 3, 0))], 3)


@st.composite
def circuits_and_rows(draw):
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 1009, 2**31 - 1]))
    n = draw(st.integers(1, 3 if d <= 7 else 5))
    names = GATE_NAMES if n > 1 else GATE_NAMES[:5]
    near_d = st.integers(d - 3, d + 3) | st.integers(0, d - 1)
    gates = []
    for name in draw(st.lists(st.sampled_from(names), max_size=14)):
        q = draw(st.integers(0, n - 1))
        if name in ("CP", "CNOT"):
            r = draw(st.integers(0, n - 2))
            r += r >= q
            gates.append(Gate(name, (q, r), draw(near_d) if name == "CP" else 0))
        elif name == "S":
            unit = st.integers(1, d - 1).filter(lambda a: math.gcd(a, d) == 1)
            gates.append(smult(q, draw(unit)))
        else:
            gates.append(Gate(name, (q,), draw(st.integers(0, 2 * d))))
    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    rows = [from_exponents(d, draw(exps), draw(exps), draw(st.integers(0, 2 * d - 1)))
            for _ in range(draw(st.integers(1, 6)))]
    return d, n, gates, rows


@settings(max_examples=150, deadline=None)
@given(circuits_and_rows())
def test_batched_conjugation_equals_per_row(case):
    d, n, gates, rows = case
    batched = tuple(from_row(d, row) for row in
                    conjugate_rows(gates, [to_row(p) for p in rows], d))
    assert batched == tuple(reference_conjugate(gates, p) for p in rows)
    assert batched == tuple(conjugate(gates, p) for p in rows)
    if d <= 7:
        u = oracle.clifford_matrix(d, n, gates)
        for p, image in zip(rows, batched):
            assert oracle.matrices_equal(u @ oracle.pauli_matrix(p) @ u.conj().T,
                                         oracle.pauli_matrix(image))


def reference_pivot_part_gates(p, part, target, form="X"):
    """The replaying pivot: each step's gates are found by conjugating p
    gate by gate and reading the exponents it lands on."""
    d = p.d
    part = sorted(part)
    if target not in part:
        raise IndexOutOfRange(f"target {target} not in part {part}")
    if all(p.x[i] == 0 and p.z[i] == 0 for i in part):
        raise IdentityOnPart("operator is trivial on the given part")

    gates = []

    def shoot(gate):
        nonlocal p
        gates.append(gate)
        p = conjugate([gate], p)

    def step(q):
        # turn p's q-component into exactly X_q
        if p.x[q] == 0:
            shoot(fourier(q))
        for gate in shear_word(q, -p.z[q] * inv_mod(p.x[q], d), d):
            shoot(gate)
        if p.x[q] != 1:
            shoot(smult(q, p.x[q]))

    if p.x[target] or p.z[target]:
        step(target)
    else:
        # borrow the lowest nontrivial part qudit, then swing it onto target
        src = next(i for i in part if p.x[i] or p.z[i])
        step(src)
        shoot(cnot(src, target))
        step(target)
    for u in part:
        if u == target or (p.x[u] == 0 and p.z[u] == 0):
            continue
        step(u)
        shoot(cnot(target, u))
    if form == "Z":
        for _ in range(3):
            shoot(fourier(target))
    elif form == "Z-":
        shoot(fourier(target))
    elif form != "X":
        raise ShapeMismatch(f"unknown pivot form {form!r}")
    return gates, p


@st.composite
def pivot_cases(draw):
    d = draw(st.sampled_from([2, 3, 5, 7, 11, 1009, 2**31 - 1]))
    n = draw(st.integers(1, 6))
    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    # sparse rows put the target off the support more often
    sparse = st.lists(st.sampled_from([0, 0, 1, d - 1]), min_size=n, max_size=n)
    x, z = draw(exps | sparse), draw(exps | sparse)
    p = from_exponents(d, x, z, draw(st.integers(0, 2 * d - 1)))
    part = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    target = draw(st.sampled_from(sorted(part)))
    return p, part, target, draw(st.sampled_from(["X", "Z", "Z-"]))


@settings(max_examples=300, deadline=None)
@given(pivot_cases())
def test_closed_form_pivot_equals_replay(case):
    p, part, target, form = case
    d = p.d
    if all(p.x[i] == 0 and p.z[i] == 0 for i in part):
        with pytest.raises(IdentityOnPart):
            pivot_part_gates(to_row(p), part, target, form, d)
        return
    gates = pivot_part_gates(to_row(p), part, target, form, d)
    want, moved = reference_pivot_part_gates(p, part, target, form)
    assert gates == want
    image = conjugate(gates, p)
    assert image == moved
    exponent = {"X": (1, 0), "Z": (0, 1), "Z-": (0, d - 1)}[form]
    for q in part:
        assert (image.x[q], image.z[q]) == (exponent if q == target else (0, 0))
    for q in range(p.n):
        if q not in part:
            assert (image.x[q], image.z[q]) == (p.x[q], p.z[q])
