"""Dense-matrix oracle semantics."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstab import oracle, pauli, stabilizer
from qstab.channel import CodeSpec
from qstab.clifford import cnot, cphase, fourier, smult
from qstab.errors import NotAState, TooLarge
from qstab.pauli import PauliProduct, from_exponents, from_row, to_row, x_op, z_op
from qstab.randgen import random_code, random_part_gates, random_state
from qstab.stabilizer import (
    GraphAdjacency,
    StabilizerGroup,
    epr_group,
    ghz_group,
    plus_state_group,
    subgroup_on_part,
)


def test_z_matrix_qubit():
    assert oracle.matrices_equal(oracle.pauli_matrix(z_op(2, 1, 0)),
                                 np.diag([1.0, -1.0]))


def test_fourier_is_hadamard_at_two():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert oracle.matrices_equal(oracle.gate_matrix(fourier(0), 2, 1), h)


def test_x_power_d_is_identity():
    for d in (2, 3, 5, 6):
        m = oracle.pauli_matrix(x_op(d, 1, 0))
        assert oracle.matrices_equal(np.linalg.matrix_power(m, d), np.eye(d))


def test_x_z_commutation_matrix():
    for d in (2, 3, 5):
        x = oracle.pauli_matrix(x_op(d, 1, 0))
        z = oracle.pauli_matrix(z_op(d, 1, 0))
        om = np.exp(2j * np.pi / d)
        assert oracle.matrices_equal(x @ z, om * z @ x)


def test_state_plus():
    for d in (2, 3, 5):
        v = oracle.state_from_group(plus_state_group(d, 1))
        assert oracle.states_equal_up_to_phase(v, np.ones(d) / np.sqrt(d))


def test_state_ghz_qubits():
    v = oracle.state_from_group(ghz_group(2))
    want = np.zeros(8)
    want[0] = want[7] = 1 / np.sqrt(2)
    assert oracle.states_equal_up_to_phase(v, want)


def test_state_requires_full_group():
    with pytest.raises(NotAState):
        oracle.state_from_group(
            StabilizerGroup(3, 2, tuple(map(to_row, (x_op(3, 2, 0),)))))


def test_too_large():
    with pytest.raises(TooLarge):
        oracle.state_from_group(plus_state_group(2, 13))
    with pytest.raises(TooLarge):
        oracle.pauli_matrix(x_op(2, 13, 0))


def test_reduced_density_examples():
    for d in (2, 3):
        v = oracle.state_from_group(epr_group(d))
        rho = oracle.reduced_density(v, [0], d, 2)
        assert oracle.matrices_equal(rho, np.eye(d) / d, tol=1e-9)
        assert oracle.schmidt_rank(v, [0], d, 2) == d
        prod = oracle.state_from_group(plus_state_group(d, 2))
        assert oracle.schmidt_rank(prod, [0], d, 2) == 1


def test_state_matches_literal_projector_sum():
    # independent oracle: sum all |S| element matrices, eigen-check the
    # projector, and compare its top eigenvector with the fast construction
    from qstab.stabilizer import elements

    for d in (2, 3, 5):
        for n in (2, 3):
            if d**n > 130:
                continue
            s = random_state(d, n, 5 * d + n)
            proj = sum(oracle.pauli_matrix(from_row(d, el))
                       for el in elements(s)) / d**n
            assert oracle.matrices_equal(proj @ proj, proj, tol=1e-9)
            evals, evecs = np.linalg.eigh(proj)
            assert np.sum(evals > 1e-9) == 1
            assert abs(evals[-1] - 1.0) < 1e-9
            v = oracle.state_from_group(s)
            assert oracle.states_equal_up_to_phase(v, evecs[:, -1])


def test_rank_formula_cross_module():
    # Eq-style rank identity on many random groups
    import random

    rng = random.Random(50)
    checked = 0
    for d in (2, 3, 5):
        for seed in range(34):
            n = rng.randrange(2, 5)
            s = random_state(d, n, seed + 31 * d)
            part = [q for q in range(n) if rng.random() < 0.5]
            if not part or len(part) == n:
                continue
            v = oracle.state_from_group(s)
            rho = oracle.reduced_density(v, part, d, n)
            sub = subgroup_on_part(s, part)
            assert oracle.density_rank(rho) == d ** len(part) // sub.size
            checked += 1
    assert checked > 70


def test_gate_matrix_unitarity():
    for d in (2, 3, 6):
        for gate in (fourier(0), smult(0, d - 1), cphase(0, 1, 1), cnot(0, 1)):
            n = max(gate.qudits) + 1
            u = oracle.gate_matrix(gate, d, n)
            assert oracle.matrices_equal(u @ u.conj().T, np.eye(d**n))


def test_state_conjugation_covariance():
    # state(U S U^dag) = clifford_matrix(U) state(S) up to phase
    import random

    from qstab.randgen import random_part_gates, scramble_group

    rng = random.Random(51)
    for d in (2, 3):
        s = random_state(d, 3, 17 * d)
        gates = random_part_gates(d, range(3), rng, 6)
        scrambled = scramble_group(s, gates)
        u = oracle.clifford_matrix(d, 3, gates)
        lhs = oracle.state_from_group(scrambled)
        rhs = u @ oracle.state_from_group(s)
        assert oracle.fidelity(lhs, rhs) >= 1 - 1e-9


def test_apply_channel_identity_code():
    from qstab.channel import CodeSpec

    for d in (2, 3):
        code = CodeSpec(1, 1, d, GraphAdjacency(1, ((0,),)),
                        tuple(map(to_row, (z_op(d, 1, 0),))))
        v_iso = oracle.isometry_from_code(code.graph_group, code.coding_gens)
        rng = np.random.default_rng(1)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = rho @ rho.conj().T
        out = oracle.apply_channel(v_iso, [0], d, 1, rho)
        # the isometry is the Fourier gate: a perfect (unitary) channel
        f = oracle.gate_matrix(fourier(0), d, 1)
        assert oracle.matrices_equal(out, f @ rho @ f.conj().T, tol=1e-8)


def test_apply_channel_ghz_code_dephases():
    # perfectly decohering up to local unitaries: all outputs share one
    # eigenbasis, and traces are preserved
    from qstab.channel import CodeSpec

    for d in (2, 3):
        code = CodeSpec(2, 1, d, GraphAdjacency.from_edges(2, [(0, 1, 1)]),
                        tuple(map(to_row, (z_op(d, 2, 0),))))
        v_iso = oracle.isometry_from_code(code.graph_group, code.coding_gens)
        rng = np.random.default_rng(2)
        outs = []
        for _ in range(3):
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = rho @ rho.conj().T
            out = oracle.apply_channel(v_iso, [0], d, 2, rho)
            assert abs(np.trace(out) - np.trace(rho)) < 1e-8
            outs.append(out)
        for a in outs:
            for b in outs:
                assert oracle.matrices_equal(a @ b, b @ a, tol=1e-8)


def test_pauli_transmitted_counts():
    # the transmitted pattern sets have the sizes the decompositions predict:
    # d^2 for a perfect channel, d for a decohering one
    from qstab.channel import CodeSpec

    for d in (2, 3):
        perfect = CodeSpec(1, 1, d, GraphAdjacency(1, ((0,),)),
                           tuple(map(to_row, (z_op(d, 1, 0),))))
        v_iso = oracle.isometry_from_code(perfect.graph_group,
                                          perfect.coding_gens)
        assert len(oracle.brute_force_info_group(v_iso, [0], d, 1, 1)) == d**2
        decoher = CodeSpec(2, 1, d, GraphAdjacency.from_edges(2, [(0, 1, 1)]),
                           tuple(map(to_row, (z_op(d, 2, 0),))))
        v_iso = oracle.isometry_from_code(decoher.graph_group,
                                          decoher.coding_gens)
        transmitted = oracle.brute_force_info_group(v_iso, [0], d, 2, 1)
        assert len(transmitted) == d
        # a decohering channel transmits a commuting set
        from qstab.pauli import commutation_phase, from_exponents as fe

        for (x1, z1) in transmitted:
            for (x2, z2) in transmitted:
                assert commutation_phase(fe(d, x1, z1), fe(d, x2, z2)) == 0


def test_tableau_vs_matrix_conjugation_bulk():
    import random

    from qstab.clifford import conjugate
    from qstab.randgen import random_part_gates

    rng = random.Random(52)
    for d in (2, 3, 5):
        for _ in range(6):
            n = rng.randrange(1, 4)
            gates = random_part_gates(d, range(n), rng, 7)
            u = oracle.clifford_matrix(d, n, gates)
            p = from_exponents(d, [rng.randrange(d) for _ in range(n)],
                               [rng.randrange(d) for _ in range(n)],
                               rng.randrange(2 * d))
            assert oracle.matrices_equal(
                u @ oracle.pauli_matrix(p) @ u.conj().T,
                oracle.pauli_matrix(conjugate(gates, p)))


def _apply_by_axes(p, v):
    """p v by contracting each qudit's local X^x Z^z matrix into its tensor
    axis: an application path that shares nothing with index arithmetic."""
    d, n = p.d, p.n
    t = v.reshape([d] * n)
    for i in range(n):
        local = oracle.x_matrix(d, p.x[i]) @ oracle.z_matrix(d, p.z[i])
        t = np.moveaxis(np.tensordot(local, t, axes=(1, i)), 0, i)
    return np.exp(1j * np.pi * p.gamma / d) * t.reshape(-1)


@st.composite
def pauli_lists(draw):
    d = draw(st.sampled_from([2, 3, 5, 7, 6, 10, 15, 30]))
    n = draw(st.integers(0, max(n for n in range(5) if d**n <= 256)))
    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    paulis = draw(st.lists(st.builds(lambda x, z, g: from_exponents(d, x, z, g),
                                     exps, exps, st.integers(0, 2 * d - 1)),
                           max_size=4))
    return d, n, paulis


@settings(max_examples=80, deadline=None)
@given(pauli_lists(), st.integers(0, 2**32 - 1))
def test_pauli_actions_match_dense_matrices(case, seed):
    # row i of the batched actions applies paulis[i] as its dense matrix
    # does, at n = 0 and for an empty list too
    d, n, paulis = case
    idx, phase = oracle._pauli_actions(list(map(to_row, paulis)), d, n)
    assert idx.shape == phase.shape == (len(paulis), d**n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    for p, action in zip(paulis, zip(idx, phase)):
        assert sorted(action[0]) == list(range(d**n))
        assert oracle.matrices_equal(oracle._act(action, v),
                                     oracle.pauli_matrix(p) @ v)


def test_state_build_at_n_zero_and_large_d():
    # no qudits: the dense cap leaves D unbounded, and the phases of the
    # D^0 entries must not cost a table of all 2D powers of lambda
    d = 2**31 - 1
    v = oracle.state_from_group(StabilizerGroup(d, 0, ()))
    assert v.shape == (1,) and abs(abs(v[0]) - 1.0) < 1e-12
    idx, phase = oracle._pauli_actions([to_row(from_exponents(d, [], [], 5))],
                                       d, 0)
    assert idx.tolist() == [[0]]
    assert np.allclose(phase, np.exp(1j * np.pi * 5 / d))


@st.composite
def dense_states(draw):
    d = draw(st.sampled_from([2, 3, 5, 7, 6, 10, 15, 30]))
    n_max = max(n for n in range(13) if d**n <= oracle.DIMENSION_CAP)
    n = draw(st.integers(0, n_max))
    return random_state(d, n, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(dense_states())
def test_state_build_properties(group):
    # a unit vector fixed by every generator of a D^n-element group is the
    # state; at D^n <= 256 it is also the top eigenvector of the literal
    # projector sum over the enumerated group
    d, n = group.d, group.n
    v = oracle.state_from_group(group)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    for g in group.gens:
        assert oracle.matrices_equal(_apply_by_axes(from_row(d, g), v), v,
                                     tol=1e-9)
    if d**n <= 256:
        proj = sum(oracle.pauli_matrix(from_row(d, el))
                   for el in stabilizer.elements(group)) / d**n
        evals, evecs = np.linalg.eigh(proj)
        assert abs(evals[-1] - 1.0) < 1e-9
        assert oracle.states_equal_up_to_phase(v, evecs[:, -1])


def test_dense_oracle_uses_no_exact_path_algebra(monkeypatch):
    # the state build, the isometry and the brute-force groups must give the
    # same results with the group enumeration and the Pauli algebra disabled
    states = [random_state(d, n, 7 * d + n) for d, n in ((2, 5), (3, 4), (6, 3))]
    graph, coding = random_code(3, 3, 2, 4)
    code = CodeSpec(3, 2, 3, graph, tuple(coding))
    graph_group = code.graph_group

    def run():
        vs = [oracle.state_from_group(s) for s in states]
        v_iso = oracle.isometry_from_code(graph_group, code.coding_gens)
        groups = [oracle.brute_force_info_group(v_iso, keep, 3, 3, 2)
                  for keep in ([0], [1, 2])]
        return vs, v_iso, groups

    want = run()

    def forbidden(*args, **kwargs):
        raise AssertionError("dense oracle reached the exact-path algebra")

    for module, name in ((stabilizer, "elements"), (pauli, "multiply"),
                         (pauli, "power"), (pauli, "order")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, forbidden)
        for alias, obj in list(vars(oracle).items()):
            if obj is original:
                monkeypatch.setattr(oracle, alias, forbidden)
    got = run()
    assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _kron_reference(v_iso, keep, d, n, k):
    return [(xs, zs)
            for xs in itertools.product(range(d), repeat=k)
            for zs in itertools.product(range(d), repeat=k)
            if oracle.pauli_transmitted(v_iso, keep, d, n,
                                        PauliProduct(d, 0, xs, zs))]


@pytest.mark.parametrize("d, n, k, seed", [
    (3, 4, 2, 1), (3, 3, 1, 2), (3, 2, 2, 3), (5, 2, 1, 4), (5, 3, 1, 5),
    (5, 2, 2, 6)])
def test_brute_force_info_group_matches_kron_reference(d, n, k, seed):
    # the contraction against conj(V) must transmit exactly the patterns the
    # V rho V^dag + partial-trace path transmits, for empty, partial and
    # full kept sets
    graph, coding = random_code(d, n, k, seed)
    code = CodeSpec(n, k, d, graph, tuple(coding))
    v_iso = oracle.isometry_from_code(code.graph_group, code.coding_gens)
    for keep in ([], list(range(0, n, 2)), list(range(n))):
        want = _kron_reference(v_iso, keep, d, n, k)
        assert oracle.brute_force_info_group(v_iso, keep, d, n, k) == want


@pytest.mark.parametrize("d", [2, 3, 5, 7, 1021, 4093])
def test_orbit_sum_by_doubling_matches_literal_sum(d, monkeypatch):
    # the doubled orbit sum equals v + g v + ... + g^{D-1} v term by term,
    # and a state build acts at most 2 ceil(log2 D) times per generator
    n = max(n for n in range(1, 13) if d**n <= oracle.DIMENSION_CAP)
    rng = np.random.default_rng(d)
    for seed in range(3):
        group = random_state(d, n, seed)
        v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        for action in zip(*oracle._pauli_actions(group.gens, d, n)):
            literal, w = v, v
            for _ in range(d - 1):
                w = oracle._act(action, w)
                literal = literal + w
            assert np.allclose(oracle._orbit_sum(action, v, d), literal,
                               rtol=0, atol=1e-9 * d)
        calls = []
        real_act = oracle._act

        def counting_act(action, w):
            calls.append(1)
            return real_act(action, w)

        monkeypatch.setattr(oracle, "_act", counting_act)
        state = oracle.state_from_group(group)
        monkeypatch.setattr(oracle, "_act", real_act)
        assert len(calls) <= 2 * math.ceil(math.log2(d)) * len(group.gens)
        if d <= 7:  # the per-axis product builds D x D matrices
            for g in group.gens:
                assert oracle.matrices_equal(
                    _apply_by_axes(from_row(d, g), state), state, tol=1e-9)


@st.composite
def small_codes(draw):
    d = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, max(n for n in range(1, 5) if d**n <= 343)))
    k = draw(st.integers(0, max(k for k in range(min(n, 2) + 1)
                                if d ** (n + k) <= 343)))
    seed = draw(st.integers(0, 2**32 - 1))
    graph, coding = random_code(d, n, k, seed)
    keep = sorted(draw(st.sets(st.integers(0, n - 1))))
    # 4k random gates on the inputs, a Clifford turning V into V U
    tilt = random_part_gates(d, range(k), random.Random(seed), 4 * k)
    return CodeSpec(n, k, d, graph, tuple(coding)), keep, tilt


@settings(max_examples=100, deadline=None)
@given(small_codes())
def test_brute_force_info_group_property(case):
    # the per-X-pattern contraction lists exactly the patterns, in the same
    # order, that V rho V^dag plus a partial trace transmits, for no kept
    # output, a drawn subset and all outputs; the input-side Clifford tilts
    # the transmitted patterns off the X and Z axes, where a slip in the
    # character table's sign would relabel them unseen
    code, drawn, tilt = case
    d, n, k = code.d, code.n, code.k
    v_iso = (oracle.isometry_from_code(code.graph_group, code.coding_gens)
             @ oracle.clifford_matrix(d, k, tilt))
    for keep in ([], drawn, list(range(n))):
        assert (oracle.brute_force_info_group(v_iso, keep, d, n, k)
                == _kron_reference(v_iso, keep, d, n, k))


@pytest.mark.parametrize("d, n, k", [(2, 5, 5), (3, 4, 2), (5, 2, 1),
                                     (7, 2, 0)])
def test_brute_force_info_group_contracts_once_per_x_pattern(d, n, k,
                                                             monkeypatch):
    # one stacked product V_{m - x} V_m^dag over m per input X pattern, and
    # no einsum beside it
    graph, coding = random_code(d, n, k, 1)
    code = CodeSpec(n, k, d, graph, tuple(coding))
    v_iso = oracle.isometry_from_code(code.graph_group, code.coding_gens)
    calls = []
    real_matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        calls.append(1)
        return real_matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    monkeypatch.delattr(np, "einsum")
    oracle.brute_force_info_group(v_iso, [0], d, n, k)
    assert len(calls) == d**k
