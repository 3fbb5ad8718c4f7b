"""Stabilizer code channels: Choi states, capacities, info groups, duality."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from qstab import channel, linalg, oracle, verify
from qstab.channel import (
    CodeSpec,
    analyze_channel,
    centralizer_in_pauli,
    code_to_choi_state,
    graph_choi_to_code,
    pauli_groups_equal,
    to_original_input_basis,
    transpose_pauli,
    verify_duality,
)
from qstab.clifford import conjugate, inverse_gates
from qstab.errors import (
    InternalInvariant,
    InvalidCode,
    NonPrimeD,
    NotMaximallyMixedInput,
    ShapeMismatch,
)
from qstab.pauli import from_exponents, from_row, phase_op, to_row, x_op, z_op
from qstab.randgen import random_code, random_partition
from qstab.stabilizer import (
    GraphAdjacency,
    from_graph,
    groups_equal,
    reduced_rank,
)

PENTAGON = GraphAdjacency.from_edges(
    5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])


def identity_like_code(d):
    return CodeSpec(1, 1, d, GraphAdjacency(1, ((0,),)),
                    tuple(map(to_row, (z_op(d, 1, 0),))))


def ghz_code(d):
    return CodeSpec(2, 1, d, GraphAdjacency.from_edges(2, [(0, 1, 1)]),
                    tuple(map(to_row, (z_op(d, 2, 0),))))


def make_code(d, n, k, seed):
    graph, coding = random_code(d, n, k, seed)
    return CodeSpec(n, k, d, graph, tuple(coding))


def test_code_validation():
    with pytest.raises(NonPrimeD):
        identity_like_code(6)
    with pytest.raises(InvalidCode):
        CodeSpec(2, 1, 3, GraphAdjacency(2, ((0, 0), (0, 0))),
                 tuple(map(to_row, (x_op(3, 2, 0),))))
    with pytest.raises(InvalidCode):
        CodeSpec(2, 2, 3, GraphAdjacency(2, ((0, 0), (0, 0))),
                 tuple(map(to_row, (z_op(3, 2, 0), z_op(3, 2, 0, 2)))))


def test_choi_of_trivial_code_is_graph_state():
    pent2 = CodeSpec(5, 0, 2, PENTAGON, ())
    choi = code_to_choi_state(pent2)
    assert groups_equal(choi, from_graph(PENTAGON, 2))


def test_choi_of_identity_like_code_maximally_entangled():
    for d in (2, 3, 5):
        choi = code_to_choi_state(identity_like_code(d))
        assert choi.n == 2 and choi.is_state()
        assert reduced_rank(choi, [0]) == d
        v = oracle.state_from_group(choi)
        assert oracle.schmidt_rank(v, [0], d, 2) == d


def test_choi_builds_one_group_and_no_subgroup(monkeypatch):
    # the graph generators are read without a graph group, and neither a
    # subgroup nor a rank is taken: analyze_channel checks the input side
    from qstab import stabilizer

    code = make_code(3, 12, 4, 1)
    builds = []
    real_init = stabilizer.StabilizerGroup.__post_init__
    monkeypatch.setattr(stabilizer.StabilizerGroup, "__post_init__",
                        lambda self: builds.append(self) or real_init(self))
    monkeypatch.setattr(stabilizer, "subgroup_on_part", None)
    monkeypatch.setattr(channel, "reduced_rank", None)
    choi = code_to_choi_state(code)
    assert builds == [choi] and choi.is_state()


def test_choi_input_marginal_dense():
    code = CodeSpec(5, 1, 2, PENTAGON,
                    tuple(map(to_row, (from_exponents(2, [0] * 5, [1, 1, 0, 1, 0]),))))
    choi = code_to_choi_state(code)
    v = oracle.state_from_group(choi)
    rho = oracle.reduced_density(v, [0], 2, 6)
    assert oracle.matrices_equal(rho, np.eye(2) / 2, tol=1e-9)


def test_analyze_identity_code():
    for d in (2, 3, 5):
        an = analyze_channel(identity_like_code(d), [0], [])
        assert (an.q_b, an.c_b, an.q_c, an.c_c) == (1, 1, 0, 0)
        assert an.bits(an.q_b) == pytest.approx(np.log2(d))
        # full Pauli group on the transmitting input
        assert pauli_groups_equal(
            an.info_b, tuple(map(to_row, (phase_op(d, 1, 1), x_op(d, 1, 0),
                                          z_op(d, 1, 0)))), d, 1)
        assert pauli_groups_equal(
            an.info_c, tuple(map(to_row, (phase_op(d, 1, 1),))), d, 1)
        assert verify_duality(an)


def test_capacities_follow_what_each_role_sends():
    # distinct counts, so each capacity names the roles it sums
    counts = {"m_A": 0, "m_B": 11, "m_C": 13, "m_BC": 17,
              "m_AB": 2, "m_AC": 3, "m_ABC": 5}
    assert channel.capacities(counts) == {"Q_B": 2, "C_B": 7,
                                          "Q_C": 3, "C_C": 8}
    assert list(channel.capacities(counts)) == ["Q_B", "C_B", "Q_C", "C_C"]


def test_unconsumed_input_is_one_internal_invariant(monkeypatch):
    # a form that leaves an input qudit in a single, here an input pair
    # split in two, meets the one consumption check
    real_form = channel.tripartition_normal_form

    def split_input_pair(group, *parts):
        nf = real_form(group, *parts)
        i = next(i for i, (names, _) in enumerate(nf.roles)
                 if names in ((0, 1), (0, 2)))
        (_, pj), (qa, qb) = nf.roles[i]
        return dataclasses.replace(nf, roles=(((0,), (qa,)), ((pj,), (qb,)))
                                   + nf.roles[:i] + nf.roles[i + 1:])

    monkeypatch.setattr(channel, "tripartition_normal_form", split_input_pair)
    for code, b, c in ((identity_like_code(3), [0], []),
                       (identity_like_code(5), [], [0]),
                       (make_code(3, 6, 2, 2), [0, 1, 2], [3, 4, 5])):
        with pytest.raises(InternalInvariant,
                           match="input qudits not fully consumed"):
            analyze_channel(code, b, c)


def test_analyze_ghz_code():
    for d in (2, 3, 5):
        an = analyze_channel(ghz_code(d), [0], [1])
        assert an.normal_form.m_abc == 1
        assert (an.q_b, an.c_b, an.q_c, an.c_c) == (0, 1, 0, 1)
        want = tuple(map(to_row, (phase_op(d, 1, 1), z_op(d, 1, 0))))
        assert pauli_groups_equal(an.info_b, want, d, 1)
        assert pauli_groups_equal(an.info_c, want, d, 1)
        assert verify_duality(an)


def test_attached_outputs_leave_direct_channel_unchanged():
    # identity-like channel to B plus an extra EPR between B and C, plus a
    # B-local unentangled output: neither touches the info groups
    for d in (2, 3):
        graph = GraphAdjacency.from_edges(4, [(1, 2, 1)])
        code = CodeSpec(4, 1, d, graph, tuple(map(to_row, (z_op(d, 4, 0),))))
        an = analyze_channel(code, [0, 1, 3], [2])
        assert (an.q_b, an.c_b) == (1, 1)
        assert (an.normal_form.m_bc, an.normal_form.m_b) == (1, 1)
        assert pauli_groups_equal(
            an.info_b, tuple(map(to_row, (phase_op(d, 1, 1), x_op(d, 1, 0),
                                          z_op(d, 1, 0)))), d, 1)
        assert pauli_groups_equal(
            an.info_c, tuple(map(to_row, (phase_op(d, 1, 1),))), d, 1)


def test_eq360_worked_example():
    for d in (2, 3, 5):
        graph = GraphAdjacency.from_edges(4, [(2, 3, 1)])
        code = CodeSpec(4, 3, d, graph, tuple(map(to_row, (
            z_op(d, 4, 0), z_op(d, 4, 1), z_op(d, 4, 2)))))
        an = analyze_channel(code, [0, 2], [1, 3])
        exp_b = (phase_op(d, 3, 1), x_op(d, 3, 0), z_op(d, 3, 0),
                 z_op(d, 3, 2))
        exp_c = (phase_op(d, 3, 1), x_op(d, 3, 1), z_op(d, 3, 1),
                 z_op(d, 3, 2))
        assert tuple(from_row(d, g) for g in an.info_b) == exp_b
        assert tuple(from_row(d, g) for g in an.info_c) == exp_c
        assert verify_duality(an)


def test_pentagon_subcode_bounds():
    v0 = CodeSpec(5, 1, 2, PENTAGON,
                  tuple(map(to_row, (from_exponents(2, [0] * 5, [1, 1, 0, 1, 0]),))))
    b0 = analyze_channel(v0, [0, 1], [2, 3, 4])
    assert b0.q_c >= 1
    v1 = CodeSpec(5, 1, 2, PENTAGON,
                  tuple(map(to_row, (from_exponents(2, [0] * 5, [0, 1, 1, 0, 1]),))))
    b1 = analyze_channel(v1, [0, 1], [2, 3, 4])
    assert b1.c_b >= 1 and b1.c_c >= 1


def test_zero_k_code_bounds():
    code = CodeSpec(3, 0, 2, GraphAdjacency.from_edges(3, [(0, 1, 1)]), ())
    b = analyze_channel(code, [0], [1, 2])
    assert (b.q_b, b.c_b, b.q_c, b.c_c) == (0, 0, 0, 0)


def test_graph_choi_round_trip():
    # build Choi of a graph-diagonal code, read the code back
    d = 3
    adj = GraphAdjacency.from_edges(4, [(0, 2, 1), (0, 3, 2), (1, 2, 2),
                                        (2, 3, 1)])
    code, input_gates = graph_choi_to_code(adj, 2, d)
    assert code.n == 2 and code.k == 2
    assert input_gates == []
    # coding generators are the input rows of the cross block
    assert list(from_row(d, code.coding_gens[0]).z) == [1, 2]
    assert list(from_row(d, code.coding_gens[1]).z) == [2, 0]
    # the code's Choi state equals the original graph state
    choi = code_to_choi_state(code)
    assert groups_equal(choi, from_graph(adj, d))


def test_graph_choi_records_input_gates():
    d = 2
    adj = GraphAdjacency.from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1)])
    code, input_gates = graph_choi_to_code(adj, 2, d)
    assert [g.name for g in input_gates] == ["CP"]
    assert input_gates[0].qudits == (0, 1)
    assert list(from_row(d, code.coding_gens[0]).z) == [1, 0]
    assert list(from_row(d, code.coding_gens[1]).z) == [0, 1]


def test_graph_choi_single_edge_is_identity_like():
    for d in (2, 5):
        adj = GraphAdjacency.from_edges(2, [(0, 1, 1)])
        code, _ = graph_choi_to_code(adj, 1, d)
        assert (code.n, code.k) == (1, 1)
        an = analyze_channel(code, [0], [])
        assert (an.q_b, an.c_b) == (1, 1)


def test_graph_choi_rejects_bad_input_marginal():
    # an input vertex disconnected from the outputs is not maximally mixed
    adj = GraphAdjacency.from_edges(3, [(1, 2, 1)])
    with pytest.raises(NotMaximallyMixedInput):
        graph_choi_to_code(adj, 1, 2)


def test_ghz_as_graph_choi():
    # single input linked to one output: the repetition-style decohering code
    d = 3
    adj = GraphAdjacency.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    code, _ = graph_choi_to_code(adj, 1, d)
    an = analyze_channel(code, [0], [1])
    assert an.normal_form.m_abc == 1
    assert (an.q_b, an.c_b, an.q_c, an.c_c) == (0, 1, 0, 1)


def test_centralizer_extremes():
    d, k = 3, 2
    full = tuple(map(to_row, (phase_op(d, k, 1), x_op(d, k, 0), z_op(d, k, 0),
                              x_op(d, k, 1), z_op(d, k, 1))))
    phase = tuple(map(to_row, (phase_op(d, k, 1),)))
    cent = centralizer_in_pauli(full, d, k)
    assert pauli_groups_equal(cent, phase, d, k)
    cent2 = centralizer_in_pauli(phase, d, k)
    assert pauli_groups_equal(cent2, full, d, k)


def test_centralizer_of_single_z_brute_force():
    for d in (2, 3):
        for k in (1, 2):
            gens = tuple(map(to_row, (phase_op(d, k, 1), z_op(d, k, 0))))
            cent = centralizer_in_pauli(gens, d, k)
            brute = []
            from qstab.pauli import commutation_phase

            for xs in itertools.product(range(d), repeat=k):
                for zs in itertools.product(range(d), repeat=k):
                    p = from_exponents(d, xs, zs)
                    if commutation_phase(p, z_op(d, k, 0)) == 0:
                        brute.append(p)
            assert pauli_groups_equal(cent, tuple(map(to_row, brute)), d, k)


def test_random_codes_duality_and_brute_force():
    count = 0
    for d in (2, 3, 5):
        for seed in range(8):
            n = 2 + seed % 3
            k = 1 + seed % min(2, n)
            code = make_code(d, n, k, 1000 * d + seed)
            b, c = random_partition(n, 2, seed + d)
            an = analyze_channel(code, b, c)
            assert verify_duality(an)
            nf = an.normal_form
            assert nf.m_abc + nf.m_ab + nf.m_ac == k
            if d ** (n + k) <= oracle.INFO_GROUP_CAP:
                v_iso = oracle.isometry_from_code(code.graph_group,
                                                  code.coding_gens)
                for info, keep in ((an.info_b, b), (an.info_c, c)):
                    brute = oracle.brute_force_info_group(v_iso, keep, d, n, k)
                    brute_rows = [list(x) + list(z) for x, z in brute
                                  if any(x) or any(z)]
                    mapped = to_original_input_basis(an, info)
                    rows = [list(g[1:]) for g in mapped if any(g[1:])]
                    lhs = linalg.rref(brute_rows, d)[0] if brute_rows else []
                    rhs = linalg.rref(rows, d)[0] if rows else []
                    assert lhs == rhs
            count += 1
    assert count == 24


def test_info_group_isomorphism_property():
    # E_B(p) E_B(q) = c E_B(pq) with one positive c for the whole group
    for d, n, k, seed in ((2, 3, 1, 4), (3, 2, 1, 5), (2, 4, 2, 6)):
        code = make_code(d, n, k, seed)
        b, c = random_partition(n, 2, seed)
        an = analyze_channel(code, b, c)
        v_iso = oracle.isometry_from_code(code.graph_group, code.coding_gens)
        mapped = [from_row(d, g) for g in to_original_input_basis(an, an.info_b)]
        outs = [oracle.apply_channel(v_iso, b, d, n, oracle.pauli_matrix(p))
                for p in mapped]
        constants = []
        from qstab.pauli import multiply

        for (p, mp), (q, mq) in itertools.product(zip(mapped, outs), repeat=2):
            prod_out = oracle.apply_channel(
                v_iso, b, d, n, oracle.pauli_matrix(multiply(p, q)))
            lhs = mp @ mq
            norm = np.max(np.abs(prod_out))
            assert norm > 1e-9
            ratios = lhs.flatten()[np.abs(prod_out.flatten()) > 1e-9] / \
                prod_out.flatten()[np.abs(prod_out.flatten()) > 1e-9]
            assert np.max(np.abs(ratios - ratios[0])) < 1e-8
            constants.append(ratios[0])
        constants = np.array(constants)
        assert np.max(np.abs(constants - constants[0])) < 1e-8
        assert abs(constants[0].imag) < 1e-9 and constants[0].real > 0


def test_capacities_additive_under_tensor():
    d = 3
    c1 = identity_like_code(d)
    c2 = ghz_code(d)
    # tensor: inputs 0,1; outputs: 0 (from c1), 1,2 (from c2)
    graph = GraphAdjacency.from_edges(3, [(1, 2, 1)])
    coding = tuple(map(to_row, (z_op(d, 3, 0), z_op(d, 3, 1))))
    both = CodeSpec(3, 2, d, graph, coding)
    a1 = analyze_channel(c1, [0], [])
    a2 = analyze_channel(c2, [0], [1])
    ab = analyze_channel(both, [0, 1], [2])
    assert ab.q_b == a1.q_b + a2.q_b
    assert ab.c_b == a1.c_b + a2.c_b
    assert ab.q_c == a1.q_c + a2.q_c
    assert ab.c_c == a1.c_c + a2.c_c


def test_transpose_is_dense_transpose():
    rng = random.Random(40)
    for d in (2, 3, 5):
        for _ in range(10):
            p = from_exponents(d, [rng.randrange(d) for _ in range(2)],
                               [rng.randrange(d) for _ in range(2)],
                               rng.randrange(2 * d))
            assert oracle.matrices_equal(
                oracle.pauli_matrix(p).T,
                oracle.pauli_matrix(from_row(d, transpose_pauli(to_row(p), d))))


def test_analyze_rejects_bad_bipartition():
    code = ghz_code(3)
    with pytest.raises(ShapeMismatch):
        analyze_channel(code, [0], [0, 1])
    with pytest.raises(ShapeMismatch):
        analyze_channel(code, [0], [])


def test_to_original_input_basis_maps_a_sequence(monkeypatch):
    # one inverse circuit per call, replayed on every operator, gives what
    # conjugating each operator on its own through a fresh inverse gives
    calls = []
    real_inverse = channel.inverse_gates

    def counting_inverse(gates, d):
        calls.append(1)
        return real_inverse(gates, d)

    monkeypatch.setattr(channel, "inverse_gates", counting_inverse)
    rng = random.Random(7)
    for d, n, k, seed in ((2, 4, 2, 1), (3, 3, 2, 2), (5, 3, 1, 3),
                          (7, 2, 2, 4)):
        code = make_code(d, n, k, seed)
        b, c = random_partition(n, 2, seed)
        an = analyze_channel(code, b, c)
        extra = tuple(map(to_row, (
            from_exponents(d, [rng.randrange(d) for _ in range(k)],
                           [rng.randrange(d) for _ in range(k)],
                           rng.randrange(2 * d)) for _ in range(3))))
        inv = inverse_gates(an.normal_form.circuits[0], d)
        for rows in (an.info_b, an.info_c, extra, ()):
            calls.clear()
            want = tuple(transpose_pauli(to_row(conjugate(
                inv, from_row(d, transpose_pauli(r, d)))), d) for r in rows)
            assert to_original_input_basis(an, rows) == want
            assert len(calls) == 1
        with pytest.raises(ShapeMismatch):
            to_original_input_basis(an, extra + (to_row(x_op(d, k + 1, 0)),))


def test_channel_check_builds_one_inverse_circuit(monkeypatch):
    # the brute-force check maps info_B and info_C together: one inverse
    # input circuit per check, not one per side
    calls = []
    real_inverse = channel.inverse_gates

    def counting_inverse(gates, d):
        calls.append(1)
        return real_inverse(gates, d)

    monkeypatch.setattr(channel, "inverse_gates", counting_inverse)
    for d, n, k, seed in ((2, 5, 5, 1), (3, 4, 2, 2), (5, 3, 1, 3)):
        code = make_code(d, n, k, seed)
        b, c = random_partition(n, 2, seed)
        an = analyze_channel(code, b, c)
        calls.clear()
        checks = verify.verify_channel_analysis(an)
        assert ("brute-force-info-groups", True) in checks
        assert len(calls) == 1
