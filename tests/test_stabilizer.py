"""Stabilizer groups: construction, subgroups, ranks, factorization."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qstab import oracle
from qstab.errors import (
    IndexOutOfRange,
    InvalidStabilizer,
    NotAState,
    NotSquarefree,
)
from qstab.modring import factorize
from qstab.pauli import (
    PauliProduct,
    from_exponents,
    from_row,
    multiply,
    power,
    to_row,
    x_op,
    z_op,
)
from qstab.randgen import random_state
from qstab.stabilizer import (
    GraphAdjacency,
    StabilizerGroup,
    canonical_form,
    elements,
    epr_group,
    from_graph,
    ghz_group,
    groups_equal,
    plus_state_group,
    reduce_generators,
    reduced_rank,
    subgroup_on_part,
)

from group_helpers import is_identity_on, member, restrict, tensor_groups


def eq100_s1(d):
    return StabilizerGroup(d, 3, tuple(map(to_row, (
        from_exponents(d, (0, 0, 0), (1, 0, d - 1)),
        from_exponents(d, (1, 0, 1), (0, 0, 0)),
        from_exponents(d, (0, 1, 0), (0, 0, 0)),
    ))))


def test_from_graph_single_vertex():
    g = from_graph(GraphAdjacency(1, ((0,),)), 3)
    assert g.gens == (tuple(to_row(x_op(3, 1, 0))),)


def test_from_graph_one_edge_qubits():
    g = from_graph(GraphAdjacency.from_edges(2, [(0, 1, 1)]), 2)
    assert groups_equal(g, StabilizerGroup(2, 2, tuple(map(to_row, (
        from_exponents(2, (1, 0), (0, 1)),   # X1 Z2^{-1} = X1 Z2 at D=2
        from_exponents(2, (0, 1), (1, 0)),
    )))))


def test_pentagon_generators():
    pent = GraphAdjacency.from_edges(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
    g = from_graph(pent, 2)
    # ring generators X_i Z_{i-1} Z_{i+1}
    for i, gen in enumerate(from_row(2, g) for g in g.gens):
        assert gen.x[i] == 1
        assert gen.z[(i - 1) % 5] == 1 and gen.z[(i + 1) % 5] == 1
        assert sum(gen.x) == 1 and sum(gen.z) == 2


def test_invalid_noncommuting():
    with pytest.raises(InvalidStabilizer):
        StabilizerGroup(3, 1, tuple(map(to_row, (x_op(3, 1, 0), z_op(3, 1, 0)))))


def test_invalid_phase_power():
    # lambda X at D=2 squares to -I, not I
    with pytest.raises(InvalidStabilizer):
        StabilizerGroup(2, 1, tuple(map(to_row, (from_exponents(2, (1,), (0,), 1),))))


def test_invalid_dependent():
    with pytest.raises(InvalidStabilizer):
        StabilizerGroup(3, 2, tuple(map(to_row, (x_op(3, 2, 0), x_op(3, 2, 0, 2)))))


def test_non_squarefree_rejected():
    with pytest.raises(NotSquarefree):
        StabilizerGroup(4, 1, tuple(map(to_row, (x_op(4, 1, 0),))))


def test_group_size_composite():
    g = ghz_group(6)
    assert g.size == 6**3
    assert g.is_state()


def test_subgroup_on_part_epr_trivial():
    for d in (2, 3, 5, 6):
        sub = subgroup_on_part(epr_group(d), [0])
        assert sub.gens == ()


def test_subgroup_on_part_eq100():
    for d in (2, 3, 5):
        sub = subgroup_on_part(eq100_s1(d), [0, 1])
        assert groups_equal(
            StabilizerGroup(d, 3, sub.gens),
            StabilizerGroup(d, 3, tuple(map(to_row, (x_op(d, 3, 1),)))))


def test_subgroup_on_part_everything():
    for d in (2, 6):
        s = ghz_group(d)
        assert groups_equal(subgroup_on_part(s, [0, 1, 2]), s)


def test_subgroup_divides_and_is_local():
    rng = random.Random(20)
    for d in (2, 3, 6):
        for seed in range(6):
            s = random_state(d, 4, seed + 100 * d)
            part = [q for q in range(4) if rng.random() < 0.5]
            sub = subgroup_on_part(s, part)
            assert s.size % sub.size == 0
            off = [q for q in range(4) if q not in part]
            for g in sub.gens:
                assert is_identity_on(from_row(d, g), off)


def test_subgroup_composite_vs_brute_force():
    # scan all group elements; compare with the CRT-based computation
    for d in (6, 10):
        for seed in range(4):
            s = random_state(d, 3, seed + d)
            for part in ([0], [1, 2], [0, 2]):
                off = [q for q in range(3) if q not in part]
                brute = [el for el in elements(s)
                         if is_identity_on(from_row(d, el), off)]
                sub = subgroup_on_part(s, part)
                sub_elements = {str(el) for el in elements(sub)}
                assert sub_elements == {str(el) for el in brute}


def test_reduced_rank_examples():
    for d in (2, 3, 5, 6, 10):
        assert reduced_rank(ghz_group(d), [0]) == d
        assert reduced_rank(epr_group(d), [0]) == d
        assert reduced_rank(plus_state_group(d, 3), [0, 2]) == 1


def test_reduced_rank_matches_dense():
    for d in (2, 3, 5):
        for seed in range(8):
            n = 3 + seed % 2
            s = random_state(d, n, 7 * seed + d)
            part = [q for q in range(n) if (q + seed) % 2 == 0]
            if not part or len(part) == n:
                continue
            v = oracle.state_from_group(s)
            rho = oracle.reduced_density(v, part, d, n)
            assert reduced_rank(s, part) == oracle.density_rank(rho)


def test_rank_formula_on_random_groups():
    # rank(rho_A) * |S_A| = D^{n_A} on 100 random cases
    checked = 0
    for d in (2, 3, 5, 6):
        for seed in range(25):
            s = random_state(d, 4, 13 * seed + d)
            part = [0, 2] if seed % 2 else [1, 2, 3]
            sub = subgroup_on_part(s, part)
            assert reduced_rank(s, part) * sub.size == d ** len(part)
            checked += 1
    assert checked == 100


def test_state_projector_rank_one():
    # the dense construction verifies generator fixing internally
    for d in (2, 3, 5):
        for n in (2, 3, 4):
            if d**n > 700:
                continue
            v = oracle.state_from_group(random_state(d, n, d * n))
            assert abs(complex(v.conj() @ v) - 1.0) < 1e-9


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 6, 10, 15, 30]), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_subgroup_on_part_vs_brute_force(d, n, seed, rng):
    # every element of the group, filtered by support, over the whole D set
    n = min(n, int(math.log(1000, d)))
    s = random_state(d, n, seed)
    part = [q for q in range(n) if rng.random() < 0.5]
    off = [q for q in range(n) if q not in part]
    brute = {str(el) for el in elements(s)
             if is_identity_on(from_row(d, el), off)}
    sub = subgroup_on_part(s, part)
    assert {str(el) for el in elements(sub)} == brute
    assert len(brute) == sub.size


ALL_D = [2, 3, 5, 7, 11, 1009, 2**31 - 1, 6, 10, 15, 30]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALL_D), st.integers(0, 8),
       st.randoms(use_true_random=False))
def test_reduced_rank_identity_matches_subgroup(d, n, rng):
    # rank(rho_A) from 2|A| - rank(S|_A) per prime equals D^|A| / |S_A| with
    # S_A built by elimination, for empty, random and whole-register parts
    s = random_state(d, n, rng.randrange(2**32))
    for part in ([], [q for q in range(n) if rng.random() < 0.5],
                 list(range(n))):
        sub = subgroup_on_part(s, part)
        assert reduced_rank(s, part) == d ** len(part) // sub.size


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALL_D), st.integers(0, 8),
       st.randoms(use_true_random=False))
def test_validation_keeps_the_canonical_echelon(d, n, rng):
    # at prime D the rows validation kept are reduce_generators' output, for
    # states and for subgroups given by a shuffled part of their generators
    s = random_state(d, n, rng.randrange(2**32))
    gens = list(s.gens)
    rng.shuffle(gens)
    for group in (s, StabilizerGroup(d, n, tuple(gens[:rng.randint(0, n)]))):
        if factorize(d).is_prime:
            reduced = reduce_generators(d, list(group.gens), n)
            assert list(group._canonical_rows) == reduced
        else:
            assert group._canonical_rows is None


def test_random_state_validates_once(monkeypatch):
    # the graph rows are conjugated without a graph group of their own, in
    # the draw order of scrambling that group, so the state is the same
    from qstab import randgen

    builds = []
    real_init = StabilizerGroup.__post_init__
    for d, n, seed in ((2, 5, 1), (3, 8, 2), (6, 4, 3), (1009, 3, 4)):
        rng = random.Random(seed)
        graph = randgen.random_graph(d, n, rng)
        gates = randgen.random_single_qudit_gates(d, range(n), rng, 3 * n)
        scrambled = randgen.scramble_group(from_graph(graph, d), gates)
        with monkeypatch.context() as m:
            m.setattr(StabilizerGroup, "__post_init__",
                      lambda self: builds.append(self) or real_init(self))
            builds.clear()
            s = random_state(d, n, seed)
        assert builds == [s] and s == scrambled


def test_out_of_range_qudits_raise():
    with pytest.raises(IndexOutOfRange):
        reduced_rank(ghz_group(3), [0, 7])
    with pytest.raises(IndexOutOfRange):
        subgroup_on_part(ghz_group(3), [-1])
    with pytest.raises(IndexOutOfRange):
        subgroup_on_part(epr_group(6), [2])


def test_member_rejects_phase_mismatch_composite():
    rng = random.Random(7)
    for d in (6, 10, 15, 30):
        s = random_state(d, 3, d)
        el = from_row(d, s.gens[0])
        for g in s.gens[1:]:
            el = multiply(el, power(from_row(d, g), rng.randrange(d)))
        assert member(s, el)
        for shift in (1, 2, d):
            assert not member(s, PauliProduct(d, el.gamma + shift, el.x, el.z))


def test_member_detects_phase_mismatch():
    s = epr_group(3)
    xx = from_exponents(3, (1, 1), (0, 0))
    assert member(s, xx)
    assert not member(s, from_exponents(3, (1, 1), (0, 0), 2))


def split_across(group, left):
    """The two factors of group across left | rest, each on its own qudits,
    or None when it does not factor.

    A state factors across a cut exactly when the subgroups on the two sides
    together have the group's size.
    """
    right = [q for q in range(group.n) if q not in left]
    sides = [subgroup_on_part(group, side) for side in (left, right)]
    if sides[0].size * sides[1].size != group.size:
        return None
    return tuple(
        StabilizerGroup(group.d, len(side), tuple(map(to_row, (
            restrict(from_row(group.d, g), side) for g in sub.gens))))
        for side, sub in zip((left, right), sides))


def test_tensor_and_try_factor():
    for d in (2, 3, 6):
        prod = tensor_groups(epr_group(d), plus_state_group(d, 1))
        split = split_across(prod, [0, 1])
        assert split is not None
        left, right = split
        assert groups_equal(left, epr_group(d))
        assert groups_equal(right, plus_state_group(d, 1))
        assert groups_equal(subgroup_on_part(prod, [2]),
                            StabilizerGroup(d, 3, tuple(map(to_row, (x_op(d, 3, 2),)))))


def test_try_factor_ghz_fails():
    for d in (2, 3, 6):
        assert split_across(ghz_group(d), [0]) is None
        assert split_across(ghz_group(d), [1, 2]) is None


def test_try_factor_eq100():
    # the first example state factors across {A1, B1} | {A2}
    for d in (2, 3):
        split = split_across(eq100_s1(d), [0, 2])
        assert split is not None
        left, right = split
        assert groups_equal(left, epr_group(d))
        assert groups_equal(right, plus_state_group(d, 1))
        assert split_across(eq100_s1(d), [0]) is None


def test_epr_ghz_dense_states():
    import numpy as np

    for d in (2, 3, 5):
        v = oracle.state_from_group(epr_group(d))
        want = np.zeros(d * d, complex)
        for i in range(d):
            want[i * d + i] = 1 / np.sqrt(d)
        assert oracle.states_equal_up_to_phase(v, want)
    v = oracle.state_from_group(ghz_group(3))
    want = np.zeros(27, complex)
    for i in range(3):
        want[i * 9 + i * 3 + i] = 1 / np.sqrt(3)
    assert oracle.states_equal_up_to_phase(v, want)


def test_not_a_state_rank():
    partial = StabilizerGroup(3, 2, tuple(map(to_row, (x_op(3, 2, 0),))))
    with pytest.raises(NotAState):
        reduced_rank(partial, [0])


def test_canonical_form_presentation_independent():
    for d in (2, 3, 6):
        s = ghz_group(d)
        g1, g2, g3 = (from_row(d, g) for g in s.gens)
        other = StabilizerGroup(d, 3, tuple(map(to_row, (multiply(g1, g2), g3, g2))))
        assert canonical_form(other) == canonical_form(s)
        assert groups_equal(other, s)


def test_zero_qudit_group():
    empty = StabilizerGroup(3, 0, ())
    assert empty.size == 1 and empty.is_state()
