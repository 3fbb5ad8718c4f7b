"""Normal-form extraction: golden examples, oracle agreement, invariance."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qstab import linalg, oracle
from qstab.canonicalize import (
    Partition,
    _extract_ghz_once,
    _extract_singles_and_pairs,
    _Extraction,
    bipartition_normal_form,
    extract_epr_pair,
    extract_ghz,
    extract_unentangled,
    is_exact,
    tripartition_normal_form,
)
from qstab.clifford import conjugate, cphase
from qstab.errors import (
    NotAState,
    PreconditionViolated,
    ShapeMismatch,
)
from qstab.formats import parse_normal_form, render_normal_form
from qstab.pauli import from_exponents, from_row, to_row, x_op
from qstab.randgen import (
    random_part_gates,
    random_partition,
    random_state,
    scramble_group,
)
from qstab.stabilizer import (
    StabilizerGroup,
    canonical_form,
    epr_group,
    ghz_group,
    groups_equal,
    plus_state_group,
    subgroup_on_part,
)
from qstab.verify import verify_normal_form

from group_helpers import planted_state, tensor_groups
from nf_reference import normal_form_group, reference_is_exact


def all_gates(nf):
    """The part circuits replayed one after another (disjoint supports)."""
    return [g for circuit in nf.circuits for g in circuit]


def eq100_s1(d):
    return StabilizerGroup(d, 3, tuple(map(to_row, (
        from_exponents(d, (0, 0, 0), (1, 0, d - 1)),
        from_exponents(d, (1, 0, 1), (0, 0, 0)),
        from_exponents(d, (0, 1, 0), (0, 0, 0)),
    ))))


def eq100_s2(d):
    # same state conjugated by the controlled-phase on the two A qudits
    return scramble_group(eq100_s1(d), [cphase(0, 1, 1)])


def test_eq100_s2_generators_match_printed_form():
    for d in (2, 3, 5):
        want = StabilizerGroup(d, 3, tuple(map(to_row, (
            from_exponents(d, (0, 0, 0), (1, 0, d - 1)),
            from_exponents(d, (1, 0, 1), (0, d - 1, 0)),
            from_exponents(d, (0, 1, 0), (d - 1, 0, 0)),
        ))))
        assert groups_equal(eq100_s2(d), want)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_eq100_bipartition_counts(d):
    for state in (eq100_s1(d), eq100_s2(d)):
        nf = bipartition_normal_form(state, [0, 1], [2])
        assert (nf.m_ab, nf.m_a, nf.m_b) == (1, 1, 0)
        assert nf.m_c == nf.m_ac == nf.m_bc == nf.m_abc == 0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_epr_bipartition(d):
    nf = bipartition_normal_form(epr_group(d), [0], [1])
    assert (nf.m_ab, nf.m_a, nf.m_b) == (1, 0, 0)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 15])
def test_ghz_tripartition(d):
    nf = tripartition_normal_form(ghz_group(d), [0], [1], [2])
    assert nf.m_abc == 1
    assert sum(nf.counts.values()) == 1
    if nf.factors:
        for _, sub in nf.factors:
            assert sub.m_abc == 1 and sum(sub.counts.values()) == 1


@pytest.mark.parametrize("d", [2, 3, 5, 6, 15])
def test_epr_counts_at_composite(d):
    nf = bipartition_normal_form(epr_group(d), [0], [1])
    assert nf.m_ab == 1 and sum(nf.counts.values()) == 1


def test_plus_states_only_singles():
    for d in (2, 3, 6):
        nf = tripartition_normal_form(plus_state_group(d, 4),
                                      [0, 3], [1], [2])
        assert (nf.m_a, nf.m_b, nf.m_c) == (2, 1, 1)
        assert nf.m_ab == nf.m_ac == nf.m_bc == nf.m_abc == 0


def test_bipartition_schmidt_matches_dense():
    for d in (3,):
        for seed in range(6):
            s = random_state(d, 6, seed)
            a, b = random_partition(6, 2, seed + 50)
            nf = bipartition_normal_form(s, a, b)
            v = oracle.state_from_group(s)
            if a and b:
                rank = oracle.schmidt_rank(v, a, d, 6)
                assert nf.m_ab == round(math.log(rank, d))


def test_empty_and_degenerate_parts():
    for d in (2, 3):
        s = epr_group(d)
        nf = tripartition_normal_form(s, [0], [1], [])
        assert nf.m_ab == 1 and nf.m_abc == 0
        nf2 = bipartition_normal_form(s, [0, 1], [])
        assert nf2.m_a == 2 and nf2.m_ab == 0


def test_zero_qudit_state():
    nf = bipartition_normal_form(StabilizerGroup(3, 0, ()), [], [])
    assert sum(nf.counts.values()) == 0


def test_partition_validation():
    s = ghz_group(3)
    with pytest.raises(ShapeMismatch):
        tripartition_normal_form(s, [0], [1], [1, 2])
    with pytest.raises(ShapeMismatch):
        tripartition_normal_form(s, [0], [1], [])
    with pytest.raises(ShapeMismatch):
        bipartition_normal_form(s, [0], [1, 2, 3])


def test_not_a_state():
    partial = StabilizerGroup(3, 2, tuple(map(to_row, (x_op(3, 2, 0),))))
    with pytest.raises(NotAState):
        bipartition_normal_form(partial, [0], [1])


def test_extract_unentangled_prefactored():
    for d in (2, 3, 5):
        s = tensor_groups(plus_state_group(d, 1), epr_group(d))
        remainder, gates, count = extract_unentangled(s, [0])
        assert count == 1
        assert gates == ()  # X_0 is already a bare generator
        sub = subgroup_on_part(remainder, [1, 2])
        assert groups_equal(
            StabilizerGroup(d, 3, sub.gens),
            StabilizerGroup(d, 3, tuple(map(to_row, (
                from_exponents(d, (0,) + g.x, (0,) + g.z)
                for g in (from_row(d, r) for r in epr_group(d).gens))))))


def test_extract_unentangled_hidden():
    # the controlled-phase-scrambled state needs an actual unitary
    for d in (2, 3, 5):
        remainder, gates, count = extract_unentangled(eq100_s2(d), [0, 1])
        assert count == 1
        assert len(gates) > 0


def test_extract_unentangled_maximally_entangled():
    for d in (2, 3, 5):
        _, gates, count = extract_unentangled(epr_group(d), [0])
        assert count == 0 and gates == ()


def test_extract_epr_product_state():
    for d in (2, 3):
        # EPR(A1,B1) (x) GHZ(A2,B2,C1): qudits 0=A1,1=B1,2=A2,3=B2,4=C1
        s = tensor_groups(epr_group(d), ghz_group(d))
        out = extract_epr_pair(s, [0, 2], [1, 3])
        assert out is not None
        _, circuits, (qx, qy) = out
        assert (qx, qy) == (0, 1)


def test_extract_epr_absent_for_ghz():
    for d in (2, 3, 5):
        assert extract_epr_pair(ghz_group(d), [0], [1]) is None


def test_extract_ghz_once():
    for d in (2, 3, 5):
        out = extract_ghz(ghz_group(d), [0], [1], [2])
        assert out is not None
        remainder, circuits, (qa, qb, qc) = out
        assert (qa, qb, qc) == (0, 1, 2)
        assert groups_equal(remainder, ghz_group(d))


def test_extract_ghz_empty_input():
    assert extract_ghz(StabilizerGroup(3, 0, ()), [], [], []) is None


def test_extract_ghz_precondition_epr():
    with pytest.raises(PreconditionViolated):
        extract_ghz(epr_group(3), [0], [1], [])


def test_extract_ghz_precondition_single():
    with pytest.raises(PreconditionViolated):
        extract_ghz(plus_state_group(3, 3), [0], [1], [2])


def test_three_pair_ring_has_no_ghz():
    # EPR(A,B) (x) EPR(B,C) (x) EPR(A,C)
    for d in (2, 3):
        s = tensor_groups(tensor_groups(epr_group(d), epr_group(d)),
                          epr_group(d))
        a, b, c = [0, 4], [1, 2], [3, 5]
        nf = tripartition_normal_form(s, a, b, c)
        assert (nf.m_ab, nf.m_bc, nf.m_ac, nf.m_abc) == (1, 1, 1, 0)


def test_ghz_count_from_oracle_rank_arithmetic():
    # m_ABC = log_D rank(rho_A) - m_AB - m_AC on random states
    for d in (2, 3):
        for seed in range(10):
            n = 4 + seed % 3
            s = random_state(d, n, 23 * seed + d)
            a, b, c = random_partition(n, 3, seed)
            nf = tripartition_normal_form(s, a, b, c)
            v = oracle.state_from_group(s)
            rank_a = (oracle.schmidt_rank(v, a, d, n)
                      if a and len(a) < n else 1)
            assert nf.m_abc == round(math.log(rank_a, d)) - nf.m_ab - nf.m_ac


def test_figure_style_round_trip():
    # scramble a known normal form with local Cliffords; counts must return
    d = 2
    a, b, c = [0, 1], [2, 3], [4, 5]
    gens = []
    from qstab.stabilizer import ghz_generators, epr_pair_generators

    gens.extend(ghz_generators(d, 6, 0, 2, 4))      # GHZ across all parts
    gens.extend(epr_pair_generators(d, 6, 1, 3))    # EPR between A and B
    gens.append(to_row(x_op(d, 6, 5)))              # single in C
    s = StabilizerGroup(d, 6, tuple(gens))
    rng = random.Random(99)
    gates = (random_part_gates(d, a, rng, 8) + random_part_gates(d, b, rng, 8)
             + random_part_gates(d, c, rng, 8))
    scrambled = scramble_group(s, gates)
    nf = tripartition_normal_form(scrambled, a, b, c)
    assert nf.counts == {"m_A": 0, "m_B": 0, "m_C": 1, "m_AB": 1,
                         "m_AC": 0, "m_BC": 0, "m_ABC": 1}


def test_ghz_step_eliminates_on_c_once(monkeypatch):
    # t2 and t3 come off one echelon on C's columns: after the first step,
    # which also re-holds every active qudit, each GHZ step makes six
    # echelon calls (BC subgroup 2, C 1, B 1, retire 2)
    group, parts = planted_state(3, {"m_ABC": 8}, 3)
    ctx = _Extraction(group, Partition(group.n, tuple(map(tuple, parts))))
    _extract_singles_and_pairs(ctx)
    calls = []
    echelon = linalg.echelon

    def counted(*args):
        calls[-1] += 1
        return echelon(*args)

    monkeypatch.setattr(linalg, "echelon", counted)
    while True:
        calls.append(0)
        if not _extract_ghz_once(ctx):
            break
    assert len(ctx.triples) == 8
    assert calls[1:8] == [6] * 7


def test_local_clifford_invariance():
    cases = 0
    for d in (2, 3, 5):
        for seed in range(6):
            n = 4 + seed % 2
            s = random_state(d, n, 7 * seed + d)
            a, b, c = random_partition(n, 3, seed + 5)
            base = tripartition_normal_form(s, a, b, c).counts
            rng = random.Random(seed)
            for _ in range(3):
                gates = []
                for part in (a, b, c):
                    if part:
                        gates.extend(random_part_gates(d, part, rng, 5))
                s = scramble_group(s, gates)
                assert tripartition_normal_form(s, a, b, c).counts == base
                cases += 1
    assert cases >= 50


def test_determinism_bytes():
    for d in (3, 6):
        s = random_state(d, 4, 77)
        a, b, c = [0, 2], [1], [3]
        r1 = render_normal_form(tripartition_normal_form(s, a, b, c))
        r2 = render_normal_form(tripartition_normal_form(s, a, b, c))
        assert r1 == r2


def test_qudit_conservation():
    for d in (2, 3, 5):
        for seed in range(8):
            n = 3 + seed % 4
            s = random_state(d, n, 3 * seed + d)
            a, b, c = random_partition(n, 3, seed + 31)
            nf = tripartition_normal_form(s, a, b, c)
            assert nf.m_ab + nf.m_ac + nf.m_abc + nf.m_a == len(a)
            assert nf.m_ab + nf.m_bc + nf.m_abc + nf.m_b == len(b)
            assert nf.m_ac + nf.m_bc + nf.m_abc + nf.m_c == len(c)


def test_exactness_explicitly():
    # beyond the built-in check: recompute on the caller side
    for d in (2, 3, 5):
        for seed in range(5):
            s = random_state(d, 5, 11 * seed + d)
            a, b, c = random_partition(5, 3, seed + 3)
            nf = tripartition_normal_form(s, a, b, c)
            conj = StabilizerGroup(
                d, 5, tuple(map(to_row, (conjugate(all_gates(nf), from_row(d, g))
                                         for g in s.gens))))
            assert canonical_form(conj) == canonical_form(normal_form_group(nf))


def test_rank_agreement_at_ten():
    # squarefree D = 10, n capped by the dense oracle
    d, n = 10, 3
    for seed in range(4):
        s = random_state(d, n, 900 + seed)
        a, b, c = random_partition(n, 3, seed)
        nf = tripartition_normal_form(s, a, b, c)
        v = oracle.state_from_group(s)
        for side in ((0,), (1,), (2,), (0, 1)):
            qudits = [q for i in side for q in (a, b, c)[i]]
            want = 1
            for p, sub in nf.factors:
                want *= p ** sub.crossing_count(side)
            got = (oracle.schmidt_rank(v, qudits, d, n)
                   if qudits and len(qudits) < n else 1)
            assert got == want


def test_composite_counts_are_min_of_factors():
    for seed in range(5):
        s = random_state(6, 4, seed + 1000)
        a, b, c = random_partition(4, 3, seed)
        nf = tripartition_normal_form(s, a, b, c)
        assert nf.composite_counts_derived
        assert [p for p, _ in nf.factors] == [2, 3]
        for key, val in nf.counts.items():
            assert val == min(sub.counts[key] for _, sub in nf.factors)


@pytest.mark.parametrize("d", [3, 6])
def test_counts_are_tallied_once_and_read_only(d):
    # one read-only tally per form, at prime and composite D; reading it
    # changes neither equality nor the fields
    s = random_state(d, 4, 7)
    nf = tripartition_normal_form(s, [0], [1, 2], [3])
    fresh = dataclasses.replace(nf)
    assert nf.counts is nf.counts
    with pytest.raises(TypeError):
        nf.counts["m_A"] = 1
    assert nf == fresh and nf.counts == fresh.counts
    assert all(sub.counts is sub.counts for _, sub in nf.forms)


def test_tableaux_supported_on_their_parts():
    for d in (3, 5):
        s = random_state(d, 5, d)
        a, b, c = [0, 1], [2, 4], [3]
        nf = tripartition_normal_form(s, a, b, c)
        for part, circuit in zip((a, b, c), nf.circuits):
            for g in circuit:
                assert set(g.qudits) <= set(part)


def test_gate_count_does_not_grow_with_d():
    s = random_state(2**31 - 1, 8, 1)
    nf = tripartition_normal_form(s, [0, 1, 2], [3, 4], [5, 6, 7])
    assert all(ok for _, ok in verify_normal_form(s, nf))
    assert is_exact(s, dataclasses.replace(nf))  # a full replay, no shortcut
    assert sum(len(c) for c in nf.circuits) < 200


def test_exactness_replays_once_per_built_form(monkeypatch):
    import qstab.canonicalize as canonicalize

    s = random_state(5, 5, 2)
    nf = tripartition_normal_form(s, [0, 1], [2, 3], [4])
    calls = []
    real = canonicalize.conjugate_rows

    def spy(gates, rows, d):
        calls.append(len(rows))
        return real(gates, rows, d)

    def forbidden(*args, **kwargs):
        raise AssertionError("is_exact builds a group or eliminates")

    parsed = parse_normal_form(render_normal_form(nf))
    other = random_state(5, 5, 3)
    monkeypatch.setattr(canonicalize, "conjugate_rows", spy)
    monkeypatch.setattr(canonicalize.linalg, "echelon", forbidden)
    monkeypatch.setattr(StabilizerGroup, "__post_init__", forbidden)
    assert is_exact(s, nf) and not calls
    # a parsed report, a copy, or another input is replayed in full: one
    # batched replay over all five generators each, checked in closed form
    assert is_exact(s, parsed)
    assert calls == [5]
    assert is_exact(s, dataclasses.replace(nf))
    assert not is_exact(other, nf)
    assert calls == [5, 5, 5]


def test_composite_exactness_checks_every_factor(monkeypatch):
    import qstab.canonicalize as canonicalize

    s = random_state(6, 5, 7)
    nf = tripartition_normal_form(s, [0, 1], [2, 3], [4])
    assert [p for p, _ in nf.forms] == [2, 3] and nf.forms == nf.factors
    calls = []
    real = canonicalize.decompose_state

    def counting(group):
        calls.append(group.d)
        return real(group)

    monkeypatch.setattr(canonicalize, "decompose_state", counting)
    # the built form passed the check when it was built: no decomposition
    assert is_exact(s, nf) and not calls
    # a copy or a parsed report is checked factor by factor
    assert is_exact(s, dataclasses.replace(nf))
    assert is_exact(s, parse_normal_form(render_normal_form(nf)))
    assert calls == [6, 6]
    assert not is_exact(s, dataclasses.replace(nf, factors=nf.factors[1:]))
    assert not is_exact(random_state(6, 5, 8), nf)
    for d in (2, 10):
        assert not is_exact(s, dataclasses.replace(nf, d=d))


def test_prime_forms_are_the_form_itself():
    s = random_state(5, 4, 1)
    nf = tripartition_normal_form(s, [0], [1, 2], [3])
    assert nf.forms == ((5, nf),)


def test_non_local_circuits_are_not_exact():
    s = random_state(3, 4, 4)
    nf = tripartition_normal_form(s, [0, 1], [2], [3])
    merged = tuple(g for c in nf.circuits for g in c)
    moved = dataclasses.replace(nf, circuits=(merged, (), ()))
    assert is_exact(s, dataclasses.replace(nf))
    assert not is_exact(s, moved)
    assert not is_exact(s, dataclasses.replace(nf, circuits=nf.circuits[:2]))


def test_extraction_validates_once_and_replays_no_single_gates(monkeypatch):
    # the input is validated when it is built; inside the normal form no
    # group is built, is_exact included, whatever n, and no gate is
    # conjugated one at a time
    import qstab.clifford as clifford

    builds = []
    real_init = StabilizerGroup.__post_init__

    def counting_init(self):
        builds.append(self)
        real_init(self)

    def forbidden(*args, **kwargs):
        raise AssertionError("single-gate conjugation during extraction")

    counts = {}
    for n in (12, 24):
        s = random_state(3, n, 5)
        parts = [list(range(0, n, 3)), list(range(1, n, 3)), list(range(2, n, 3))]
        with monkeypatch.context() as m:
            m.setattr(StabilizerGroup, "__post_init__", counting_init)
            m.setattr(clifford, "conjugate", forbidden)
            builds.clear()
            nf = tripartition_normal_form(s, *parts)
            counts[n] = len(builds)
        assert is_exact(s, dataclasses.replace(nf))
    assert counts == {12: 0, 24: 0}


def test_hold_eliminates_once_per_phase(monkeypatch):
    # a single or EPR phase holds one qudit set: its first step pays one
    # full elimination (off-set columns, then the set's own), later steps
    # reuse the held echelon, whatever n
    import qstab.canonicalize as canonicalize
    from qstab import linalg

    real_hold = canonicalize._Extraction.hold
    real_echelon = linalg.echelon
    calls = []  # echelon calls made inside each hold

    def spy_hold(self, qudits):
        calls.append(0)

        def counting_echelon(*args):
            calls[-1] += 1
            return real_echelon(*args)
        with monkeypatch.context() as m:
            m.setattr(linalg, "echelon", counting_echelon)
            return real_hold(self, qudits)

    for n in (24, 48):
        s = random_state(3, n, 5)
        parts = tuple(tuple(range(i, n, 3)) for i in range(3))
        ctx = canonicalize._Extraction(s, canonicalize.Partition(n, parts))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(canonicalize._Extraction, "hold", spy_hold)
            canonicalize._extract_singles_and_pairs(ctx)
        full = [k for k in calls if k]
        assert all(k == 2 for k in full)
        assert len(full) <= 6  # three single phases, three EPR phases
        assert len(ctx.singles) + len(ctx.pairs) > len(full)


PRIMES = [2, 3, 5, 7, 11, 1009, 2**31 - 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 8), st.sampled_from([2, 3]),
       st.randoms(use_true_random=False))
def test_rank_gate_matches_hold_mid_extraction(d, n, nparts, rng):
    # before and after every single and EPR step, the rank gate finds a
    # part's active subgroup trivial exactly when holding it yields no rows;
    # parts may be empty or hold the whole register
    import copy

    import qstab.canonicalize as canonicalize

    s = random_state(d, n, rng.randrange(2**32))
    labels = [rng.randrange(nparts) if rng.random() < 0.8 else 0
              for _ in range(n)]
    parts = tuple(tuple(q for q in range(n) if labels[q] == i)
                  for i in range(nparts))
    ctx = canonicalize._Extraction(s, canonicalize.Partition(n, parts))

    def check():
        for i in range(nparts):
            active = ctx.active_qudits(i)
            held = copy.deepcopy(ctx).hold(active)
            assert ctx.trivial_on(active) == (not held)

    check()
    for i in range(nparts):
        while canonicalize._extract_single_once(ctx, i):
            check()
    for i, j in itertools.combinations(range(nparts), 2):
        while canonicalize._extract_epr_once(ctx, i, j):
            check()


def test_extraction_starts_from_validation_echelon(monkeypatch):
    # _Extraction takes the rows validation kept and eliminates nothing; a
    # single phase on a part whose subgroup is trivial holds nothing, while
    # one on a part with local elements holds its qudits on every step
    import qstab.canonicalize as canonicalize
    from qstab import linalg
    from qstab.stabilizer import reduce_generators

    n = 24
    s = random_state(3, n, 5)
    parts = tuple(tuple(range(i, n, 3)) for i in range(3))
    assert all(not subgroup_on_part(s, part).gens for part in parts)
    expected = reduce_generators(3, list(s.gens), n)
    real_echelon = linalg.echelon
    echelons, holds = [], []
    real_hold = canonicalize._Extraction.hold
    monkeypatch.setattr(linalg, "echelon",
                        lambda *a: echelons.append(a) or real_echelon(*a))
    monkeypatch.setattr(canonicalize._Extraction, "hold",
                        lambda self, q: holds.append(q) or real_hold(self, q))
    ctx = canonicalize._Extraction(s, canonicalize.Partition(n, parts))
    assert echelons == [] and ctx.rows == expected
    for i in range(3):
        assert not canonicalize._extract_single_once(ctx, i)
    assert holds == []

    s = plus_state_group(3, 4)
    ctx = canonicalize._Extraction(s, canonicalize.Partition(4, ((0, 1), (2, 3))))
    while canonicalize._extract_single_once(ctx, 0):
        pass
    assert ctx.singles == [(0, 0), (1, 0)] and len(holds) == 2


def _tampered(nf, how, rng):
    """`nf` with one change: 1 a random gate added to one part's circuit,
    2 two role qudits swapped, 3 a single moved to another qudit."""
    if how == 1 and any(nf.parts):
        i = rng.choice([i for i, part in enumerate(nf.parts) if part])
        circuits = list(nf.circuits)
        circuits[i] += tuple(random_part_gates(nf.d, nf.parts[i], rng, 1))
        return dataclasses.replace(nf, circuits=tuple(circuits))
    if how == 2 and nf.n >= 2:
        a, b = rng.sample(range(nf.n), 2)
        swap = {a: b, b: a}

        def sw(q):
            return swap.get(q, q)
        return dataclasses.replace(
            nf, singles=tuple((sw(q), i) for q, i in nf.singles),
            pairs=tuple((i, j, sw(x), sw(y)) for i, j, x, y in nf.pairs),
            triples=tuple(tuple(map(sw, t)) for t in nf.triples))
    if how == 3 and nf.singles:
        (_, i), *rest = nf.singles
        return dataclasses.replace(
            nf, singles=((rng.randrange(nf.n), i), *rest))
    return dataclasses.replace(nf)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 8), st.sampled_from([2, 3]),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_closed_form_exactness_matches_reference(d, n, nparts, how, rng):
    s = random_state(d, n, rng.randrange(2**32))
    labels = [rng.randrange(nparts) for _ in range(n)]
    parts = [[q for q in range(n) if labels[q] == i] for i in range(nparts)]
    build = bipartition_normal_form if nparts == 2 else tripartition_normal_form
    nf = _tampered(build(s, *parts), how, rng)
    assert is_exact(s, nf) == reference_is_exact(s, nf)
    if how == 0:
        assert is_exact(s, nf)


def test_closed_form_exactness_false_cases():
    s = plus_state_group(3, 3)
    nf = dataclasses.replace(tripartition_normal_form(s, [0], [1], [2]))
    assert nf.singles == ((0, 0), (1, 1), (2, 2)) and is_exact(s, nf)
    # every replayed row lies in the group of these roles, so only the
    # cover and size conditions can reject them
    overlapping = dataclasses.replace(nf, singles=nf.singles + ((0, 0),))
    uncovered = dataclasses.replace(nf, singles=nf.singles[:2])
    assert not is_exact(s, overlapping)
    assert not is_exact(s, uncovered)
    assert not is_exact(StabilizerGroup(3, 3, s.gens[:2]), nf)
    assert not is_exact(plus_state_group(5, 3), nf)
    assert not is_exact(plus_state_group(3, 4), nf)
    assert not is_exact(plus_state_group(3, 2), nf)
    # roles cover every qudit once, but claim a pair where the state has
    # two singles: only the constant X exponent on the pair tells them apart
    s = plus_state_group(3, 2)
    nf = dataclasses.replace(bipartition_normal_form(s, [0], [1]))
    assert is_exact(s, nf)
    assert not is_exact(s, dataclasses.replace(nf, singles=(),
                                               pairs=((0, 1, 0, 1),)))
