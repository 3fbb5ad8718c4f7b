"""Acceptance criteria.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Dense-oracle sizes respect the 4096-dimensional cap, which bounds n per D;
everything else runs at the stated scale. Tolerances: Schmidt ranks and
group equalities are exact integers / bit-exact strings; CRT fidelity is
1 - 1e-9; runtimes as stated.
"""

import random
import time

import pytest

from qstab import linalg, oracle
from qstab.canonicalize import (
    bipartition_normal_form,
    tripartition_normal_form,
)
from qstab.channel import (
    CodeSpec,
    analyze_channel,
    to_original_input_basis,
    verify_duality,
)
from qstab.clifford import conjugate
from qstab.crt import decompose_state
from qstab.pauli import from_exponents, from_row, phase_op, to_row, x_op, z_op
from qstab.randgen import (
    random_code,
    random_part_gates,
    random_partition,
    random_state,
    scramble_group,
)
from qstab.stabilizer import (
    GraphAdjacency,
    StabilizerGroup,
    canonical_form,
    epr_group,
    ghz_group,
)

from nf_reference import normal_form_group

# largest n with D^n inside the dense-oracle cap, per dimension
DENSE_N_CAP = {2: 6, 3: 6, 5: 5, 6: 4, 10: 3}


def _all_gates(nf):
    """The part circuits replayed one after another (disjoint supports)."""
    return [g for circuit in nf.circuits for g in circuit]


def _report(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def _eq100_states(d):
    s1 = StabilizerGroup(d, 3, tuple(map(to_row, (
        from_exponents(d, (0, 0, 0), (1, 0, d - 1)),
        from_exponents(d, (1, 0, 1), (0, 0, 0)),
        from_exponents(d, (0, 1, 0), (0, 0, 0)),
    ))))
    s2 = StabilizerGroup(d, 3, tuple(map(to_row, (
        from_exponents(d, (0, 0, 0), (1, 0, d - 1)),
        from_exponents(d, (1, 0, 1), (0, d - 1, 0)),
        from_exponents(d, (0, 1, 0), (d - 1, 0, 0)),
    ))))
    return s1, s2


def test_01_golden_bipartitions():
    start = time.monotonic()
    ok = True
    for d in (2, 3, 5):
        for state in _eq100_states(d):
            nf = bipartition_normal_form(state, [0, 1], [2])
            ok = ok and (nf.m_ab, nf.m_a, nf.m_b) == (1, 1, 0)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, f"two-qudit-A examples give (m_AB, m_A, m_B) = (1, 1, 0) "
               f"for D in {{2, 3, 5}} in {elapsed:.3f}s", ok)


def test_02_ghz_epr_normal_forms():
    start = time.monotonic()
    ok = True
    for d in (2, 3, 5, 6, 15):
        nf = tripartition_normal_form(ghz_group(d), [0], [1], [2])
        ok = ok and nf.m_abc == 1 and sum(nf.counts.values()) == 1
        nfe = bipartition_normal_form(epr_group(d), [0], [1])
        ok = ok and nfe.m_ab == 1 and sum(nfe.counts.values()) == 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(2, f"GHZ gives m_ABC = 1 and EPR gives m_AB = 1 for "
               f"D in {{2, 3, 5, 6, 15}} in {elapsed:.3f}s", ok)


def _cut_rank(nf, side):
    if nf.factors:
        rank = 1
        for p, sub in nf.factors:
            rank *= p ** sub.crossing_count(side)
        return rank
    return nf.d ** nf.crossing_count(side)


def _random_cases():
    cases = []
    for d in (2, 3, 5, 6):
        for i in range(50):
            seed = 10_000 * d + i
            rng = random.Random(seed)
            n = rng.randrange(3, DENSE_N_CAP[d] + 1)
            state = random_state(d, n, seed)
            parts = random_partition(n, 3, seed + 1)
            cases.append((d, n, state, parts))
    return cases


@pytest.fixture(scope="module")
def random_case_results():
    results = []
    for d, n, state, (a, b, c) in _random_cases():
        nf = tripartition_normal_form(state, a, b, c)
        results.append((d, n, state, (a, b, c), nf))
    return results


def test_03_oracle_rank_agreement(random_case_results):
    start = time.monotonic()
    ok = True
    for d, n, state, (a, b, c), nf in random_case_results:
        v = oracle.state_from_group(state)
        for side in ((0,), (1,), (2,), (0, 1)):
            qudits = [q for i in side for q in (a, b, c)[i]]
            if not qudits or len(qudits) == n:
                got = 1
            else:
                got = oracle.schmidt_rank(v, qudits, d, n)
            ok = ok and got == _cut_rank(nf, side)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _report(3, f"200 random states: dense Schmidt rank equals the normal-form "
               f"prediction on all four cuts in {elapsed:.1f}s", ok)


def test_04_exactness_of_unitaries(random_case_results):
    ok = True
    for d, n, state, _, nf in random_case_results:
        if nf.factors:
            for (p, sub_nf), (p2, sub_state) in zip(nf.factors,
                                                    decompose_state(state)):
                conj = StabilizerGroup(
                    p, n, tuple(map(to_row, (
                        conjugate(_all_gates(sub_nf), from_row(p, g))
                        for g in sub_state.gens))))
                ok = ok and p == p2 and canonical_form(conj) == \
                    canonical_form(normal_form_group(sub_nf))
        else:
            conj = StabilizerGroup(
                d, n, tuple(map(to_row, (conjugate(_all_gates(nf), from_row(d, g))
                                         for g in state.gens))))
            ok = ok and canonical_form(conj) == \
                canonical_form(normal_form_group(nf))
    _report(4, "200 random states: conjugating by the returned gate lists "
               "reproduces the declared normal form bit-exactly", ok)


def test_05_crt_fidelity():
    ok = True
    for d in (6, 10):
        for i in range(25):
            seed = 20_000 * d + i
            rng = random.Random(seed)
            n = rng.randrange(2, DENSE_N_CAP[d] + 1)
            state = random_state(d, n, seed)
            factors = decompose_state(state)
            v = oracle.state_from_group(state)
            embedded = oracle.crt_embedded_state(v, d, n,
                                                 [p for p, _ in factors])
            product = oracle.kron_states([oracle.state_from_group(f)
                                          for _, f in factors])
            ok = ok and oracle.fidelity(embedded, product) >= 1 - 1e-9
    _report(5, "50 random composite states: factor tensor matches the CRT "
               "basis change with fidelity >= 1 - 1e-9", ok)


def test_06_channel_golden_values():
    ok = True
    for d in (2, 3, 5):
        for k in (1, 2):
            n = k
            graph = GraphAdjacency(n, tuple(tuple(0 for _ in range(n))
                                            for _ in range(n)))
            coding = tuple(z_op(d, n, i) for i in range(k))
            ident = CodeSpec(n, k, d, graph, tuple(map(to_row, coding)))
            an = analyze_channel(ident, list(range(n)), [])
            ok = ok and (an.q_b, an.c_b, an.q_c, an.c_c) == (k, k, 0, 0)
        ghz = CodeSpec(2, 1, d, GraphAdjacency.from_edges(2, [(0, 1, 1)]),
                       tuple(map(to_row, (z_op(d, 2, 0),))))
        an = analyze_channel(ghz, [0], [1])
        ok = ok and (an.q_b, an.c_b, an.q_c, an.c_c) == (0, 1, 0, 1)
    _report(6, "identity code gives (k, k, 0, 0) and the GHZ code gives "
               "(0, 1, 0, 1) in log2 D units", ok)


def test_07_duality_and_brute_force():
    ok = True
    brute_checked = 0
    for d in (2, 3, 5):
        for i in range(34 if d != 5 else 32):
            seed = 30_000 * d + i
            rng = random.Random(seed)
            n = rng.randrange(2, 6)
            k = rng.randrange(1, min(2, n) + 1)
            graph, coding = random_code(d, n, k, seed)
            code = CodeSpec(n, k, d, graph, tuple(coding))
            b, c = random_partition(n, 2, seed + 1)
            an = analyze_channel(code, b, c)
            ok = ok and verify_duality(an)
            if d ** (n + k) <= oracle.INFO_GROUP_CAP:
                v_iso = oracle.isometry_from_code(code.graph_group,
                                                  code.coding_gens)
                for info, keep in ((an.info_b, b), (an.info_c, c)):
                    brute = oracle.brute_force_info_group(v_iso, keep,
                                                          d, n, k)
                    brute_rows = [list(x) + list(z) for x, z in brute
                                  if any(x) or any(z)]
                    mapped = to_original_input_basis(an, info)
                    rows = [list(g[1:]) for g in mapped if any(g[1:])]
                    lhs = linalg.rref(brute_rows, d)[0] if brute_rows else []
                    rhs = linalg.rref(rows, d)[0] if rows else []
                    ok = ok and lhs == rhs
                brute_checked += 1
    ok = ok and brute_checked > 0
    _report(7, f"100 random codes: duality holds on all; info groups match "
               f"the brute-force scan on {brute_checked} in-cap instances", ok)


def test_08_worked_example_groups():
    d = 3
    graph = GraphAdjacency.from_edges(4, [(2, 3, 1)])
    code = CodeSpec(4, 3, d, graph, tuple(map(to_row, (
        z_op(d, 4, 0), z_op(d, 4, 1), z_op(d, 4, 2)))))
    an = analyze_channel(code, [0, 2], [1, 3])
    exp_b = (phase_op(d, 3, 1), x_op(d, 3, 0), z_op(d, 3, 0), z_op(d, 3, 2))
    exp_c = (phase_op(d, 3, 1), x_op(d, 3, 1), z_op(d, 3, 1), z_op(d, 3, 2))
    ok = (tuple(from_row(d, g) for g in an.info_b) == exp_b
          and tuple(from_row(d, g) for g in an.info_c) == exp_c
          and verify_duality(an))
    _report(8, "composite isometry example: G_B = <lI, X_A1, Z_A1, Z_A3> and "
               "G_C = <lI, X_A2, Z_A2, Z_A3> exactly", ok)


def test_09_pentagon_bounds():
    pent = GraphAdjacency.from_edges(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
    v0 = CodeSpec(5, 1, 2, pent,
                  tuple(map(to_row, (from_exponents(2, [0] * 5, [1, 1, 0, 1, 0]),))))
    v1 = CodeSpec(5, 1, 2, pent,
                  tuple(map(to_row, (from_exponents(2, [0] * 5, [0, 1, 1, 0, 1]),))))
    b0 = analyze_channel(v0, [0, 1], [2, 3, 4])
    b1 = analyze_channel(v1, [0, 1], [2, 3, 4])
    ok = (b0.bits(b0.q_c) >= 1.0
          and b1.bits(b1.c_b) >= 1.0
          and b1.bits(b1.c_c) >= 1.0)
    _report(9, "pentagon subcodes: first gives Q_C >= 1 bit, second gives "
               "C_B >= 1 and C_C >= 1 bit", ok)


def test_10_local_unitary_invariance():
    ok = True
    scrambles = 0
    rng = random.Random(404)
    base_states = [
        (2, 6, random_state(2, 6, 77), random_partition(6, 3, 70)),
        (3, 5, random_state(3, 5, 78), random_partition(5, 3, 71)),
        (5, 4, random_state(5, 4, 79), random_partition(4, 3, 72)),
        (6, 4, random_state(6, 4, 80), random_partition(4, 3, 73)),
        (2, 5, random_state(2, 5, 81), random_partition(5, 3, 74)),
    ]
    for d, n, state, (a, b, c) in base_states:
        base_counts = tripartition_normal_form(state, a, b, c).counts
        current = state
        for _ in range(10):
            gates = []
            for part in (a, b, c):
                if part:
                    gates.extend(random_part_gates(d, part, rng, 5))
            current = scramble_group(current, gates)
            counts = tripartition_normal_form(current, a, b, c).counts
            ok = ok and counts == base_counts
            scrambles += 1
    ok = ok and scrambles == 50
    _report(10, "50 within-part Clifford scrambles never change any of the "
                "seven counts", ok)
