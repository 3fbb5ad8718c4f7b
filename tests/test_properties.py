"""Hypothesis properties of bi- and tripartition normal forms over the whole
D set.

D runs over primes and squarefree composites, n from 0 to 16, and every
qudit lands in a random part, so parts may be empty. Each drawn instance
must conserve qudits, match the algebraic cut ranks, come out the same
twice, keep its counts under local Cliffords, and, at composite D, carry
per-factor forms that re-verify against the CRT factors. At prime D, one
round of single and EPR phases leaves nothing for a second round. Planted
states, tensor products of singles, pairs and GHZ triples scrambled on each
part, must come back with exactly their planted counts.
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from qstab.canonicalize import (
    Partition,
    _extract_singles_and_pairs,
    _Extraction,
    bipartition_normal_form,
    is_exact,
    tripartition_normal_form,
)
from qstab.crt import decompose_state
from qstab.formats import render_normal_form
from qstab.modring import factorize
from qstab.randgen import random_part_gates, random_state, scramble_group
from qstab.stabilizer import reduced_rank

from group_helpers import PLANTED_KINDS, planted_state


PRIMES = [2, 3, 5, 7, 11, 1009, 2**31 - 1]


@st.composite
def partitioned_states(draw, nparts, dims=(2, 3, 5, 7, 6, 10, 15, 30)):
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(0, 16))
    labels = draw(st.lists(st.integers(0, nparts - 1), min_size=n, max_size=n))
    parts = [[q for q in range(n) if labels[q] == i] for i in range(nparts)]
    return random_state(d, n, draw(st.integers(0, 2**32 - 1))), parts


def _prime_forms(nf):
    return [sub for _, sub in nf.forms]


def _factor_counts(nf):
    return [sub.counts for sub in _prime_forms(nf)]


def _check_properties(normal_form, group, parts, rng: random.Random):
    nf = normal_form(group, *parts)
    primes = factorize(group.d).primes

    # qudit conservation, per prime factor
    for sub in _prime_forms(nf):
        for i, part in enumerate(parts):
            pairs = sum(m for (a, b), m in (((0, 1), sub.m_ab), ((0, 2), sub.m_ac),
                                            ((1, 2), sub.m_bc)) if i in (a, b))
            singles = (sub.m_a, sub.m_b, sub.m_c)[i]
            assert singles + pairs + sub.m_abc == len(part)

    # the cut rank each part sees is the algebraic rank of its reduced state
    for i, part in enumerate(parts):
        rank = 1
        for p, sub in zip(primes, _prime_forms(nf)):
            rank *= p ** sub.crossing_count([i])
        assert reduced_rank(group, part) == rank

    # determinism
    again = normal_form(group, *parts)
    assert render_normal_form(again) == render_normal_form(nf)

    # local Cliffords on each part change no count
    local = [g for part in parts if part
             for g in random_part_gates(group.d, part, rng, 6)]
    moved = normal_form(scramble_group(group, local), *parts)
    assert _factor_counts(moved) == _factor_counts(nf)

    # per-factor forms re-verify against the CRT factors, replayed in full
    if nf.factors:
        for (p, sub), (p2, factor) in zip(nf.factors, decompose_state(group)):
            assert p == p2
            assert is_exact(factor, dataclasses.replace(sub))


@settings(max_examples=50, deadline=None)
@given(partitioned_states(3), st.randoms(use_true_random=False))
def test_tripartition_properties(case, rng: random.Random):
    _check_properties(tripartition_normal_form, *case, rng)


@settings(max_examples=50, deadline=None)
@given(partitioned_states(2), st.randoms(use_true_random=False))
def test_bipartition_properties(case, rng: random.Random):
    _check_properties(bipartition_normal_form, *case, rng)


@settings(max_examples=50, deadline=None)
@given(partitioned_states(3, PRIMES))
def test_one_round_of_single_and_epr_phases_suffices(case):
    group, parts = case
    ctx = _Extraction(group, Partition(group.n, tuple(map(tuple, parts))))
    _extract_singles_and_pairs(ctx)
    done = (list(ctx.roles), [list(c) for c in ctx.circuits])
    _extract_singles_and_pairs(ctx)
    assert (ctx.roles, ctx.circuits) == done


@st.composite
def planted_cases(draw):
    d = draw(st.sampled_from(PRIMES + [6, 10, 15, 30]))
    counts = {key: draw(st.integers(0, 3)) for key in PLANTED_KINDS}
    return planted_state(d, counts, draw(st.integers(0, 2**32 - 1))), counts


@settings(max_examples=88, deadline=None)
@given(planted_cases())
def test_planted_states_return_their_counts(case):
    (group, parts), counts = case
    nf = tripartition_normal_form(group, *parts)
    assert nf.counts == counts
    factors = decompose_state(group)
    assert len(factors) == len(_prime_forms(nf))
    for (_, factor), sub in zip(factors, _prime_forms(nf)):
        assert sub.counts == counts
        assert is_exact(factor, dataclasses.replace(sub))
