"""Dense re-verification of normal forms and channel analyses.

Each check returns (name, passed) pairs so the CLI can print one line per
check and exit nonzero when any fails. A normal form's counts derive from
its roles, so the checks read the roles. The dense cross-checks are skipped
(reported as passed with a -skipped suffix) when the Hilbert space exceeds
the desk-scale cap.
"""

from __future__ import annotations

import math

from . import linalg, oracle
from .canonicalize import NormalForm, is_exact
from .channel import ChannelAnalysis, to_original_input_basis, verify_duality
from .errors import InternalInvariant
from .stabilizer import StabilizerGroup

Check = tuple[str, bool]


def _qudit_conservation(nf: NormalForm) -> bool:
    """The counts tally every role, so each is one of the seven kinds; each
    role's qudits lie in the parts it names; the roles use up each part."""
    parts = [set(p) for p in nf.parts] + [set()] * (3 - len(nf.parts))
    named = [i for names, _ in nf.roles for i in names]
    return (sum(nf.counts.values()) == len(nf.roles)
            and all(named.count(i) == len(p) for i, p in enumerate(nf.parts))
            and all(0 <= i < 3 and q in parts[i] for names, qudits in nf.roles
                    for i, q in zip(names, qudits)))


def verify_normal_form(group: StabilizerGroup, nf: NormalForm) -> list[Check]:
    """Re-check a normal form against its input state: the per-prime forms
    conserve qudits, the form is exact (factor by factor at composite D),
    and the dense Schmidt ranks agree."""
    checks: list[Check] = [
        ("qudit-conservation", all(_qudit_conservation(sub)
                                   for _, sub in nf.forms)),
        ("per-factor-exactness" if nf.factors else "exactness",
         is_exact(group, nf))]
    if group.d ** group.n > oracle.DIMENSION_CAP:
        return checks + [("schmidt-ranks-skipped", True)]
    return checks + [("schmidt-ranks", _schmidt_ranks_match(group, nf))]


def _cut_rank(nf: NormalForm, side) -> int:
    """The Schmidt rank the normal form gives the cut, or 0 (no state's)
    when a crossing count exceeds n, where the power would be too large to
    build. Parsed counts are the role tally, so only a role table with more
    than n roles, which no state has, reaches this guard."""
    if any(sub.crossing_count(side) > nf.n for _, sub in nf.forms):
        return 0
    return math.prod(p ** sub.crossing_count(side) for p, sub in nf.forms)


def _schmidt_ranks_match(group: StabilizerGroup, nf: NormalForm) -> bool:
    v = oracle.state_from_group(group)
    cuts = [(i,) for i in range(len(nf.parts))]
    if len(nf.parts) == 3:
        cuts.append((0, 1))
    for side in cuts:
        qudits = [q for i in side for q in nf.parts[i]]
        if not qudits or len(qudits) == group.n:
            got = 1
        else:
            got = oracle.schmidt_rank(v, qudits, group.d, group.n)
        if got != _cut_rank(nf, side):
            return False
    return True


def verify_crt_decomposition(group: StabilizerGroup, factors) -> list[Check]:
    """Dense check: the CRT basis change of the state equals the tensor
    product of the given (prime, factor state) pairs, up to global phase."""
    if group.d ** group.n > oracle.DIMENSION_CAP:
        return [("crt-fidelity-skipped", True)]
    v = oracle.state_from_group(group)
    embedded = oracle.crt_embedded_state(v, group.d, group.n,
                                         [p for p, _ in factors])
    product = oracle.kron_states([oracle.state_from_group(f)
                                  for _, f in factors])
    return [("crt-fidelity",
             oracle.states_equal_up_to_phase(embedded, product))]


def verify_channel_analysis(analysis: ChannelAnalysis) -> list[Check]:
    """Re-check a channel analysis: consumption, duality, brute-force group."""
    code = analysis.code
    checks: list[Check] = [
        ("input-consumption", analysis.consumed == code.k),
        ("duality", verify_duality(analysis)),
    ]
    if code.d ** (code.n + code.k) <= oracle.INFO_GROUP_CAP:
        v_iso = oracle.isometry_from_code(code.graph_group, code.coding_gens)
        # one inverse circuit maps both sides' generators
        mapped = to_original_input_basis(analysis,
                                         analysis.info_b + analysis.info_c)
        split = len(analysis.info_b)
        ok = True
        for keep, gens in ((analysis.out_b, mapped[:split]),
                           (analysis.out_c, mapped[split:])):
            brute = oracle.brute_force_info_group(v_iso, keep, code.d,
                                                  code.n, code.k)
            # rref drops the zero rows, the phase-only elements among them
            brute_rows = [list(x) + list(z) for x, z in brute]
            mapped_rows = [g[1:] for g in gens]
            ok = ok and (linalg.rref(brute_rows, code.d)[0]
                         == linalg.rref(mapped_rows, code.d)[0])
        checks.append(("brute-force-info-groups", ok))
    else:
        checks.append(("brute-force-info-groups-skipped", True))
    return checks


def require_all(checks: list[Check]) -> None:
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise InternalInvariant(f"verification failed: {', '.join(failed)}")
