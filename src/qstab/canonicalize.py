"""EPR/GHZ normal forms of bipartitioned and tripartitioned stabilizer states.

The constructive pipeline, for prime D:

  1. unentangled extraction: while some part carries a local subgroup element,
     pivot it to a bare X on one qudit and retire the qudit as a single |+>.
  2. EPR extraction on a pair of parts: whenever two elements of the
     two-part subgroup have non-commuting first-part components, normalize
     their commutation phase to a single omega, pivot one element to
     Z Z^{-1}, shape the other to X X across one qudit of each part, and
     retire the pair.
  3. GHZ extraction: pick a BC-local element and pivot it to Z_b Z_c^{-1};
     one elimination on C's columns then yields the element whose C-pattern
     is a bare X_c and, among the rows it leaves trivial on C, the AB-local
     partner carrying the matching Z_b; pivot the partner to Z_a^{-1} Z_b,
     shape the X_c element to X_a X_b X_c and retire the triple.

The input is validated once, when it is built, and extraction starts from
the natural-order echelon rows that validation kept on the group; from there
the active generators are [gamma, x, z] echelon rows. A single phase first
asks by rank whether its part A carries a local element: the active state is
pure, so that subgroup has dimension 2|A| - rank of the rows on A's columns
(Fattal et al., arXiv:quant-ph/0406168), and full rank ends the phase with
no elimination. Otherwise a single or EPR phase holds the rows in the
part-ordered echelon of its qudits: rows pivoting off the part, then the
canonical rows of the subgroup on it. That costs one elimination per
phase; each step then writes pivot words in closed form from the exponents
(clifford.pivot_part_gates), conjugates the rows through them
(clifford.conjugate_rows), clears the retired columns with its own extracted
rows and re-echelons only the rows on the part. A GHZ step starts from
the canonical natural-order rows, takes the BC subgroup, and reads both
partners off one elimination on C's columns and one on B's.

Every D runs one prime at a time, on the CRT factors of the state (a
prime-D state is its only factor). A form stores roles and circuits, and its
counts derive: at prime D each count is the number of roles of its kind
(`COUNT_PARTS`), at squarefree composite D the componentwise minimum across
factors; the per-factor forms remain ground truth and ride along, and
`NormalForm.forms` lists them at any D.

All tie-breaks are fixed (lowest generator index, lowest qudit index), so
identical inputs produce identical normal forms. Every prime-D run ends with
a built-in exactness check: the input conjugated by the returned unitaries
must equal the normal-form group bit-exactly. It is checked in closed form:
every conjugated generator lies in the normal-form group, and both groups
have D^n elements.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

from . import linalg
from .clifford import Gate, conjugate_rows, phase_fix, pivot_part_gates
from .crt import decompose_state
from .errors import (
    InternalInvariant,
    NonPrimeD,
    PreconditionViolated,
    ShapeMismatch,
)
from .modring import factorize, inv_mod
from .pauli import pauli_row, row_power
from .stabilizer import (
    StabilizerGroup,
    epr_pair_generators,
    ghz_generators,
    part_rank,
    qudit_columns,
    rows_on_part,
)


def check_cover(parts, n: int, base: int = 0,
                where: str = "the partition") -> None:
    """Raise ShapeMismatch unless `parts` split the n qudits; messages
    number qudits from `base`."""
    seen: set[int] = set()
    for q in (q for part in parts for q in part):
        if not 0 <= q < n:
            raise ShapeMismatch(f"qudit {q + base} outside register of size {n}")
        if q in seen:
            raise ShapeMismatch(f"qudit {q + base} appears twice in {where}")
        seen.add(q)
    missing = [q + base for q in range(n) if q not in seen]
    if missing:
        total = f" ({len(missing)} in all)" if len(missing) > 10 else ""
        raise ShapeMismatch(f"qudits {missing[:10]}{total} not covered by {where}")


@dataclass(frozen=True)
class Partition:
    """Two or three disjoint index sets covering all n qudits."""

    n: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.parts) not in (2, 3):
            raise ShapeMismatch("partitions have two or three parts")
        check_cover(self.parts, self.n)
        object.__setattr__(self, "parts",
                           tuple(tuple(sorted(p)) for p in self.parts))


# the part indices each count tag names, in the order reports list them
COUNT_PARTS = {"m_A": (0,), "m_B": (1,), "m_C": (2,), "m_AB": (0, 1),
               "m_AC": (0, 2), "m_BC": (1, 2), "m_ABC": (0, 1, 2)}


@dataclass(frozen=True)
class NormalForm:
    """Per-part unitaries and the qudit role assignment; the counts derive.

    At prime D each count m_X is the number of roles naming the parts X.
    For composite D, `factors` holds the per-prime normal forms (ground
    truth) and the form has no roles or circuits; its counts are their
    componentwise minimum, which `composite_counts_derived` reports.
    """

    d: int
    n: int
    parts: tuple[tuple[int, ...], ...]
    singles: tuple[tuple[int, int], ...] = ()
    pairs: tuple[tuple[int, int, int, int], ...] = ()
    triples: tuple[tuple[int, int, int], ...] = ()
    circuits: tuple[tuple[Gate, ...], ...] = ()
    factors: tuple[tuple[int, "NormalForm"], ...] = ()
    # the input this very object passed the built-in exactness check
    # against; parsing, replace() and construction leave it unset
    _exact_for: StabilizerGroup | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def composite_counts_derived(self) -> bool:
        return bool(self.factors)

    @property
    def forms(self) -> tuple[tuple[int, "NormalForm"], ...]:
        """(prime, form) per prime factor of D; at prime D, the form itself."""
        return self.factors or ((self.d, self),)

    @functools.cached_property
    def counts(self) -> MappingProxyType:
        """The counts by report tag (m_ab is tagged m_AB), read-only and
        tallied once per form: the role tally at prime D, the minimum over
        the factor forms at composite D."""
        if self.factors:
            tallies = [sub.counts for _, sub in self.factors]
            return MappingProxyType({tag: min(t[tag] for t in tallies)
                                     for tag in COUNT_PARTS})
        names = [names for names, _ in self.roles]
        return MappingProxyType({tag: names.count(idx)
                                 for tag, idx in COUNT_PARTS.items()})

    # each count by its tag in lower case, read-only
    m_a, m_b, m_c, m_ab, m_ac, m_bc, m_abc = (
        property(lambda self, tag=tag: self.counts[tag]) for tag in COUNT_PARTS)

    @property
    def roles(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(part indices, qudits) of every single, pair and triple, in the
        order the report lists them."""
        return (tuple(((pi,), (q,)) for q, pi in self.singles)
                + tuple(((pi, pj), (qx, qy)) for pi, pj, qx, qy in self.pairs)
                + tuple(((0, 1, 2), triple) for triple in self.triples))

    def crossing_count(self, side) -> int:
        """Normal-form factors crossing the cut with the given part indices
        on one side: those whose parts lie on both sides, so a GHZ crosses
        every nontrivial cut once."""
        side_set, counts = set(side), self.counts
        return sum(counts[tag] for tag, idx in COUNT_PARTS.items()
                   if 0 < len(side_set.intersection(idx)) < len(idx))


def is_exact(group: StabilizerGroup, nf: NormalForm) -> bool:
    """The input is a state with the form's D and n, and at prime D each
    part's circuit acts inside its part and the input conjugated by the
    circuits equals the normal-form group bit-exactly. At composite D each
    factor form is exact for the input's CRT factor at its prime.

    The part circuits are replayed one after another over the input
    generators; their supports are disjoint, so the order does not matter.
    The normal-form group is the set of rows with gamma 0 whose X exponents
    are constant and whose Z exponents sum to 0 mod D on every role; with
    roles covering each qudit once it has D^n elements. Replay keeps the
    input's size, so a state whose replayed generators all lie in that set
    equals it. A form that passed this check against an equal input when it
    was built is not replayed again.
    """
    if nf._exact_for is not None and nf._exact_for == group:
        return True
    if (group.d, group.n) != (nf.d, nf.n) or not group.is_state():
        return False
    if nf.factors:
        factors = decompose_state(group)
        return ([p for p, _ in factors] == [p for p, _ in nf.factors]
                and all(is_exact(factor, sub) for (_, factor), (_, sub)
                        in zip(factors, nf.factors)))
    if len(nf.circuits) != len(nf.parts):
        return False
    for part, circuit in zip(nf.parts, nf.circuits):
        allowed = set(part)
        if any(not allowed.issuperset(g.qudits) for g in circuit):
            return False
    gates = [g for circuit in nf.circuits for g in circuit]
    rows = conjugate_rows(gates, group.gens, nf.d)
    roles = [qudits for _, qudits in nf.roles]
    if sorted(q for role in roles for q in role) != list(range(nf.n)):
        return False
    n, d = nf.n, nf.d
    return all(row[0] == 0 and all(
        len({row[1 + q] for q in role}) == 1
        and sum(row[1 + n + q] for q in role) % d == 0 for role in roles)
        for row in rows)


class _Extraction:
    """Mutable working state shared by the extraction steps (prime D).

    The active group is held as [gamma, x, z] echelon rows from entry to
    end (the input was validated when built, and is_exact guards), in the
    part-ordered echelon of the held qudit set: rows[:split] have their
    pivots off the set, and rows[split:] are the canonical rows of the
    subgroup trivial off it. Holding every active qudit gives the canonical
    natural-order rows, which is where extraction starts.
    """

    def __init__(self, group: StabilizerGroup, partition: Partition):
        self.d = group.d
        self.n = group.n
        self.parts = [list(p) for p in partition.parts]
        self.rows = [list(row) for row in group._canonical_rows]
        self.held, self.split = set(range(self.n)), 0
        self.circuits: list[list[Gate]] = [[] for _ in self.parts]
        self.retired: set[int] = set()
        self.singles: list[tuple[int, int]] = []
        self.pairs: list[tuple[int, int, int, int]] = []
        self.triples: list[tuple[int, int, int]] = []

    def active_qudits(self, part_idx: int) -> list[int]:
        return [q for q in self.parts[part_idx] if q not in self.retired]

    def hold(self, qudits) -> list[list[int]]:
        """Canonical rows of the active elements trivial off `qudits`,
        holding the group in their part-ordered echelon (rows_on_part). Gates
        inside the set keep the heads an echelon off it and retire re-echelons
        the rows on it, so holding the same set again eliminates nothing."""
        qudits = set(qudits)
        if qudits != self.held:
            heads, local = rows_on_part(self.rows, self.n, qudits, self.d,
                                        self.d)
            self.rows, self.split, self.held = heads + local, len(heads), qudits
        return self.rows[self.split:]

    def trivial_on(self, qudits) -> bool:
        """No active element but I is trivial off A = `qudits`: the active
        state is pure, so that subgroup has dimension 2|A| minus the rank of
        the rows on A's 2|A| columns."""
        width = 2 * len(qudits)
        return width <= len(self.rows) and part_rank(
            self.rows, self.n, qudits, self.d) == width

    def canonical(self) -> list[list[int]]:
        """Hold every active qudit: the canonical natural-order rows."""
        return self.hold(q for q in range(self.n) if q not in self.retired)

    def apply(self, part_idx: int, gates: list[Gate],
              tracked: list[list[int]]) -> list[list[int]]:
        allowed = self.held.intersection(self.parts[part_idx])
        for g in gates:
            if not set(g.qudits) <= allowed:
                raise InternalInvariant("gate escapes its part's held qudits")
        self.circuits[part_idx].extend(gates)
        k = len(self.rows)
        rows = conjugate_rows(gates, self.rows + tracked, self.d)
        self.rows = rows[:k]
        return rows[k:]

    def pivot(self, part_idx: int, qudits, tracked: list[list[int]],
              which: int, form: str, target: int | None = None
              ) -> tuple[int, list[list[int]]]:
        """Pivot tracked[which] on `qudits` of one part to `form` at `target`
        (by default the lowest qudit where it acts), carrying every tracked
        row through the gates (clifford.pivot_part_gates)."""
        row = tracked[which]
        if target is None:
            target = min(q for q in qudits
                         if row[1 + q] or row[1 + self.n + q])
        gates = pivot_part_gates(row, qudits, target, form, self.d)
        return target, self.apply(part_idx, gates, tracked)

    def retire(self, qudits, tracked: list[list[int]]) -> None:
        """Retire `qudits`, clearing their columns with the step's extracted
        rows `tracked`, which must span the group there (at most one row
        operation per tracked row). Only the rows on the held set are
        re-echeloned; rows that fall dependent must be the exact identity.
        Echelon rows are independent and of order p, so their count checks
        the group's size."""
        basis, _, rest = linalg.echelon(
            tracked + self.rows, qudit_columns(self.n, qudits), self.d, self.d)
        if len(basis) != len(tracked):
            raise InternalInvariant("extracted rows do not span the retired qudits")
        self.retired.update(qudits)
        self.held.difference_update(qudits)
        local, _, dependent = linalg.echelon(
            rest[self.split:], sorted(qudit_columns(self.n, self.held)),
            self.d, self.d)
        if any(any(row) for row in dependent):
            raise InternalInvariant("active group holds a nontrivial phase")
        self.rows = rest[:self.split] + local
        if len(self.rows) != self.n - len(self.retired):
            raise InternalInvariant("active group lost or gained elements")

    def strip_phase(self, part_idx: int, tracked: list[list[int]],
                    which: int, qudit: int, use_x: bool) -> list[list[int]]:
        """Remove the residual omega power of tracked[which] via a Pauli
        conjugation at `qudit` (clifford.phase_fix).

        Every tracked element rides through the same gate: a Pauli conjugation
        can rephase any element with support at `qudit`.
        """
        if tracked[which][0] % 2 != 0:
            raise InternalInvariant("element has odd phase; p^D != I")
        fix = phase_fix(tracked[which], qudit, use_x, self.d)
        return self.apply(part_idx, fix, tracked) if fix else tracked


def _comm_on(p: list[int], q: list[int], qudits, n: int, d: int) -> int:
    """Commutation phase of the rows' components restricted to `qudits`."""
    return sum(p[1 + i] * q[1 + n + i] - p[1 + n + i] * q[1 + i]
               for i in qudits) % d


def _unit_head(rows: list[list[int]], qudits, column: int, n: int, d: int
               ) -> tuple[list[int] | None, list[list[int]]]:
    """Echelon `rows` on the columns of `qudits` (prime D): the head
    pivoting at `column` if it is 0 on the others (its pivot entry is 1),
    else None, and the rows the echelon leaves 0 there."""
    columns = qudit_columns(n, qudits)
    heads, pivots, rest = linalg.echelon(rows, columns, d, d)
    head = dict(zip(pivots, heads)).get(column)
    if head is not None and any(head[c] for c in columns if c != column):
        head = None
    return head, rest


def _extract_single_once(ctx: _Extraction, part_idx: int) -> bool:
    """One unentangled-qudit extraction from `part_idx`, if possible."""
    part_active = ctx.active_qudits(part_idx)
    if not part_active or (set(part_active) != ctx.held
                           and ctx.trivial_on(part_active)):
        return False
    sub = ctx.hold(part_active)
    if not sub:
        return False
    target, (s,) = ctx.pivot(part_idx, part_active, [sub[0]], 0, "X")
    (s,) = ctx.strip_phase(part_idx, [s], 0, target, use_x=False)
    if s != pauli_row(ctx.n, ctx.d, {target: 1}):
        raise InternalInvariant("single-qudit pivot failed")
    ctx.singles.append((target, part_idx))
    ctx.retire([target], [s])
    return True


def _extract_epr_once(ctx: _Extraction, pi: int, pj: int) -> bool:
    """One EPR extraction across parts (pi, pj), if possible."""
    ax = ctx.active_qudits(pi)
    ay = ctx.active_qudits(pj)
    if not ax or not ay:
        return False
    sub = ctx.hold(ax + ay)
    for a, b in itertools.combinations(range(len(sub)), 2):
        alpha = _comm_on(sub[b], sub[a], ax, ctx.n, ctx.d)
        if alpha:
            break
    else:
        return False
    s_j = sub[a]
    s_k = row_power(sub[b], inv_mod(alpha, ctx.d), ctx.d)

    qx, tracked = ctx.pivot(pi, ax, [s_j, s_k], 0, "Z")
    qy, tracked = ctx.pivot(pj, ay, tracked, 0, "Z-")
    s_j, s_k = ctx.strip_phase(pi, tracked, 0, qx, use_x=True)

    # commutation with s_j pins both X exponents of s_k to one
    if s_k[1 + qx] != 1 or s_k[1 + qy] != 1:
        raise InternalInvariant("partner element lost its X components")
    _, tracked = ctx.pivot(pi, ax, [s_j, s_k], 1, "X", qx)
    _, tracked = ctx.pivot(pj, ay, tracked, 1, "X", qy)
    s_j, s_k = ctx.strip_phase(pi, tracked, 1, qx, use_x=False)

    if (s_k != pauli_row(ctx.n, ctx.d, {qx: 1, qy: 1})
            or s_j != pauli_row(ctx.n, ctx.d, z={qx: 1, qy: -1})):
        raise InternalInvariant("EPR shaping failed")
    ctx.pairs.append((pi, pj, qx, qy))
    ctx.retire([qx, qy], [s_j, s_k])
    return True


def _extract_ghz_once(ctx: _Extraction) -> bool:
    """One GHZ extraction; False when the active group is exhausted.

    After t1's pivots, one echelon on C's columns gives both partners: t3 is
    its head at X_c, and the rows it leaves zero on C span S_AB, whose
    echelon on B's columns has t2 as its head at Z_b. The singles phase left
    S_A trivial, so t2 is the only AB element with that B pattern. A-local
    gates leave C's columns, and so the C echelon's choices, unchanged.
    """
    if not ctx.rows:
        return False
    ctx.canonical()  # t3 is picked by the order of the rows
    aq = [ctx.active_qudits(i) for i in range(3)]
    sub_bc = rows_on_part(ctx.rows, ctx.n, aq[1] + aq[2], ctx.d, ctx.d)[1]
    if not sub_bc:
        raise InternalInvariant("nonempty active state with empty BC subgroup")
    qb, tracked = ctx.pivot(1, aq[1], [sub_bc[0]], 0, "Z")
    qc, tracked = ctx.pivot(2, aq[2], tracked, 0, "Z-")
    (t1,) = ctx.strip_phase(1, tracked, 0, qb, use_x=True)

    t3, sub_ab = _unit_head(ctx.rows, aq[2], 1 + qc, ctx.n, ctx.d)
    t2, _ = _unit_head(sub_ab, aq[1], 1 + ctx.n + qb, ctx.n, ctx.d)
    if t2 is None:
        raise InternalInvariant("no AB element matching Z on the pivot qudit")
    if t3 is None:
        raise InternalInvariant("no element with bare X on the C pivot qudit")
    qa, tracked = ctx.pivot(0, aq[0], [t1, t2, t3], 1, "Z-")
    t1, t2, t3 = ctx.strip_phase(0, tracked, 1, qa, use_x=True)

    # commutation with t1 and t2 pins both X exponents of t3 to one
    if t3[1 + qa] != 1 or t3[1 + qb] != 1:
        raise InternalInvariant("GHZ candidate lost its X components")
    _, tracked = ctx.pivot(0, aq[0], [t1, t2, t3], 2, "X", qa)
    _, tracked = ctx.pivot(1, aq[1], tracked, 2, "X", qb)
    t1, t2, t3 = ctx.strip_phase(2, tracked, 2, qc, use_x=False)

    if (t1 != pauli_row(ctx.n, ctx.d, z={qb: 1, qc: -1})
            or t2 != pauli_row(ctx.n, ctx.d, z={qa: -1, qb: 1})
            or t3 != pauli_row(ctx.n, ctx.d, {qa: 1, qb: 1, qc: 1})):
        raise InternalInvariant("GHZ shaping failed")

    ctx.triples.append((qa, qb, qc))
    ctx.retire([qa, qb, qc], [t1, t2, t3])
    return True


def _extract_singles_and_pairs(ctx: _Extraction) -> None:
    """Every single phase, then every EPR phase, each held on its qudits.

    One round is enough: a step's new active group lies inside a part-local
    conjugate of the old one, so no part's subgroup grows, and a second
    round would extract nothing.
    """
    for pi in range(len(ctx.parts)):
        while _extract_single_once(ctx, pi):
            pass
    for pi, pj in itertools.combinations(range(len(ctx.parts)), 2):
        while _extract_epr_once(ctx, pi, pj):
            pass


def _prime_normal_form(group: StabilizerGroup,
                       partition: Partition) -> NormalForm:
    ctx = _Extraction(group, partition)
    _extract_singles_and_pairs(ctx)
    if len(partition.parts) == 3:
        while _extract_ghz_once(ctx):
            pass
    if ctx.rows:
        raise InternalInvariant("extraction finished with residual generators")
    nf = NormalForm(
        d=group.d, n=group.n, parts=partition.parts,
        singles=tuple(ctx.singles), pairs=tuple(ctx.pairs),
        triples=tuple(ctx.triples),
        circuits=tuple(tuple(c) for c in ctx.circuits))
    if not is_exact(group, nf):
        raise InternalInvariant("conjugated input differs from the normal form")
    object.__setattr__(nf, "_exact_for", group)
    return nf


def _normal_form(group: StabilizerGroup, parts) -> NormalForm:
    factors = decompose_state(group)
    partition = Partition(group.n, tuple(tuple(p) for p in parts))
    forms = tuple((p, _prime_normal_form(factor, partition))
                  for p, factor in factors)
    if len(forms) == 1:
        return forms[0][1]
    nf = NormalForm(d=group.d, n=group.n, parts=partition.parts, factors=forms)
    # every factor passed the built-in check against its factor state
    object.__setattr__(nf, "_exact_for", group)
    return nf


def bipartition_normal_form(group: StabilizerGroup, part_a,
                            part_b) -> NormalForm:
    """EPR-pair/single-qudit normal form across a bipartition."""
    return _normal_form(group, (part_a, part_b))


def tripartition_normal_form(group: StabilizerGroup, part_a, part_b,
                             part_c) -> NormalForm:
    """GHZ/EPR/single-qudit normal form across a tripartition."""
    return _normal_form(group, (part_a, part_b, part_c))


def _require_prime(d: int) -> None:
    if not factorize(d).is_prime:
        raise NonPrimeD("direct extraction requires prime D")


def _with_rest(n: int, parts: list[tuple[int, ...]]) -> Partition:
    """Complete a 1- or 2-part prefix with the remaining qudits."""
    covered = set().union(*(set(p) for p in parts)) if parts else set()
    rest = tuple(q for q in range(n) if q not in covered)
    if len(parts) == 1:
        return Partition(n, (parts[0], rest))
    if len(parts) == 2 and rest:
        return Partition(n, (parts[0], parts[1], rest))
    return Partition(n, tuple(parts))


def extract_unentangled(group: StabilizerGroup,
                        part) -> tuple[StabilizerGroup, tuple[Gate, ...], int]:
    """Pull every unentangled single qudit out of `part` (prime D).

    Returns the conjugated group (extracted qudits carry bare X generators),
    the local Clifford on `part`, and the extraction count.
    """
    _require_prime(group.d)
    partition = _with_rest(group.n, [tuple(sorted(part))])
    ctx = _Extraction(group, partition)
    count = 0
    while _extract_single_once(ctx, 0):
        count += 1
    gens = tuple(ctx.canonical()) + tuple(
        pauli_row(group.n, group.d, {q: 1}) for q, _ in ctx.singles)
    return StabilizerGroup(group.d, group.n, gens), tuple(ctx.circuits[0]), count


def extract_epr_pair(group: StabilizerGroup, part_x, part_y):
    """One EPR extraction across (part_x, part_y), or None when every pair of
    first-part components commutes (prime D).

    Returns (conjugated group, (gates_x, gates_y), (qx, qy)); the extracted pair
    generators stay in the returned group on the retired qudits.
    """
    _require_prime(group.d)
    partition = _with_rest(
        group.n, [tuple(sorted(part_x)), tuple(sorted(part_y))])
    ctx = _Extraction(group, partition)
    if not _extract_epr_once(ctx, 0, 1):
        return None
    _, _, qx, qy = ctx.pairs[0]
    gens = tuple(ctx.canonical()) + tuple(
        epr_pair_generators(group.d, group.n, qx, qy))
    return (StabilizerGroup(group.d, group.n, gens),
            (tuple(ctx.circuits[0]), tuple(ctx.circuits[1])), (qx, qy))


def extract_ghz(group: StabilizerGroup, part_a, part_b, part_c):
    """One GHZ extraction, or None when the state is fully extracted
    (prime D).

    Raises PreconditionViolated when a part still carries an unentangled
    subsystem or a pairwise EPR pair remains.
    """
    _require_prime(group.d)
    partition = Partition(group.n, (tuple(part_a), tuple(part_b),
                                    tuple(part_c)))
    ctx = _Extraction(group, partition)
    for pi in range(3):
        if _extract_single_once(ctx, pi):
            raise PreconditionViolated(
                f"part {pi} still carries an unentangled subsystem")
    for pi, pj in itertools.combinations(range(3), 2):
        if _extract_epr_once(ctx, pi, pj):
            raise PreconditionViolated(
                f"pairwise EPR extraction incomplete between parts {pi} and {pj}")
    if not _extract_ghz_once(ctx):
        return None
    qa, qb, qc = ctx.triples[0]
    gens = tuple(ctx.canonical()) + tuple(
        ghz_generators(group.d, group.n, qa, qb, qc))
    return (StabilizerGroup(group.d, group.n, gens),
            tuple(tuple(c) for c in ctx.circuits),
            (qa, qb, qc))
