"""Stabilizer code channels: Choi states, decomposition, capacities, duality.

A code is a graph state on n output qudits plus k independent Z-type coding
generators (prime D). Its Choi state lives on k+n qudits (inputs first); the
tripartition normal form of that state with parts (inputs, B, C) yields the
channel decomposition directly, and `SENDS` says what each role sends:

  EPR input<->B   perfect quantum channel to B    (X and Z to B)
  GHZ input,B,C   perfectly decohering channel    (Z to both)
  EPR input<->C   depolarizing channel to B       (X and Z to C)

Coding generators, the Choi state's generators and the information groups
are [gamma, x, z] rows; the Choi rows are built directly, in the layout of
bench/checker.choi_rows. Input-side Pauli groups are stored in the
transformed input basis; the input-side gate list is recorded so membership
queries for original-basis operators conjugate through it first (the
transpose enters because an input-side Choi unitary acts transposed on the
isometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .canonicalize import (
    COUNT_PARTS,
    NormalForm,
    check_cover,
    tripartition_normal_form,
)
from .clifford import conjugate_rows, cphase, inverse_gates
from .errors import (
    InternalInvariant,
    InvalidCode,
    NonPrimeD,
    NotMaximallyMixedInput,
    ShapeMismatch,
)
from .modring import factorize
from .pauli import pauli_row, reduce_row
from .stabilizer import (
    GraphAdjacency,
    StabilizerGroup,
    from_graph,
    graph_generators,
    reduced_rank,
)


@dataclass(frozen=True)
class CodeSpec:
    """An [[n, k]]_D additive graph code: graph plus Z-type coding group,
    whose generators are [gamma, x, z] rows, stored reduced, as tuples."""

    n: int
    k: int
    d: int
    graph: GraphAdjacency
    coding_gens: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not factorize(self.d).is_prime:
            raise NonPrimeD(f"codes are defined for prime D, got {self.d}")
        if self.graph.n != self.n:
            raise ShapeMismatch("graph size differs from n")
        if len(self.coding_gens) != self.k:
            raise InvalidCode(f"expected {self.k} coding generators")
        if any(len(f) != 2 * self.n + 1 for f in self.coding_gens):
            raise ShapeMismatch("coding generator shape differs from code")
        gens = tuple(reduce_row(f, self.d) for f in self.coding_gens)
        object.__setattr__(self, "coding_gens", gens)
        if any(any(f[:self.n + 1]) for f in gens):
            raise InvalidCode("coding generators must be plain Z products")
        if gens and linalg.rank([f[self.n + 1:] for f in gens],
                                self.d) != self.k:
            raise InvalidCode("coding generators are dependent")

    @property
    def graph_group(self) -> StabilizerGroup:
        return from_graph(self.graph, self.d)


def code_to_choi_state(code: CodeSpec) -> StabilizerGroup:
    """Stabilizer state of the code's Choi ket on k+n qudits (inputs first).

    One generator per graph generator g_j, dressed with the input Z powers
    that cancel the phases of commuting g_j past the coding group; plus one
    X_input (x) f^{-1} generator per coding generator. Every factor is
    phase-free and no Z meets an X, so each row has gamma 0.
    """
    d, n, k = code.d, code.n, code.k
    zs = [f[n + 1:] for f in code.coding_gens]
    rows = []
    for j, g in enumerate(graph_generators(code.graph, d)):
        # beta_{jl} is the commutation phase of g_j with f_l: the Z exponent
        # of f_l at vertex j, because g_j carries X only at vertex j
        rows.append([0] + [0] * k + g[1:n + 1] + [-z[j] % d for z in zs]
                    + g[n + 1:])
    for length, z in enumerate(zs):
        rows.append([0] + [int(i == length) for i in range(k)] + [0] * (n + k)
                    + [-v % d for v in z])
    choi = StabilizerGroup(d, k + n, tuple(rows))
    if reduced_rank(choi, list(range(k))) != d**k:
        raise InternalInvariant("Choi input marginal is not maximally mixed")
    return choi


def graph_choi_to_code(adj: GraphAdjacency, k: int,
                       d: int) -> tuple[CodeSpec, list]:
    """Read a code off a graph-form Choi state on k+n vertices.

    The first k vertices are inputs. Returns the CodeSpec (output graph plus
    coding generators from the input-output adjacency block) and the list of
    input-side controlled-phase gates from intra-input edges, recorded as the
    input unitary of the correspondence.
    """
    total = adj.n
    n = total - k
    if n <= 0:
        raise ShapeMismatch("graph must have more vertices than inputs")
    state = from_graph(adj, d)
    if reduced_rank(state, list(range(k))) != d**k:
        raise NotMaximallyMixedInput(
            f"input marginal rank != {d}^{k}; not an isometry's Choi state")
    out_graph = GraphAdjacency(
        n, tuple(tuple(adj.weights[i][j] for j in range(k, total))
                 for i in range(k, total)))
    coding = tuple(pauli_row(n, d, z={j - k: adj.weights[length][j]
                                      for j in range(k, total)})
                   for length in range(k))
    input_gates = [cphase(i, j, adj.weights[i][j])
                   for i in range(k) for j in range(i + 1, k)
                   if adj.weights[i][j] % d]
    return CodeSpec(n, k, d, out_graph, coding), input_gates


# the Paulis on its input qudit that each role sends to B and to C, by count
# tag; EPR roles come first, as the information groups list their generators
SENDS = {"m_AB": ("XZ", ""), "m_AC": ("", "XZ"), "m_ABC": ("Z", "Z")}


def capacities(counts) -> dict[str, int]:
    """Q_B, C_B, Q_C, C_C in qudits, from counts by tag: a side's Q counts
    the roles that send it X and Z, its C every role that sends it a Pauli."""
    caps = {}
    for side, name in enumerate("BC"):
        sends = [(counts[tag], sent[side]) for tag, sent in SENDS.items()]
        caps[f"Q_{name}"] = sum(m for m, paulis in sends if paulis == "XZ")
        caps[f"C_{name}"] = sum(m for m, paulis in sends if paulis)
    return caps


def bits(count: int, d: int) -> float:
    """A capacity of `count` qudits in log2 units."""
    return count * math.log2(d)


@dataclass(frozen=True)
class ChannelAnalysis:
    """The Choi state, its normal form with parts (inputs, B, C), and the
    subset information groups. The normal form's counts give the
    capacities, and its circuits[0] is the input-side unitary."""

    code: CodeSpec
    out_b: tuple[int, ...]
    out_c: tuple[int, ...]
    choi: StabilizerGroup
    normal_form: NormalForm
    info_b: tuple[tuple[int, ...], ...]
    info_c: tuple[tuple[int, ...], ...]

    # each capacity in qudits by its tag in lower case, read-only
    q_b, c_b, q_c, c_c = (
        property(lambda self, tag=tag: capacities(self.normal_form.counts)[tag])
        for tag in ("Q_B", "C_B", "Q_C", "C_C"))

    @property
    def consumed(self) -> int:
        """Input qudits held by a role in `SENDS`."""
        return sum(self.normal_form.counts[tag] for tag in SENDS)

    def bits(self, count: int) -> float:
        return bits(count, self.code.d)


def analyze_channel(code: CodeSpec, out_b, out_c) -> ChannelAnalysis:
    """Full channel analysis for the output bipartition (B, C).

    Builds the Choi state, runs the tripartition normal form with the inputs
    as part A, and reads the channel structure off the counts. Every input
    qudit is consumed by a role in `SENDS` (the input marginal is maximally
    mixed, so no input single survives).
    """
    out_b = tuple(sorted(out_b))
    out_c = tuple(sorted(out_c))
    check_cover((out_b, out_c), code.n, where="B and C")
    k = code.k
    choi = code_to_choi_state(code)
    part_a = list(range(k))
    part_b = [k + q for q in out_b]
    part_c = [k + q for q in out_c]
    nf = tripartition_normal_form(choi, part_a, part_b, part_c)
    if nf.m_a != 0:
        raise InternalInvariant("input qudit left unentangled by an isometry")
    info_b, info_c = _info_groups(code.d, k, nf)
    analysis = ChannelAnalysis(code=code, out_b=out_b, out_c=out_c, choi=choi,
                               normal_form=nf, info_b=info_b, info_c=info_c)
    if analysis.consumed != k:
        raise InternalInvariant("input qudits not fully consumed")
    return analysis


def _info_groups(d: int, k: int,
                 nf: NormalForm) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Subset information groups in the transformed input basis, as rows:
    the phase generator, then what `SENDS` says each role's input slot q
    sends to the side, as X_q and Z_q, slot by slot in ascending order."""
    slots = {tag: sorted(qudits[0] for names, qudits in nf.roles
                         if names == COUNT_PARTS[tag]) for tag in SENDS}
    column = {"X": 1, "Z": 1 + k}  # of qudit 0's exponent

    def unit(c: int) -> tuple[int, ...]:
        return tuple(int(i == c) for i in range(2 * k + 1))
    return tuple((unit(0),) + tuple(
        unit(column[p] + q) for tag, sent in SENDS.items() for q in slots[tag]
        for p in sent[side]) for side in (0, 1))


def centralizer_in_pauli(gens, d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Generator rows of the centralizer of the rows `gens` inside the
    k-qudit Pauli group.

    The exponent vectors of the centralizer form the symplectic nullspace of
    the generators' exponent matrix; the phase generator is always included.
    """
    rows = [[*g[k + 1:], *(-v % d for v in g[1:k + 1])]
            for g in gens if any(g[1:])]
    return ((1,) + (0,) * (2 * k),) + tuple(
        (0, *v) for v in linalg.nullspace(rows or [[0] * (2 * k)], d))


def _pattern_span(gens, d: int, k: int) -> list[list[int]]:
    return linalg.rref([g[1:] for g in gens], d)[0]


def pauli_groups_equal(a, b, d: int, k: int) -> bool:
    """Equality of phase-saturated input Pauli groups (exponent spans)."""
    return _pattern_span(a, d, k) == _pattern_span(b, d, k)


def verify_duality(analysis: ChannelAnalysis) -> bool:
    """G_B = Cent(G_C) and G_C = Cent(G_B) inside the input Pauli group."""
    d, k = analysis.code.d, analysis.code.k
    cent_c = centralizer_in_pauli(analysis.info_c, d, k)
    cent_b = centralizer_in_pauli(analysis.info_b, d, k)
    return (pauli_groups_equal(analysis.info_b, cent_c, d, k)
            and pauli_groups_equal(analysis.info_c, cent_b, d, k))


def transpose_pauli(row, d: int) -> tuple[int, ...]:
    """Matrix transpose in the computational basis of the reduced row:
    x -> -x with an omega correction from reordering."""
    n = len(row) // 2
    x, z = row[1:n + 1], row[n + 1:]
    gamma = row[0] + 2 * sum(a * b for a, b in zip(x, z))
    return (gamma % (2 * d), *(-v % d for v in x), *z)


def to_original_input_basis(analysis: ChannelAnalysis,
                            rows) -> tuple[tuple[int, ...], ...]:
    """Map transformed-basis input Pauli rows to the original input basis.

    The recorded Choi-side input unitary W acts on the isometry as W^T, so
    the original-basis operator is W^T p (W^T)^dag = (W^dag p^T W)^T. The
    inverse circuit is built once and replayed on all rows in one pass.
    """
    d, k = analysis.code.d, analysis.code.k
    if any(len(row) != 2 * k + 1 for row in rows):
        raise ShapeMismatch("operators must live on the k input qudits")
    # W acts on the inputs, qudits 0..k-1 of the Choi register, alone
    inv = inverse_gates(analysis.normal_form.circuits[0], d)
    moved = conjugate_rows(inv, [transpose_pauli(row, d) for row in rows], d)
    return tuple(transpose_pauli(row, d) for row in moved)
