"""Stabilizer groups, graph states, subgroups on parts, and generator algebra.

Groups hold independent commuting generators with g^order(g) = I exactly,
over prime or squarefree D, as reduced [gamma, x, z] rows (tuples), and
every function here reads and returns rows. Every independence, membership
and subgroup question is answered by linalg.echelon per prime factor on the
rows of the generators' order-p (Sylow) parts, so phases stay exact and
composite D, where Z_D is not a field, needs no coefficient lifting. The
subgroup on a part eliminates the off-part columns first; the rows left
zero off the part span it.

Generator lists may be longer than n for intermediate objects; sizes always
come from the product of generator orders, never from a |gens| = n assumption.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from . import linalg
from .errors import (
    IndexOutOfRange,
    InvalidStabilizer,
    NotAState,
    NotSquarefree,
    ShapeMismatch,
)
from .modring import factorize, inv_mod
from .pauli import (
    pauli_row,
    reduce_row,
    row_multiply,
    row_order,
    row_power,
    to_text,
)


@dataclass(frozen=True)
class GraphAdjacency:
    """Symmetric weighted adjacency matrix with zero diagonal."""

    n: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.n or any(len(r) != self.n for r in self.weights):
            raise ShapeMismatch(f"adjacency must be {self.n} x {self.n}")
        for i in range(self.n):
            if self.weights[i][i] != 0:
                raise ShapeMismatch("graph must have no loops")
            for j in range(self.n):
                if self.weights[i][j] != self.weights[j][i]:
                    raise ShapeMismatch("adjacency must be symmetric")

    @staticmethod
    def from_edges(n: int, edges: list[tuple[int, int, int]]) -> GraphAdjacency:
        w = [[0] * n for _ in range(n)]
        for i, j, wt in edges:
            w[i][j] = wt
            w[j][i] = wt
        return GraphAdjacency(n, tuple(tuple(r) for r in w))


@dataclass(frozen=True)
class StabilizerGroup:
    """Abelian group of independent Pauli products with g^order(g) = I,
    given as [gamma, x, z] rows and stored reduced, as tuples."""

    d: int
    n: int
    gens: tuple[tuple[int, ...], ...]
    # at prime D, the natural-order echelon rows validation computed: the
    # rows of reduce_generators, never mutated in place; None otherwise
    _canonical_rows: tuple[list[int], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mod = factorize(self.d)
        if not mod.squarefree:
            raise NotSquarefree(f"stabilizer groups need squarefree D, got {self.d}")
        d, n = self.d, self.n
        if any(len(g) != 2 * n + 1 for g in self.gens):
            raise ShapeMismatch("generator shape differs from group shape")
        gens = tuple(reduce_row(g, d) for g in self.gens)
        object.__setattr__(self, "gens", gens)
        # the commutation phase of g and h is the dot product of
        # (x_g, z_g) with (z_h, -x_h)
        left, right = [], []
        for g in gens:
            if any(row_power(g, row_order(g, d), d)):
                raise InvalidStabilizer(
                    f"generator {to_text(g)} has g^order(g) != I")
            left.append(g[1:])
            right.append(g[n + 1:] + tuple(-v for v in g[1:n + 1]))
        for a, b in itertools.combinations(range(len(gens)), 2):
            if sum(map(operator.mul, left[a], right[b])) % d:
                raise InvalidStabilizer(
                    f"generators {to_text(gens[a])} and "
                    f"{to_text(gens[b])} do not commute")
        for p in mod.primes:
            rows = [list(g) for g in gens if row_order(g, d) % p == 0]
            basis, _, rest = linalg.echelon(rows, range(1, 2 * n + 1), p, d)
            if rest:
                raise InvalidStabilizer(f"generators dependent mod {p}")
        if mod.is_prime:
            object.__setattr__(self, "_canonical_rows", tuple(basis))

    @property
    def size(self) -> int:
        out = 1
        for g in self.gens:
            out *= row_order(g, self.d)
        return out

    def is_state(self) -> bool:
        # each order divides D: fewer than n generators never reach D^n
        return len(self.gens) >= self.n and self.size == self.d ** self.n


def _sylow_rows(gens, p: int, d: int) -> list[list[int]]:
    """Rows of the order-p parts of the rows `gens` (skipping those that
    are I)."""
    rows = []
    for g in gens:
        if row_order(g, d) % p == 0:
            m = row_order(g, d) // p
            rows.append(row_power(g, m * inv_mod(m % p, p), d))
    return rows


def qudit_columns(n: int, qudits) -> list[int]:
    """Row columns holding the x, then the z, exponents of `qudits`."""
    return [1 + q for q in qudits] + [1 + n + q for q in qudits]


def reduce_generators(d: int, rows, n: int) -> list[list[int]]:
    """Canonical independent generator rows for the group the rows generate.

    Per prime factor, the Sylow components are brought to reduced echelon
    form in natural column order by exact group operations (linalg.echelon).
    The per-prime basis is unique, which makes the output a canonical form:
    two generating sets of the same group reduce to identical lists.
    """
    out: list[list[int]] = []
    for p in factorize(d).primes:
        basis, _, rest = linalg.echelon(_sylow_rows(rows, p, d),
                                        range(1, 2 * n + 1), p, d)
        if any(any(row) for row in rest):
            raise InvalidStabilizer("dependent generators with phase residue")
        out.extend(basis)
    return out


def canonical_form(group: StabilizerGroup) -> tuple[str, ...]:
    """Bit-exact canonical serialization; equal iff the groups are equal."""
    reduced = reduce_generators(group.d, group.gens, group.n)
    return tuple([f"D {group.d} n {group.n}"] + [to_text(g) for g in reduced])


def groups_equal(a: StabilizerGroup, b: StabilizerGroup) -> bool:
    return canonical_form(a) == canonical_form(b)


def elements(group: StabilizerGroup):
    """Iterate all |S| group elements exactly once, as reduced rows."""
    d = group.d
    ranges = [range(row_order(g, d)) for g in group.gens]
    for combo in itertools.product(*ranges):
        el = pauli_row(group.n, d)
        for g, c in zip(group.gens, combo):
            if c:
                el = row_multiply(el, row_power(g, c, d), d)
        yield tuple(el)


def rows_on_part(rows: list[list[int]], n: int, part, p: int,
                 d: int) -> tuple[list[list[int]], list[list[int]]]:
    """Part-ordered echelon of span(rows): (heads, local).

    Eliminating the off-part columns first gives the heads, pivoting off the
    part, and leaves the rows that vanish off it; they span the subgroup
    trivial off the part, and their echelon on the part's columns in natural
    order, `local`, is its canonical form.
    """
    part_set = set(part)
    off = [q for q in range(n) if q not in part_set]
    heads, _, rest = linalg.echelon(rows, qudit_columns(n, off), p, d)
    return heads, linalg.echelon(rest, sorted(qudit_columns(n, part_set)),
                                 p, d)[0]


def checked_part(part, n: int) -> list[int]:
    """`part` sorted without repeats; IndexOutOfRange outside [0, n)."""
    part = sorted(set(part))
    bad = [q for q in part if not 0 <= q < n]
    if bad:
        raise IndexOutOfRange(f"qudits {bad} outside register of size {n}")
    return part


def part_rank(rows: list[list[int]], n: int, part, p: int) -> int:
    """Rank mod p of the rows restricted to the columns of the distinct
    qudits `part`, eliminated as column vectors."""
    return linalg.rank([[row[c] for row in rows]
                        for c in qudit_columns(n, part)], p)


def subgroup_on_part(group: StabilizerGroup, part) -> StabilizerGroup:
    """Subgroup of elements acting as the identity off `part`, per prime
    factor from the Sylow rows (canonical generators)."""
    part = checked_part(part, group.n)
    gens = []
    for p in factorize(group.d).primes:
        gens += rows_on_part(_sylow_rows(group.gens, p, group.d), group.n,
                             part, p, group.d)[1]
    return StabilizerGroup(group.d, group.n, tuple(gens))


def reduced_rank(group: StabilizerGroup, part) -> int:
    """Rank of the reduced density operator on `part`: D^{|part|} / |S_part|.

    A pure state's subgroup on a part A has dimension 2|A| - rank_p(S|_A)
    per prime p, where S|_A is the Sylow rows restricted to A's columns
    (Fattal et al., arXiv:quant-ph/0406168), so the rank is the product of
    p^(rank_p(S|_A) - |A|); no subgroup is built.
    """
    if not group.is_state():
        raise NotAState(f"group size {group.size} != D^n")
    part = checked_part(part, group.n)
    out = 1
    for p in factorize(group.d).primes:
        rows = _sylow_rows(group.gens, p, group.d)
        out *= p ** (part_rank(rows, group.n, part, p) - len(part))
    return out


def graph_generators(adj: GraphAdjacency, d: int) -> list[list[int]]:
    """Graph-state generator rows: generator i is X_i times Z_j^{-w_ij} over
    neighbors."""
    return [pauli_row(adj.n, d, {i: 1}, dict(enumerate(-w for w in weights)))
            for i, weights in enumerate(adj.weights)]


def from_graph(adj: GraphAdjacency, d: int) -> StabilizerGroup:
    """Graph-state group of graph_generators."""
    return StabilizerGroup(d, adj.n, tuple(graph_generators(adj, d)))


def epr_group(d: int) -> StabilizerGroup:
    """<X1 X2, Z1 Z2^{-1}>: the maximally entangled pair (1/sqrt D) sum |ii>."""
    return StabilizerGroup(d, 2, tuple(epr_pair_generators(d, 2, 0, 1)))


def ghz_group(d: int) -> StabilizerGroup:
    """<X1 X2 X3, Z1 Z2^{-1}, Z1 Z3^{-1}>: (1/sqrt D) sum |iii>."""
    return StabilizerGroup(d, 3, tuple(ghz_generators(d, 3, 0, 1, 2)))


def plus_state_group(d: int, n: int) -> StabilizerGroup:
    return StabilizerGroup(d, n, tuple(pauli_row(n, d, {i: 1})
                                       for i in range(n)))


def epr_pair_generators(d: int, n: int, qx: int, qy: int) -> list[list[int]]:
    """EPR-pair generator rows embedded at qudits (qx, qy) of an n-register."""
    return [pauli_row(n, d, {qx: 1, qy: 1}),
            pauli_row(n, d, z={qx: 1, qy: -1})]


def ghz_generators(d: int, n: int, qa: int, qb: int, qc: int) -> list[list[int]]:
    """GHZ generator rows embedded at qudits (qa, qb, qc) of an n-register."""
    return [pauli_row(n, d, {qa: 1, qb: 1, qc: 1}),
            pauli_row(n, d, z={qa: 1, qb: -1}),
            pauli_row(n, d, z={qa: 1, qc: -1})]
