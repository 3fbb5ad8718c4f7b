"""Stabilizer groups, graph states, subgroups on parts, and generator algebra.

Groups are lists of independent commuting Pauli products with g^order(g) = I
exactly, over prime or squarefree D. Every independence, membership and
subgroup question is answered by linalg.echelon per prime factor on the
[gamma, x, z] rows of the generators' order-p (Sylow) parts, so phases stay
exact and composite D, where Z_D is not a field, needs no coefficient
lifting. The subgroup on a part eliminates the off-part columns first; the
rows left zero off the part span it.

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
    PauliProduct,
    from_exponents,
    from_row,
    identity,
    multiply,
    order,
    power,
    row_power,
    to_row,
    to_text,
    x_op,
    z_op,
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
    """Abelian group of independent Pauli products with g^order(g) = I."""

    d: int
    n: int
    gens: tuple[PauliProduct, ...]
    # at prime D, the natural-order echelon rows validation computed: the
    # rows of reduce_generators, never mutated in place; None otherwise
    _canonical_rows: tuple[list[int], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mod = factorize(self.d)
        if not mod.squarefree:
            raise NotSquarefree(f"stabilizer groups need squarefree D, got {self.d}")
        # the commutation phase of g and h is the dot product of
        # (x_g, z_g) with (z_h, -x_h)
        left, right = [], []
        for g in self.gens:
            if g.d != self.d or g.n != self.n:
                raise ShapeMismatch("generator shape differs from group shape")
            if any(row_power(to_row(g), order(g), self.d)):
                raise InvalidStabilizer(
                    f"generator {to_text(g)} has g^order(g) != I")
            left.append(g.x + g.z)
            right.append(g.z + tuple(-v for v in g.x))
        for a, b in itertools.combinations(range(len(self.gens)), 2):
            if sum(map(operator.mul, left[a], right[b])) % self.d:
                raise InvalidStabilizer(
                    f"generators {to_text(self.gens[a])} and "
                    f"{to_text(self.gens[b])} do not commute")
        for p in mod.primes:
            rows = [to_row(g) for g in self.gens if order(g) % p == 0]
            basis, _, rest = linalg.echelon(rows, range(1, 2 * self.n + 1),
                                            p, self.d)
            if rest:
                raise InvalidStabilizer(f"generators dependent mod {p}")
        if mod.is_prime:
            object.__setattr__(self, "_canonical_rows", tuple(basis))

    @property
    def size(self) -> int:
        out = 1
        for g in self.gens:
            out *= order(g)
        return out

    def is_state(self) -> bool:
        return self.size == self.d ** self.n


def _sylow_rows(gens, p: int, d: int) -> list[list[int]]:
    """Rows of the order-p parts of `gens` (skipping those that are I)."""
    rows = []
    for g in gens:
        if order(g) % p == 0:
            m = order(g) // p
            rows.append(row_power(to_row(g), m * inv_mod(m % p, p), d))
    return rows


def qudit_columns(n: int, qudits) -> list[int]:
    """Row columns holding the x, then the z, exponents of `qudits`."""
    return [1 + q for q in qudits] + [1 + n + q for q in qudits]


def reduce_generators(d: int, paulis: list[PauliProduct], n: int) -> list[PauliProduct]:
    """Canonical independent generator list for the group generated by `paulis`.

    Per prime factor, the Sylow components are brought to reduced echelon
    form in natural column order by exact group operations (linalg.echelon).
    The per-prime basis is unique, which makes the output a canonical form:
    two generating sets of the same group reduce to identical lists.
    """
    out: list[PauliProduct] = []
    for p in factorize(d).primes:
        basis, _, rest = linalg.echelon(_sylow_rows(paulis, p, d),
                                        range(1, 2 * n + 1), p, d)
        if any(any(row) for row in rest):
            raise InvalidStabilizer("dependent generators with phase residue")
        out.extend(from_row(d, row) for row in basis)
    return out


def canonical_form(group: StabilizerGroup) -> tuple[str, ...]:
    """Bit-exact canonical serialization; equal iff the groups are equal."""
    reduced = reduce_generators(group.d, list(group.gens), group.n)
    return tuple([f"D {group.d} n {group.n}"] + [to_text(g) for g in reduced])


def groups_equal(a: StabilizerGroup, b: StabilizerGroup) -> bool:
    return canonical_form(a) == canonical_form(b)


def elements(group: StabilizerGroup):
    """Iterate all |S| group elements exactly once."""
    ranges = [range(order(g)) for g in group.gens]
    for combo in itertools.product(*ranges):
        el = identity(group.d, group.n)
        for g, c in zip(group.gens, combo):
            if c:
                el = multiply(el, power(g, c))
        yield el


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
        rows = rows_on_part(_sylow_rows(group.gens, p, group.d), group.n,
                            part, p, group.d)[1]
        gens.extend(from_row(group.d, row) for row in rows)
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


def graph_generators(adj: GraphAdjacency, d: int) -> list[PauliProduct]:
    """Graph-state generators: generator i is X_i times Z_j^{-w_ij} over
    neighbors."""
    n = adj.n
    return [from_exponents(d, [int(j == i) for j in range(n)],
                           [-w % d for w in adj.weights[i]]) for i in range(n)]


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
    return StabilizerGroup(d, n, tuple(x_op(d, n, i) for i in range(n)))


def epr_pair_generators(d: int, n: int, qx: int, qy: int) -> list[PauliProduct]:
    """EPR-pair generators embedded at qudits (qx, qy) of an n-register."""
    return [
        multiply(x_op(d, n, qx), x_op(d, n, qy)),
        multiply(z_op(d, n, qx), z_op(d, n, qy, d - 1)),
    ]


def ghz_generators(d: int, n: int, qa: int, qb: int, qc: int) -> list[PauliProduct]:
    """GHZ generators embedded at qudits (qa, qb, qc) of an n-register."""
    xxx = multiply(multiply(x_op(d, n, qa), x_op(d, n, qb)), x_op(d, n, qc))
    return [
        xxx,
        multiply(z_op(d, n, qa), z_op(d, n, qb, d - 1)),
        multiply(z_op(d, n, qa), z_op(d, n, qc, d - 1)),
    ]
