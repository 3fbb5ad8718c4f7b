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
from dataclasses import dataclass

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
    tensor,
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
            if linalg.echelon(rows, range(1, 2 * self.n + 1), p, self.d)[2]:
                raise InvalidStabilizer(f"generators dependent mod {p}")

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
                 d: int) -> list[list[int]]:
    """Canonical echelon rows of the elements of span(rows) trivial off `part`.

    Eliminating the off-part columns first leaves the rows that vanish off
    the part; they span that subgroup (the part-ordered canonical form), and
    their echelon on the part's columns in natural order is canonical.
    """
    part_set = set(part)
    off = [q for q in range(n) if q not in part_set]
    local = linalg.echelon(rows, qudit_columns(n, off), p, d)[2]
    return linalg.echelon(local, sorted(qudit_columns(n, part_set)), p, d)[0]


def subgroup_on_part(group: StabilizerGroup, part) -> StabilizerGroup:
    """Subgroup of elements acting as the identity off `part`, per prime
    factor from the Sylow rows (canonical generators)."""
    part_set = set(part)
    bad = sorted(q for q in part_set if not 0 <= q < group.n)
    if bad:
        raise IndexOutOfRange(f"qudits {bad} outside register of size {group.n}")
    gens = []
    for p in factorize(group.d).primes:
        rows = rows_on_part(_sylow_rows(group.gens, p, group.d), group.n,
                            part_set, p, group.d)
        gens.extend(from_row(group.d, row) for row in rows)
    return StabilizerGroup(group.d, group.n, tuple(gens))


def reduced_rank(group: StabilizerGroup, part) -> int:
    """Rank of the reduced density operator on `part`: D^{|part|} / |S_part|."""
    if not group.is_state():
        raise NotAState(f"group size {group.size} != D^n")
    sub = subgroup_on_part(group, part)
    return group.d ** len(set(part)) // sub.size


def member(group: StabilizerGroup, p: PauliProduct) -> bool:
    """p is in the group exactly, phase included: reduced against each
    prime's basis, it leaves the identity."""
    if p.d != group.d or p.n != group.n:
        raise ShapeMismatch("element shape differs from group shape")
    row = to_row(p)
    for pr in factorize(group.d).primes:
        rest = linalg.echelon(_sylow_rows(group.gens, pr, group.d) + [row],
                              range(1, 2 * group.n + 1), pr, group.d)[2]
        if not rest:
            return False
        row = rest[0]
    return not any(row)


def tensor_groups(a: StabilizerGroup, b: StabilizerGroup) -> StabilizerGroup:
    """Group of the product state on the concatenated register."""
    if a.d != b.d:
        raise ShapeMismatch("dimensions differ")
    gens = [tensor(g, identity(b.d, b.n)) for g in a.gens]
    gens += [tensor(identity(a.d, a.n), g) for g in b.gens]
    return StabilizerGroup(a.d, a.n + b.n, tuple(gens))


def from_graph(adj: GraphAdjacency, d: int) -> StabilizerGroup:
    """Graph-state group: generator i is X_i times Z_j^{-w_ij} over neighbors."""
    n = adj.n
    gens = []
    for i in range(n):
        x = [0] * n
        x[i] = 1
        z = [(-adj.weights[i][j]) % d for j in range(n)]
        gens.append(from_exponents(d, x, z))
    return StabilizerGroup(d, n, tuple(gens))


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
