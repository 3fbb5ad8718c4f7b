"""Stabilizer groups, graph states, subgroups on parts, and generator algebra.

Groups are lists of independent commuting Pauli products with g^order(g) = I
exactly, over prime or squarefree D. All group-membership and independence
questions reduce to linear algebra over F_p per prime factor, recombined
through the CRT lift; that keeps everything exact for composite D where Z_D
is not a field. Generator elimination runs on [gamma, x, z] integer rows
with the closed forms of pauli.row_multiply and row_power.

Generator lists may be longer than n for intermediate objects; sizes always
come from the product of generator orders, never from a |gens| = n assumption.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from . import linalg
from .errors import (
    InvalidStabilizer,
    NotAState,
    NotSquarefree,
    NotSubgroup,
    ShapeMismatch,
)
from .modring import factorize, inv_mod
from .pauli import (
    PauliProduct,
    from_exponents,
    from_row,
    identity,
    is_identity_on,
    multiply,
    order,
    power,
    restrict,
    row_multiply,
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
            rows = [_reduced_row(g, p) for g in self.gens if order(g) % p == 0]
            if rows and linalg.rank(rows, p) != len(rows):
                raise InvalidStabilizer(f"generators dependent mod {p}")

    @property
    def size(self) -> int:
        out = 1
        for g in self.gens:
            out *= order(g)
        return out

    def is_state(self) -> bool:
        return self.size == self.d ** self.n


def _reduced_row(g: PauliProduct, p: int) -> list[int]:
    return [v % p for v in g.x] + [v % p for v in g.z]


def sylow_component(g: PauliProduct, p: int) -> PauliProduct:
    """The order-p part of g (identity when p does not divide order(g))."""
    delta = order(g)
    if delta % p != 0:
        return identity(g.d, g.n)
    rest = delta // p
    return power(g, rest * inv_mod(rest % p, p))


def reduce_generators(d: int, paulis: list[PauliProduct], n: int) -> list[PauliProduct]:
    """Canonical independent generator list for the group generated by `paulis`.

    Per prime factor, the Sylow components are Gauss-eliminated with actual
    group operations on [gamma, x, z] integer rows (so phases ride along
    exactly); pivots are normalized to exponent 1. The per-prime reduced
    echelon basis is unique, which makes the output a canonical form: two
    generating sets of the same group reduce to identical lists.
    """
    mod = factorize(d)
    out: list[PauliProduct] = []
    for p in mod.primes:
        rows: list[list[int]] = []
        for g in paulis:
            delta = order(g)
            if delta % p == 0:     # else the Sylow component is the identity
                rest = delta // p
                rows.append(row_power(to_row(g), rest * inv_mod(rest % p, p), d))
        r = 0
        for c in range(1, 2 * n + 1):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            head = rows[r] = row_power(rows[r], inv_mod(rows[r][c] % p, p), d)
            for i, row in enumerate(rows):
                f = row[c] % p
                if i != r and f:
                    rows[i] = row_multiply(row, row_power(head, -f, d), d)
            r += 1
        if any(any(row) for row in rows[r:]):
            raise InvalidStabilizer("dependent generators with phase residue")
        out.extend(from_row(d, row) for row in rows[:r])
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


def _crt_lift_multiplier(d: int, p: int) -> int:
    """m with m = 1 mod p and m = 0 mod D/p."""
    rest = d // p
    return (rest * inv_mod(rest % p, p)) % d


def _element_from_coeffs(group: StabilizerGroup, coeffs: list[int]) -> PauliProduct:
    row = [0] * (2 * group.n + 1)
    for g, c in zip(group.gens, coeffs):
        if c % order(g):
            row = row_multiply(row, row_power(to_row(g), c, group.d), group.d)
    return from_row(group.d, row)


def subgroup_on_part(group: StabilizerGroup, part) -> StabilizerGroup:
    """Subgroup of elements acting as the identity off `part`.

    Computed per prime factor as the coefficient nullspace of the off-part
    exponent columns over F_p, lifted back to Z_D coefficients via the CRT.
    """
    part_set = set(part)
    off = [i for i in range(group.n) if i not in part_set]
    if not group.gens:
        return StabilizerGroup(group.d, group.n, ())
    mod = factorize(group.d)
    found: list[PauliProduct] = []
    for p in mod.primes:
        rows = [[g.x[i] % p for i in off] + [g.z[i] % p for i in off]
                for g in group.gens]
        lift = _crt_lift_multiplier(group.d, p)
        for c in linalg.left_nullspace(rows, p):
            el = _element_from_coeffs(group, [ci * lift for ci in c])
            if not el.is_identity():
                found.append(el)
    gens = reduce_generators(group.d, found, group.n)
    for g in gens:
        assert is_identity_on(g, off)
    return StabilizerGroup(group.d, group.n, tuple(gens))


def reduced_rank(group: StabilizerGroup, part) -> int:
    """Rank of the reduced density operator on `part`: D^{|part|} / |S_part|."""
    if not group.is_state():
        raise NotAState(f"group size {group.size} != D^n")
    sub = subgroup_on_part(group, part)
    return group.d ** len(set(part)) // sub.size


def member_coefficients(group: StabilizerGroup, p: PauliProduct) -> list[int] | None:
    """Coefficients c with prod_i gens[i]^{c_i} = p exactly, or None."""
    if p.d != group.d or p.n != group.n:
        raise ShapeMismatch("element shape differs from group shape")
    mod = factorize(group.d)
    total = [0] * len(group.gens)
    for pr in mod.primes:
        rows = [_reduced_row(g, pr) for g in group.gens]
        target = _reduced_row(sylow_component(p, pr), pr)
        sol = linalg.solve(rows, target, pr)
        if sol is None:
            return None
        lift = _crt_lift_multiplier(group.d, pr)
        total = [(t + s * lift) % group.d for t, s in zip(total, sol)]
    if _element_from_coeffs(group, total) != p:
        return None
    return total


def member(group: StabilizerGroup, p: PauliProduct) -> bool:
    return member_coefficients(group, p) is not None


def extend_generators(group: StabilizerGroup,
                      partial: list[PauliProduct]) -> StabilizerGroup:
    """Full generating set beginning with `partial` (prime D).

    Adjoins canonical generators of the group one at a time whenever they
    enlarge the span, mirroring incremental generator completion.
    """
    mod = factorize(group.d)
    if not mod.is_prime:
        from .errors import NonPrimeD

        raise NonPrimeD("generator completion is defined for prime D")
    p = group.d
    for t in partial:
        if not member(group, t):
            raise NotSubgroup(f"{to_text(t)} is not in the group")
    rows = [_reduced_row(t, p) for t in partial]
    chosen = list(partial)
    if rows and linalg.rank(rows, p) != len(rows):
        raise InvalidStabilizer("partial generators are dependent")
    for g in group.gens:
        row = _reduced_row(g, p)
        if not linalg.in_span(rows, row, p):
            chosen.append(g)
            rows.append(row)
    return StabilizerGroup(group.d, group.n, tuple(chosen))


def tensor_groups(a: StabilizerGroup, b: StabilizerGroup) -> StabilizerGroup:
    """Group of the product state on the concatenated register."""
    if a.d != b.d:
        raise ShapeMismatch("dimensions differ")
    gens = [tensor(g, identity(b.d, b.n)) for g in a.gens]
    gens += [tensor(identity(a.d, a.n), g) for g in b.gens]
    return StabilizerGroup(a.d, a.n + b.n, tuple(gens))


def try_factor(group: StabilizerGroup,
               left) -> tuple[StabilizerGroup, StabilizerGroup] | None:
    """Split into factors on `left` and its complement when possible.

    Succeeds iff some generator basis has every generator supported entirely
    on one side, which holds exactly when |S_left| * |S_right| = |S|.
    """
    left_sorted = sorted(set(left))
    right_sorted = [i for i in range(group.n) if i not in set(left)]
    sub_l = subgroup_on_part(group, left_sorted)
    sub_r = subgroup_on_part(group, right_sorted)
    if sub_l.size * sub_r.size != group.size:
        return None
    gl = StabilizerGroup(group.d, len(left_sorted),
                         tuple(restrict(g, left_sorted) for g in sub_l.gens))
    gr = StabilizerGroup(group.d, len(right_sorted),
                         tuple(restrict(g, right_sorted) for g in sub_r.gens))
    return gl, gr


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
    return StabilizerGroup(d, 2, (
        from_exponents(d, (1, 1), (0, 0)),
        from_exponents(d, (0, 0), (1, d - 1)),
    ))


def ghz_group(d: int) -> StabilizerGroup:
    """<X1 X2 X3, Z1 Z2^{-1}, Z1 Z3^{-1}>: (1/sqrt D) sum |iii>."""
    return StabilizerGroup(d, 3, (
        from_exponents(d, (1, 1, 1), (0, 0, 0)),
        from_exponents(d, (0, 0, 0), (1, d - 1, 0)),
        from_exponents(d, (0, 0, 0), (1, 0, d - 1)),
    ))


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
