"""Chinese-Remainder decomposition of Paulis, groups, and states.

The per-qudit basis map a -> (a mod d1, a mod d2) conjugates X to X (x) X and
Z to Z^{r1} (x) Z^{r2}; on exponent vectors the split is exactly phase-free
(every component lands normal-ordered), and the lambda_D^gamma prefactor
factors exactly as lambda_{d1}^{u gamma} * lambda_{d2}^{v gamma} using the
Bezout identity u*d2 + v*d1 = 1. Generators split through the order-coprime
powers g^{mu_1 delta_2} and g^{mu_2 delta_1}, which land entirely on one
component each. A composite D decomposes one prime p at a time: the order-p
component of each generator is one-sided under the split D = p * D/p, and
its Z_p side generates the factor at p. All of it splits [gamma, x, z] rows
column by column; split_pauli and split_generator wrap it for PauliProducts."""

from __future__ import annotations

import math

from .errors import InternalInvariant, InvalidStabilizer, NotAState
from .modring import CrtSplit, factorize, inv_mod, make_split
from .pauli import PauliProduct, from_row, row_order, row_power, to_row
from .stabilizer import StabilizerGroup, _sylow_rows


def split_row(row, split: CrtSplit) -> tuple[list[int], list[int]]:
    """CRT components of the reduced row, the phase split by Bezout."""
    n = len(row) // 2
    return tuple([u * row[0] % (2 * di)] + [v % di for v in row[1:n + 1]]
                 + [r * v % di for v in row[n + 1:]]
                 for di, u, r in ((split.d1, split.u, split.r1),
                                  (split.d2, split.v, split.r2)))


def split_pauli(p: PauliProduct, split: CrtSplit) -> tuple[PauliProduct, PauliProduct]:
    """Components of the CRT image of p (see split_row)."""
    if split.d1 * split.d2 != p.d:
        raise InvalidStabilizer(
            f"split {split.d1}x{split.d2} does not match D={p.d}")
    return tuple(from_row(di, row) for di, row in
                 zip((split.d1, split.d2), split_row(to_row(p), split)))


def _one_sided(row, split: CrtSplit, side: int) -> list[int]:
    """Extract the side-`side` component of a CRT image that is trivial on the
    other side, folding the whole scalar prefactor into the kept component."""
    first, second = split_row(row, split)
    keep, other = (first, second) if side == 1 else (second, first)
    other_d = split.d2 if side == 1 else split.d1
    if any(other[1:]):
        raise InternalInvariant("component power is not one-sided")
    if row[0] % other_d != 0:
        raise InternalInvariant("scalar prefactor does not embed in the component")
    return [row[0] // other_d] + keep[1:]


def split_generator(g: PauliProduct, split: CrtSplit) -> tuple[PauliProduct, PauliProduct]:
    """(h1, h2) with <image of g> = <h1> (x) <h2> and order(h_i) = delta_i.

    Requires g^order(g) = I; the delta-coprime powers land entirely on one
    component each, so the scalar is always expressible there.
    """
    row, d = to_row(g), g.d
    delta = row_order(row, d)
    if any(row_power(row, delta, d)):
        raise InvalidStabilizer("generator does not satisfy g^order(g) = I")
    delta1, delta2 = math.gcd(delta, split.d1), math.gcd(delta, split.d2)
    if delta1 * delta2 != delta:
        raise InternalInvariant("order does not factor over the coprime split")
    mu1 = inv_mod(delta2 % delta1, delta1) if delta1 > 1 else 0
    mu2 = inv_mod(delta1 % delta2, delta2) if delta2 > 1 else 0
    h1 = _one_sided(row_power(row, mu1 * delta2, d), split, 1)
    h2 = _one_sided(row_power(row, mu2 * delta1, d), split, 2)
    if row_order(h1, split.d1) != delta1 or row_order(h2, split.d2) != delta2:
        raise InternalInvariant("component orders do not match the order split")
    return from_row(split.d1, h1), from_row(split.d2, h2)


def decompose_group(group: StabilizerGroup) -> list[tuple[int, StabilizerGroup]]:
    """Tensor factors of the group, one per prime factor of D (ascending).

    The factor at p is generated by the order-p components of the generators
    (stabilizer._sylow_rows), each carried onto Z_p by the split D = p * D/p.
    Returns [(p_i, group over Z_{p_i})]; sizes multiply back to |group|.
    """
    mod = factorize(group.d)
    if mod.is_prime:
        return [(group.d, group)]
    out = []
    for p in mod.primes:
        split = make_split(group.d, p)
        gens = tuple(_one_sided(row, split, 1)
                     for row in _sylow_rows(group.gens, p, group.d))
        out.append((p, StabilizerGroup(p, group.n, gens)))
    if math.prod(fac.size for _, fac in out) != group.size:
        raise InternalInvariant("factor sizes do not multiply to the group size")
    return out


def decompose_state(group: StabilizerGroup) -> list[tuple[int, StabilizerGroup]]:
    """Per-prime factor states of a stabilizer state; at prime D, the state."""
    if not group.is_state():
        raise NotAState(f"group size {group.size} != {group.d}^{group.n}")
    factors = decompose_group(group)
    for p, fac in factors:
        if fac.size != p**group.n:
            raise InternalInvariant(f"factor at prime {p} is not a state")
    return factors
