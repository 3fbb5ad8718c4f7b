"""Chinese-Remainder decomposition of Paulis, groups, and states.

The per-qudit basis map a -> (a mod d1, a mod d2) conjugates X to X (x) X and
Z to Z^{r1} (x) Z^{r2}; on exponent vectors the split is exactly phase-free
(every component lands normal-ordered), and the lambda_D^gamma prefactor
factors exactly as lambda_{d1}^{u gamma} * lambda_{d2}^{v gamma} using the
Bezout identity u*d2 + v*d1 = 1. Generators split through the order-coprime
powers g^{mu_1 delta_2} and g^{mu_2 delta_1}, which land entirely on one
component each. Composite dimensions decompose by recursive binary splitting
(first prime factor versus the rest)."""

from __future__ import annotations

import math

from .errors import InternalInvariant, InvalidStabilizer, NotAState
from .modring import CrtSplit, factorize, inv_mod, make_split
from .pauli import PauliProduct, order, power
from .stabilizer import StabilizerGroup


def split_pauli(p: PauliProduct, split: CrtSplit) -> tuple[PauliProduct, PauliProduct]:
    """Components of the CRT image of p, with the phase split by Bezout."""
    d1, d2 = split.d1, split.d2
    if d1 * d2 != p.d:
        raise InvalidStabilizer(f"split {d1}x{d2} does not match D={p.d}")
    x1 = tuple(v % d1 for v in p.x)
    z1 = tuple((split.r1 * v) % d1 for v in p.z)
    x2 = tuple(v % d2 for v in p.x)
    z2 = tuple((split.r2 * v) % d2 for v in p.z)
    g1 = (split.u * p.gamma) % (2 * d1)
    g2 = (split.v * p.gamma) % (2 * d2)
    return PauliProduct(d1, g1, x1, z1), PauliProduct(d2, g2, x2, z2)


def _one_sided(p: PauliProduct, split: CrtSplit, side: int) -> PauliProduct:
    """Extract the side-`side` component of a CRT image that is trivial on the
    other side, folding the whole scalar prefactor into the kept component."""
    first, second = split_pauli(p, split)
    keep, other = (first, second) if side == 1 else (second, first)
    if not other.is_phase():
        raise InternalInvariant("component power is not one-sided")
    if p.gamma % other.d != 0:
        raise InternalInvariant("scalar prefactor does not embed in the component")
    return PauliProduct(keep.d, p.gamma // other.d, keep.x, keep.z)


def split_generator(g: PauliProduct, split: CrtSplit) -> tuple[PauliProduct, PauliProduct]:
    """(h1, h2) with <image of g> = <h1> (x) <h2> and order(h_i) = delta_i.

    Requires g^order(g) = I; the delta-coprime powers land entirely on one
    component each, so the scalar is always expressible there.
    """
    delta = order(g)
    if not power(g, delta).is_identity():
        raise InvalidStabilizer("generator does not satisfy g^order(g) = I")
    delta1, delta2 = math.gcd(delta, split.d1), math.gcd(delta, split.d2)
    if delta1 * delta2 != delta:
        raise InternalInvariant("order does not factor over the coprime split")
    mu1 = inv_mod(delta2 % delta1, delta1) if delta1 > 1 else 0
    mu2 = inv_mod(delta1 % delta2, delta2) if delta2 > 1 else 0
    h1 = _one_sided(power(g, mu1 * delta2), split, 1)
    h2 = _one_sided(power(g, mu2 * delta1), split, 2)
    if order(h1) != delta1 or order(h2) != delta2:
        raise InternalInvariant("component orders do not match the order split")
    return h1, h2


def decompose_group(group: StabilizerGroup) -> list[tuple[int, StabilizerGroup]]:
    """Tensor factors of the group, one per prime factor of D (ascending).

    Returns [(p_i, group over Z_{p_i})]; sizes multiply back to |group|.
    """
    mod = factorize(group.d)
    if mod.is_prime:
        return [(group.d, group)]
    p1 = mod.factors[0][0]
    split = make_split(group.d, p1)
    firsts: list[PauliProduct] = []
    rests: list[PauliProduct] = []
    for g in group.gens:
        h1, h2 = split_generator(g, split)
        if not h1.is_identity():
            firsts.append(h1)
        if not h2.is_identity():
            rests.append(h2)
    first_group = StabilizerGroup(p1, group.n, tuple(firsts))
    rest_group = StabilizerGroup(split.d2, group.n, tuple(rests))
    out = [(p1, first_group)]
    out.extend(decompose_group(rest_group))
    total = 1
    for _, fac in out:
        total *= fac.size
    if total != group.size:
        raise InternalInvariant("factor sizes do not multiply to the group size")
    return out


def decompose_state(group: StabilizerGroup) -> list[tuple[int, StabilizerGroup]]:
    """Per-prime factor states of a stabilizer state at composite D."""
    if not group.is_state():
        raise NotAState(f"group size {group.size} != {group.d}^{group.n}")
    factors = decompose_group(group)
    for p, fac in factors:
        if fac.size != p**group.n:
            raise InternalInvariant(f"factor at prime {p} is not a state")
    return factors
