"""Group and Pauli helpers that only the tests use: restriction to qudits,
the identity test on qudits, exact membership, the tensor product of
groups, and planted states whose normal form is known."""

import random

from qstab import linalg
from qstab.errors import ShapeMismatch
from qstab.modring import factorize
from qstab.pauli import PauliProduct, from_row, identity, tensor, to_row, x_op
from qstab.randgen import random_part_gates, scramble_group
from qstab.stabilizer import (
    StabilizerGroup,
    _sylow_rows,
    epr_pair_generators,
    ghz_generators,
)

# normal-form count -> the parts its factor spans
PLANTED_KINDS = {"m_A": (0,), "m_B": (1,), "m_C": (2,), "m_AB": (0, 1),
                 "m_AC": (0, 2), "m_BC": (1, 2), "m_ABC": (0, 1, 2)}


def restrict(p: PauliProduct, qudits, keep_phase: bool = True) -> PauliProduct:
    """Component of p on the listed qudits (in the given order).

    The phase of a split is ambiguous; by convention the whole gamma rides on
    whichever factor asks for it (keep_phase).
    """
    x = tuple(p.x[i] for i in qudits)
    z = tuple(p.z[i] for i in qudits)
    return PauliProduct(p.d, p.gamma if keep_phase else 0, x, z)


def is_identity_on(p: PauliProduct, qudits) -> bool:
    return all(p.x[i] == 0 and p.z[i] == 0 for i in qudits)


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
    gens = [tensor(from_row(a.d, g), identity(b.d, b.n)) for g in a.gens]
    gens += [tensor(identity(a.d, a.n), from_row(b.d, g)) for g in b.gens]
    return StabilizerGroup(a.d, a.n + b.n, tuple(map(to_row, gens)))


def planted_state(d: int, counts: dict[str, int],
                  seed: int) -> tuple[StabilizerGroup, list[list[int]]]:
    """A state whose tripartition normal form has the given counts, and its
    three parts (0-based, sorted).

    The state is a tensor product of |+> singles, EPR pairs and GHZ triples,
    `counts[kind]` factors of each kind (keys as NormalForm.counts, missing
    ones 0), on shuffled qudits; each part is then scrambled by 4 random
    part-local gates per qudit. By the decomposition theorem its normal form
    has exactly these counts, at composite D in every prime factor too.
    """
    rng = random.Random(seed)
    roles = [kind for key, kind in PLANTED_KINDS.items()
             for _ in range(counts.get(key, 0))]
    n = sum(map(len, roles))
    qudits = iter(rng.sample(range(n), n))
    parts: list[list[int]] = [[], [], []]
    gens: list[list[int]] = []
    for role in roles:
        qs = [next(qudits) for _ in role]
        for q, pi in zip(qs, role):
            parts[pi].append(q)
        if len(qs) == 1:
            gens.append(to_row(x_op(d, n, qs[0])))
        elif len(qs) == 2:
            gens.extend(epr_pair_generators(d, n, *qs))
        else:
            gens.extend(ghz_generators(d, n, *qs))
    parts = [sorted(part) for part in parts]
    gates = [g for part in parts if part
             for g in random_part_gates(d, part, rng, 4 * len(part))]
    return scramble_group(StabilizerGroup(d, n, tuple(gens)), gates), parts
