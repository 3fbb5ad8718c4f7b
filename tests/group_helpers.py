"""Group and Pauli helpers that only the tests use: restriction to qudits,
the identity test on qudits, exact membership, and the tensor product of
groups."""

from qstab import linalg
from qstab.errors import ShapeMismatch
from qstab.modring import factorize
from qstab.pauli import PauliProduct, identity, tensor, to_row
from qstab.stabilizer import StabilizerGroup, _sylow_rows


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
    gens = [tensor(g, identity(b.d, b.n)) for g in a.gens]
    gens += [tensor(identity(a.d, a.n), g) for g in b.gens]
    return StabilizerGroup(a.d, a.n + b.n, tuple(gens))
