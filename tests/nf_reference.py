"""Reference for the built-in exactness check: the normal-form group built
from role generators, compared by canonical form.

canonicalize.is_exact tests membership in closed form; tests compare it with
canonical_form(conjugated input) == canonical_form(normal_form_group(nf)).
"""

from qstab.clifford import conjugate_rows
from qstab.errors import InvalidStabilizer
from qstab.pauli import to_row, x_op
from qstab.stabilizer import (
    StabilizerGroup,
    canonical_form,
    epr_pair_generators,
    ghz_generators,
)


def normal_form_group(nf) -> StabilizerGroup:
    """The exact group the conjugated input must equal (prime D)."""
    gens: list[list[int]] = []
    for _, qudits in nf.roles:
        if len(qudits) == 1:
            gens.append(to_row(x_op(nf.d, nf.n, *qudits)))
        elif len(qudits) == 2:
            gens.extend(epr_pair_generators(nf.d, nf.n, *qudits))
        else:
            gens.extend(ghz_generators(nf.d, nf.n, *qudits))
    return StabilizerGroup(nf.d, nf.n, tuple(gens))


def reference_is_exact(group: StabilizerGroup, nf) -> bool:
    """Local circuits, and the conjugated input equal to the normal-form
    group by canonical form; roles that build no valid group never match."""
    if (len(nf.circuits) != len(nf.parts)
            or any(not set(part).issuperset(g.qudits)
                   for part, circuit in zip(nf.parts, nf.circuits)
                   for g in circuit)):
        return False
    try:
        target = normal_form_group(nf)
    except (InvalidStabilizer, IndexError):
        return False
    gates = [g for circuit in nf.circuits for g in circuit]
    rows = conjugate_rows(gates, group.gens, group.d)
    conjugated = StabilizerGroup(group.d, group.n, tuple(rows))
    return canonical_form(conjugated) == canonical_form(target)
