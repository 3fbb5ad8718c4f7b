"""Clifford unitaries as gate lists: the alphabet, conjugation, inversion, pivoting.

A Clifford is the ordered list of elementary gates that applies it, so every
canonicalization result is a human-auditable circuit. conjugate_rows replays
the list once over a batch of [gamma, x, z] rows: each gate rewrites only its
one or two columns (and the phases) in every row, as in CHP tableaux;
conjugate wraps it for one Pauli product. pivot_part_gates writes the word
that pivots a row onto one qudit in closed form, from the row's exponents on
the part, and phase_fix the Pauli gate that clears what phase is left. The
gate alphabet:

    F q        Fourier gate:        Z -> X,  X -> Z^{-1}
    S q a      multiplicative gate: Z -> Z^a, X -> X^{a^{-1}}   (a invertible)
    W q        phase gate:          Z -> Z,  X -> lambda X Z (even D) / X Z (odd D)
    X q a      Pauli X^a conjugation (phases only)
    Z q b      Pauli Z^b conjugation (phases only)
    CP q r w   controlled-phase^w:  X_q -> X_q Z_r^{-w}, X_r -> Z_q^{-w} X_r
    CNOT q r   controlled shift:    X_q -> X_q X_r^{-1}, Z_r -> Z_q Z_r

All rules are exact on (x, z, gamma); the derivations fix gamma increments so
that gate-list conjugation agrees entrywise with dense matrix conjugation.

The alphabet has no exponent on W or CNOT, so powers are written as short
words instead of runs: a shear z -> z + t x (W^t up to a phase the callers
strip) is one of t plain W gates, S(1/r) W S(r) for t = r^2, W S(1/r) W S(r)
for t = 1 + r^2, or S(1/s) W S(s/r) W S(r) for t = s^2 + r^2, whichever is
shortest (ties go to the plain run). At every D, CNOT^{-1} is CNOT between
two S(-1), and W^{-1} is S(-1) F W F W F plus at most one Z and one X fixing
the phase, so no circuit length depends on the size of D.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    IdentityOnPart,
    IndexOutOfRange,
    InternalInvariant,
    InvalidStabilizer,
    NonPrimeD,
    ShapeMismatch,
)
from .modring import inv_mod, is_prime, sqrt_mod
from .pauli import PauliProduct, from_row, pauli_row, to_row
from .stabilizer import checked_part

# gate name -> (qudit count, whether the gate takes a parameter), in
# alphabet order; the gate files and conjugate_rows read shapes only here
GATE_SHAPES = {"F": (1, False), "S": (1, True), "W": (1, False),
               "X": (1, True), "Z": (1, True), "CP": (2, True),
               "CNOT": (2, False)}
GATE_NAMES = tuple(GATE_SHAPES)


@dataclass(frozen=True)
class Gate:
    """One elementary gate: name, qudit indices, optional integer parameter."""

    name: str
    qudits: tuple[int, ...]
    param: int = 0


def fourier(q: int) -> Gate:
    return Gate("F", (q,))


def smult(q: int, alpha: int) -> Gate:
    return Gate("S", (q,), alpha)


def phase_w(q: int) -> Gate:
    return Gate("W", (q,))


def pauli_x(q: int, a: int = 1) -> Gate:
    return Gate("X", (q,), a)


def pauli_z(q: int, b: int = 1) -> Gate:
    return Gate("Z", (q,), b)


def cphase(control: int, target: int, weight: int = 1) -> Gate:
    return Gate("CP", (control, target), weight)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def conjugate_rows(gates, rows, d: int) -> list[list[int]]:
    """U p U^dag for every reduced [gamma, x, z] row p (one width), where the
    circuit U applies `gates` in list order; exact in gamma.

    Only the columns the gates touch are copied out, xs[q][i] and zs[q][i]
    being row i's exponents on qudit q, so each gate rewrites its one or two
    columns (and the phases) in every row; the rest of each row is copied.
    """
    out = [list(row) for row in rows]
    if not out:
        return out
    n = len(out[0]) // 2
    if any(len(row) != 2 * n + 1 for row in out):
        raise ShapeMismatch("conjugated rows differ in width")
    gates = list(gates)
    for gate in gates:
        width, _ = GATE_SHAPES.get(gate.name, (-1, False))
        if len(gate.qudits) != width:
            raise ShapeMismatch(f"no {len(gate.qudits)}-qudit gate {gate.name!r}")
        for q in gate.qudits:
            if not 0 <= q < n:
                raise IndexOutOfRange(f"qudit {q} outside register of size {n}")
        if len(set(gate.qudits)) != len(gate.qudits):
            raise IndexOutOfRange(f"{gate.name} needs distinct qudits")
    touched = {q for gate in gates for q in gate.qudits}
    xs = {q: [row[1 + q] for row in out] for q in touched}
    zs = {q: [row[1 + n + q] for row in out] for q in touched}
    gam = [row[0] for row in out]
    for gate in gates:
        q, r = gate.qudits[0], gate.qudits[-1]
        if gate.name == "F":
            # Z^{-x} X^z reorders with omega^{x z}
            gam = [g + 2 * a * b for g, a, b in zip(gam, xs[q], zs[q])]
            xs[q], zs[q] = zs[q], [-a % d for a in xs[q]]
        elif gate.name == "S":
            alpha = gate.param % d
            abar = inv_mod(alpha, d)
            xs[q] = [abar * a % d for a in xs[q]]
            zs[q] = [alpha * b % d for b in zs[q]]
        elif gate.name == "W":
            e = 1 if d % 2 == 0 else 0
            # (lambda^e X Z)^x = lambda^{e x} omega^{-x(x-1)/2} X^x Z^x
            gam = [g + e * a - a * (a - 1) for g, a in zip(gam, xs[q])]
            zs[q] = [(b + a) % d for a, b in zip(xs[q], zs[q])]
        elif gate.name == "X":
            gam = [g + 2 * gate.param * b for g, b in zip(gam, zs[q])]
        elif gate.name == "Z":
            gam = [g - 2 * gate.param * a for g, a in zip(gam, xs[q])]
        elif gate.name == "CP":
            w = gate.param
            gam = [g + 2 * w * a * c for g, a, c in zip(gam, xs[q], xs[r])]
            zs[q] = [(b - w * c) % d for b, c in zip(zs[q], xs[r])]
            zs[r] = [(b - w * a) % d for b, a in zip(zs[r], xs[q])]
        else:  # CNOT
            zs[q] = [(b + c) % d for b, c in zip(zs[q], zs[r])]
            xs[r] = [(c - a) % d for c, a in zip(xs[r], xs[q])]
    for q in touched:
        for row, a, b in zip(out, xs[q], zs[q]):
            row[1 + q] = a
            row[1 + n + q] = b
    for row, g in zip(out, gam):
        row[0] = g % (2 * d)
    return out


def conjugate(gates, p: PauliProduct) -> PauliProduct:
    """U p U^dag for the circuit U that applies `gates` in list order."""
    return from_row(p.d, conjugate_rows(gates, [to_row(p)], p.d)[0])


def phase_fix(row: list[int], q: int, use_x: bool, d: int) -> list[Gate]:
    """The X (use_x) or Z gate at qudit q clearing the even phase of the
    [gamma, x, z] row, or none when it is 0: conjugating by X^a adds 2 a z_q
    to gamma, and conjugating by Z^b subtracts 2 b x_q."""
    c = row[0] // 2
    if not c:
        return []
    n = len(row) // 2
    if use_x:
        return [pauli_x(q, -c * inv_mod(row[1 + n + q], d) % d)]
    return [pauli_z(q, c * inv_mod(row[1 + q], d) % d)]


def _square_shear(q: int, r: int, d: int) -> list[Gate]:
    """S(1/r) W S(r): the shear z -> z + r^2 x on qudit q."""
    return [smult(q, inv_mod(r, d)), phase_w(q), smult(q, r)]


def shear_word(q: int, t: int, d: int) -> list[Gate]:
    """Shortest word (prime d) with the symplectic action of W^t on qudit q,
    z -> z + t x; its phase may differ from W^t's by a Z power."""
    t %= d
    if t <= 3:
        return [phase_w(q)] * t
    r = sqrt_mod(t, d)
    if r is not None:
        return _square_shear(q, r, d)
    r = sqrt_mod(t - 1, d)
    if r is not None:
        return [phase_w(q)] + _square_shear(q, r, d)
    # t and t - 1 are non-residues, so some t - s^2 (s >= 2) is a nonzero one
    for s in range(2, d):
        r = sqrt_mod(t - s * s, d)
        if r:
            return (_square_shear(q, s, d)[:2]
                    + [smult(q, s * inv_mod(r, d) % d)]
                    + _square_shear(q, r, d)[1:])
    raise InternalInvariant(f"{t} is not a sum of two squares mod {d}")


@functools.cache
def _w_inverse_word(d: int) -> tuple[Gate, ...]:
    """W^{-1} on qudit 0, the same word at every qudit. S(-1) F W F W F acts
    as W^{-1} on (x, z) at every D; W then the word fixes X and Z up to even
    powers of lambda, which trailing Z and X powers remove."""
    word = [smult(0, d - 1), fourier(0), phase_w(0), fourier(0), phase_w(0),
            fourier(0)]
    x_row, z_row = conjugate_rows([phase_w(0)] + word, [[0, 1, 0], [0, 0, 1]],
                                  d)
    return tuple(word + phase_fix(x_row, 0, False, d)
                 + phase_fix(z_row, 0, True, d))


def _inverse_gate(gate: Gate, d: int) -> list[Gate]:
    """Expand one gate's inverse in the same alphabet (no dagger forms)."""
    if gate.name == "F":
        return [gate] * 3
    if gate.name == "S":
        return [smult(gate.qudits[0], inv_mod(gate.param, d))]
    if gate.name == "W":
        return [Gate(g.name, gate.qudits, g.param) for g in _w_inverse_word(d)]
    if gate.name == "X":
        return [pauli_x(gate.qudits[0], (-gate.param) % d)]
    if gate.name == "Z":
        return [pauli_z(gate.qudits[0], (-gate.param) % d)]
    if gate.name == "CP":
        return [cphase(gate.qudits[0], gate.qudits[1], (-gate.param) % d)]
    if gate.name == "CNOT":
        flip = smult(gate.qudits[1], d - 1)
        return [flip, gate, flip]
    raise ShapeMismatch(f"unknown gate {gate.name!r}")


def inverse_gates(gates, d: int) -> tuple[Gate, ...]:
    """Circuit of U^{-1}: the gates reversed, each one inverted."""
    return tuple(inv for g in reversed(gates) for inv in _inverse_gate(g, d))


def _step_gates(x: int, z: int, q: int, d: int) -> list[Gate]:
    """Gates on qudit q taking its nontrivial component (x, z) to (1, 0):
    F maps (0, z) to (z, 0), a shear clears z, S scales x to 1."""
    gates = []
    if x == 0:
        gates.append(fourier(q))
        x, z = z, 0
    gates += shear_word(q, -z * inv_mod(x, d), d)
    if x != 1:
        gates.append(smult(q, x))
    return gates


def pivot_part_gates(row: list[int], part, target: int, form: str,
                     d: int) -> list[Gate]:
    """Gates on `part` making the part-components of the Pauli product with
    [gamma, x, z] row `row` a single operator at target.

    form "X" yields X_target (exponent 1), "Z" yields Z_target, "Z-" yields
    Z_target^{-1}; components outside `part` and the overall phase are left
    as they land. The word is read off the exponents on the part: every step
    leaves its qudit at (1, 0), and CNOT(target, u) then clears u. Requires
    prime D.
    """
    if not is_prime(d):
        raise NonPrimeD(f"pivoting needs prime D, got {d}")
    n = len(row) // 2
    part = checked_part(part, n)
    if target not in part:
        raise IndexOutOfRange(f"target {target} not in part {part}")
    comp = {q: (row[1 + q] % d, row[1 + n + q] % d) for q in part}
    nontrivial = [q for q in part if any(comp[q])]
    if not nontrivial:
        raise IdentityOnPart("operator is trivial on the given part")
    turns = {"X": 0, "Z": 3, "Z-": 1}.get(form)
    if turns is None:
        raise ShapeMismatch(f"unknown pivot form {form!r}")

    if any(comp[target]):
        gates = _step_gates(*comp[target], target, d)
    else:
        # borrow the lowest nontrivial part qudit, then swing it onto
        # target: CNOT(src, target) leaves target at (-1, 0)
        src = nontrivial[0]
        gates = (_step_gates(*comp[src], src, d) + [cnot(src, target)]
                 + _step_gates(d - 1, 0, target, d))
        comp[src] = (1, 0)
    for u in nontrivial:
        if u != target:
            gates += _step_gates(*comp[u], u, d) + [cnot(target, u)]
    return gates + [fourier(target)] * turns


def pivot_to_x1(p: PauliProduct, part, target: int | None = None,
                want_z: bool = False) -> tuple[Gate, ...]:
    """Gates on `part` mapping p to exactly X_target (or Z_target).

    Requires prime D, p supported inside `part`, and p^D = I so the residual
    phase is an omega power removable by trailing Pauli conjugations.
    """
    part = checked_part(part, p.n)
    support = [i for i in part if p.x[i] or p.z[i]]
    if not support:
        raise IdentityOnPart("operator is trivial on the given part")
    outside = [i for i in range(p.n) if i not in part and (p.x[i] or p.z[i])]
    if outside:
        raise ShapeMismatch(f"operator acts outside the part at {outside}")
    target = support[0] if target is None else target
    gates = pivot_part_gates(to_row(p), part, target, "Z" if want_z else "X",
                             p.d)
    (moved,) = conjugate_rows(gates, [to_row(p)], p.d)
    if moved[0] % 2 != 0:
        raise InvalidStabilizer("operator has p^D = -I; phase not removable")
    x, z = ({}, {target: 1}) if want_z else ({target: 1}, {})
    if moved[1:] != pauli_row(p.n, p.d, x, z)[1:]:
        raise InvalidStabilizer("pivot failed to normalize the operator")
    return tuple(gates + phase_fix(moved, target, want_z, p.d))
