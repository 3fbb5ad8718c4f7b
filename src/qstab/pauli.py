"""Pauli products on n qudits of dimension D with exact phase tracking.

A Pauli product is lambda^gamma * X_1^{x_1} Z_1^{z_1} (x) ... (x) X_n^{x_n} Z_n^{z_n}
with lambda = exp(i*pi/D) (so lambda^2 = omega = exp(2*pi*i/D)), gamma in
Z_{2D}, and per-qudit normal ordering X-before-Z. The single exponent gamma
over Z_{2D} is the minimal phase group closed under multiplication, so all
phase bookkeeping is exact integer arithmetic.

The package holds a Pauli product as its reduced row [gamma, x_1 .. x_n,
z_1 .. z_n] (gamma mod 2D, exponents mod D) from parse to render: lists on
the exact path, tuples once stored. PauliProduct is the dense oracle's and
the tests' reference; its multiply, power and order wrap the row functions.

Sign conventions follow the defining matrices X = sum_j |j><j+1| and
Z = sum_j omega^j |j><j|, under which X Z = omega Z X. Consequences used
throughout:

    Z^a X^b          = omega^{-a b} X^b Z^a
    (X^x Z^z)^k      = omega^{-x z k (k-1)/2} X^{k x} Z^{k z}
    p q              = omega^{sum_i (x_i(p) z_i(q) - z_i(p) x_i(q))} q p
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import ShapeMismatch

_TEXT_SEP = "|"


@dataclass(frozen=True)
class PauliProduct:
    """Immutable Pauli product: dimension, phase exponent, exponent vectors."""

    d: int
    gamma: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.z):
            raise ShapeMismatch("x and z exponent vectors differ in length")
        two_d = 2 * self.d
        object.__setattr__(self, "gamma", self.gamma % two_d)
        object.__setattr__(self, "x", tuple(v % self.d for v in self.x))
        object.__setattr__(self, "z", tuple(v % self.d for v in self.z))

    @property
    def n(self) -> int:
        return len(self.x)

    def is_identity(self) -> bool:
        """Exactly the identity operator, phase included."""
        return self.gamma == 0 and not any(self.x) and not any(self.z)

    def is_phase(self) -> bool:
        """Proportional to the identity (any lambda power)."""
        return not any(self.x) and not any(self.z)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.x[i] or self.z[i])

    def __str__(self) -> str:
        return to_text(to_row(self))


def identity(d: int, n: int) -> PauliProduct:
    return PauliProduct(d, 0, (0,) * n, (0,) * n)


def phase_op(d: int, n: int, gamma: int) -> PauliProduct:
    """lambda^gamma times the identity."""
    return PauliProduct(d, gamma, (0,) * n, (0,) * n)


def from_exponents(d: int, x: list[int] | tuple[int, ...],
                   z: list[int] | tuple[int, ...], gamma: int = 0) -> PauliProduct:
    return PauliProduct(d, gamma, tuple(x), tuple(z))


def x_op(d: int, n: int, qudit: int, a: int = 1) -> PauliProduct:
    return from_row(d, pauli_row(n, d, {qudit: a}))


def z_op(d: int, n: int, qudit: int, b: int = 1) -> PauliProduct:
    return from_row(d, pauli_row(n, d, z={qudit: b}))


def _check_shapes(p: PauliProduct, q: PauliProduct) -> None:
    if p.d != q.d or p.n != q.n:
        raise ShapeMismatch(
            f"operands differ: (D={p.d}, n={p.n}) vs (D={q.d}, n={q.n})")


def to_row(p: PauliProduct) -> list[int]:
    """p as the integer row [gamma, x_1 .. x_n, z_1 .. z_n]."""
    return [p.gamma, *p.x, *p.z]


def from_row(d: int, row: list[int]) -> PauliProduct:
    """The Pauli product of a [gamma, x, z] row (inverse of to_row)."""
    n = len(row) // 2
    return PauliProduct(d, row[0], tuple(row[1:n + 1]), tuple(row[n + 1:]))


def reduce_row(row, d: int) -> tuple[int, ...]:
    """The row as stored: a tuple with gamma mod 2D and exponents mod D."""
    return (row[0] % (2 * d), *(v % d for v in row[1:]))


def pauli_row(n: int, d: int, x=None, z=None, gamma: int = 0) -> list[int]:
    """Reduced row of lambda^gamma times the X and Z powers given as
    {qudit: exponent} maps on an n-qudit register."""
    row = [gamma % (2 * d)] + [0] * (2 * n)
    for offset, exponents in ((1, x), (1 + n, z)):
        for q, e in (exponents or {}).items():
            row[offset + q] = e % d
    return row


def row_multiply(a: list[int], b: list[int], d: int) -> list[int]:
    """Row of the normal-ordered product a * b.

    Moving each Z^{z_i(a)} left past X^{x_i(b)} contributes
    omega^{-z_i(a) x_i(b)}, i.e. gamma -= 2 * sum_i z_i(a) x_i(b).
    """
    n = len(a) // 2
    reorder = sum(map(operator.mul, a[n + 1:], b[1:n + 1]))
    return ([(a[0] + b[0] - 2 * reorder) % (2 * d)]
            + [(u + v) % d for u, v in zip(a[1:], b[1:])])


def row_power(a: list[int], k: int, d: int) -> list[int]:
    """Row of a^k for any integer k (negative k gives inverse powers).

    Closed form: gamma(k) = k*gamma - k(k-1) * sum_i x_i z_i mod 2D, which is
    the accumulated reordering phase of k-fold multiplication.
    """
    n = len(a) // 2
    sigma = sum(map(operator.mul, a[1:n + 1], a[n + 1:]))
    return [(k * a[0] - k * (k - 1) * sigma) % (2 * d)] + [k * v % d for v in a[1:]]


def multiply(p: PauliProduct, q: PauliProduct) -> PauliProduct:
    """Normal-ordered operator product p * q (see row_multiply)."""
    _check_shapes(p, q)
    return from_row(p.d, row_multiply(to_row(p), to_row(q), p.d))


def power(p: PauliProduct, k: int) -> PauliProduct:
    """p^k for any integer k (see row_power)."""
    return from_row(p.d, row_power(to_row(p), k, p.d))


def inverse(p: PauliProduct) -> PauliProduct:
    return power(p, -1)


def commutation_phase(p: PauliProduct, q: PauliProduct) -> int:
    """alpha in Z_D with p q = omega^alpha q p; zero iff p and q commute."""
    _check_shapes(p, q)
    alpha = sum(xp * zq - zp * xq
                for xp, zp, xq, zq in zip(p.x, p.z, q.x, q.z))
    return alpha % p.d


def row_order(row, d: int) -> int:
    """Smallest a in [1, D] with row^a proportional to the identity.

    Equals D / gcd(D, x_1, ..., x_n, z_1, ..., z_n); always divides D.
    """
    return d // math.gcd(d, *row[1:])


def order(p: PauliProduct) -> int:
    """The order of p (see row_order)."""
    return row_order(to_row(p), p.d)


def tensor(p: PauliProduct, q: PauliProduct) -> PauliProduct:
    """p (x) q on the concatenated qudit register."""
    if p.d != q.d:
        raise ShapeMismatch(f"dimensions differ: {p.d} vs {q.d}")
    return PauliProduct(p.d, p.gamma + q.gamma, p.x + q.x, p.z + q.z)


def proportional(p: PauliProduct, q: PauliProduct) -> int | None:
    """The c with p = lambda^c q when exponent vectors agree, else None."""
    _check_shapes(p, q)
    if p.x != q.x or p.z != q.z:
        return None
    return (p.gamma - q.gamma) % (2 * p.d)


def to_text(row) -> str:
    """Serialize the row as `g | x1 ... xn | z1 ... zn`."""
    n = len(row) // 2
    xs = " ".join(map(str, row[1:n + 1]))
    zs = " ".join(map(str, row[n + 1:]))
    return f"{row[0]} {_TEXT_SEP} {xs} {_TEXT_SEP} {zs}".rstrip()


def from_text(line: str, d: int) -> tuple[int, ...]:
    """The reduced row of a `g | x.. | z..` line (inverse of to_text)."""
    from .errors import FormatError

    parts = line.split(_TEXT_SEP)
    if len(parts) != 3:
        raise FormatError(f"expected 'g | x.. | z..', got {line!r}")
    try:
        gamma = int(parts[0])
        x = [int(t) for t in parts[1].split()]
        z = [int(t) for t in parts[2].split()]
    except ValueError as exc:
        raise FormatError(f"bad integer in Pauli line {line!r}") from exc
    if len(x) != len(z):
        raise FormatError(f"x/z length mismatch in {line!r}")
    return reduce_row([gamma, *x, *z], d)
