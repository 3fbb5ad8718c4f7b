"""Exact modular integer arithmetic and Chinese Remainder ring maps.

All ring elements are stored as canonical representatives in [0, m) so that
equality is bit-exact. Factorization is plain trial division: dimensions are
desk-scale (D <= 2**31) and no bignum dependency is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidDimension, NotCoprime, NotInvertible

MAX_DIMENSION = 2**31


@dataclass(frozen=True)
class Modulus:
    """A dimension D with its prime factorization (primes ascending)."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


@dataclass(frozen=True)
class CrtSplit:
    """A coprime split D = d1 * d2 with the reconstruction units r_i.

    r_i = (D/d_i)^{-1} mod d_i, so a = a1*r1*d2 + a2*r2*d1 mod D recombines
    component residues. (u, v) satisfy u*d2 + v*d1 = 1 over the integers and
    split phase exponents: lambda_D^g = lambda_{d1}^{u g} * lambda_{d2}^{v g}.
    """

    d1: int
    d2: int
    r1: int
    r2: int
    u: int
    v: int

    @property
    def modulus(self) -> int:
        return self.d1 * self.d2


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m). Raises NotInvertible if gcd != 1."""
    if m < 1:
        raise InvalidDimension(f"modulus {m} < 1")
    if m == 1:
        return 0
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise NotInvertible(f"{a} is not invertible mod {m} (gcd {g})")
    return x % m


@lru_cache(maxsize=256)
def factorize(d: int) -> Modulus:
    """Trial-division factorization of a dimension D in [2, 2**31].

    Cached: a run asks about the same few dimensions over and over, and the
    returned Modulus is frozen, so sharing it is safe.
    """
    if d < 2:
        raise InvalidDimension(f"dimension {d} < 2")
    if d > MAX_DIMENSION:
        raise InvalidDimension(f"dimension {d} exceeds 2**31")
    rest = d
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return Modulus(d, tuple(factors))


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    return factorize(d).is_prime


def sqrt_mod(a: int, p: int) -> int | None:
    """The smaller square root of a modulo an odd prime p, or None when a is
    a non-residue (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    c = pow(next(w for w in range(2, p) if pow(w, (p - 1) // 2, p) == p - 1),
            q, p)
    r, t, m = pow(a, (q + 1) // 2, p), pow(a, q, p), s
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r, c, m = r * b % p, b * b % p, i
        t = t * c % p
    return min(r, p - r)


def make_split(d: int, d1: int) -> CrtSplit:
    """CRT split of D into coprime parts d1 and d2 = D // d1."""
    if d % d1 != 0:
        raise NotCoprime(f"{d1} does not divide {d}")
    d2 = d // d1
    if math.gcd(d1, d2) != 1:
        raise NotCoprime(f"split {d1} x {d2} of {d} is not coprime")
    if d1 < 2 or d2 < 2:
        raise NotCoprime(f"split {d1} x {d2} is trivial")
    r1 = inv_mod(d2 % d1, d1)
    r2 = inv_mod(d1 % d2, d2)
    g, u, v = egcd(d2, d1)
    assert g == 1
    return CrtSplit(d1, d2, r1, r2, u, v)


def crt_combine(a1: int, a2: int, split: CrtSplit) -> int:
    """The unique a mod D with a = a1 mod d1 and a = a2 mod d2."""
    d = split.modulus
    return (a1 * split.r1 * split.d2 + a2 * split.r2 * split.d1) % d
