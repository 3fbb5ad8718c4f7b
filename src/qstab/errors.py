"""Exception hierarchy.

Every domain error raised by the library derives from QstabError; the CLI maps
them to exit code 1 and prints the class name, so names are part of the
interface.
"""

from __future__ import annotations


class QstabError(Exception):
    """Base class for all library errors."""


class InvalidDimension(QstabError):
    """Qudit dimension outside the supported range (D >= 2, D <= 2**31)."""


class NotInvertible(QstabError):
    """Requested a modular inverse of a non-unit."""


class NotCoprime(QstabError):
    """CRT split factors share a common divisor."""


class ShapeMismatch(QstabError):
    """Operands live on different qudit counts or dimensions."""


class IndexOutOfRange(QstabError):
    """Qudit index outside [0, n) or repeated where distinctness is required."""


class NonPrimeD(QstabError):
    """Operation is only defined for prime qudit dimension."""


class NotSquarefree(QstabError):
    """Operation requires a squarefree dimension."""


class InvalidStabilizer(QstabError):
    """Generators do not form a valid stabilizer group (commutation,
    independence, or g^order(g) = I violated)."""


class NotAState(QstabError):
    """Stabilizer group does not have D^n elements."""


class IdentityOnPart(QstabError):
    """Pivoting requested for an operator that is trivial on the given part."""


class InvalidCode(QstabError):
    """Coding generators are dependent or not Z-type."""


class NotMaximallyMixedInput(QstabError):
    """Choi-side input marginal is not maximally mixed."""


class PreconditionViolated(QstabError):
    """Caller invoked an extraction step before its prerequisites held."""


class InternalInvariant(QstabError):
    """A property the theory guarantees failed; indicates an implementation bug."""


class TooLarge(QstabError):
    """Dense computation would exceed the desk-scale dimension cap."""


class NotRankOne(QstabError):
    """Projector sum of a claimed state group is not a rank-1 projector."""


class FormatError(QstabError):
    """Malformed or unrecognized text input."""
