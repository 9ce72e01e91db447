"""Exact arithmetic in the quadratic extension Q(sqrt(g)).

The coefficient kernel works over the field Q(sqrt(g)) with g = gamma^2 a
positive rational.  An element is stored as a pair (a, b) meaning
a + b*sqrt(g).  When g happens to be the square of a rational the surd part
is folded into the rational part at construction time, so representations
stay canonical and equality is structural.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError, UsageError

RationalLike = Union[int, Fraction]


def frac_to_str(x: Fraction) -> str:
    """Serialize a rational as an exact "p/q" string."""
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s: str) -> Fraction:
    """Parse an exact rational from a "p/q" (or bare integer) string."""
    return Fraction(s)


def rational_sqrt(g: Fraction) -> Fraction | None:
    """Return sqrt(g) if g is the square of a rational, else None."""
    if g < 0:
        return None
    pn = math.isqrt(g.numerator)
    pd = math.isqrt(g.denominator)
    if pn * pn == g.numerator and pd * pd == g.denominator:
        return Fraction(pn, pd)
    return None


class ExactScalar:
    """An element a + b*sqrt(g) of Q(sqrt(g)), g a fixed positive rational.

    Arithmetic is exact.  Operands must live in the same field; mixing two
    scalars with different g raises UsageError.  Plain ints and Fractions
    are accepted and treated as rational elements of the current field.
    """

    __slots__ = ("a", "b", "g")

    def __init__(self, a: RationalLike, b: RationalLike, g: RationalLike):
        g = Fraction(g)
        if g <= 0:
            raise DomainError(f"field parameter g must be positive, got {g}")
        a = Fraction(a)
        b = Fraction(b)
        if b != 0:
            root = rational_sqrt(g)
            if root is not None:
                # sqrt(g) is rational: collapse to the canonical representation.
                a += b * root
                b = Fraction(0)
        self.a = a
        self.b = b
        self.g = g

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, x: RationalLike, g: RationalLike) -> "ExactScalar":
        return cls(Fraction(x), 0, g)

    @classmethod
    def sqrt_g(cls, g: RationalLike) -> "ExactScalar":
        """The generator sqrt(g) itself (i.e. gamma when g = gamma^2)."""
        return cls(0, 1, g)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if other.g != self.g:
                raise UsageError(
                    f"field mismatch: g={self.g} vs g={other.g}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other, 0, self.g)
        raise TypeError(f"cannot coerce {type(other).__name__} into Q(sqrt(g))")

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise UsageError(f"{self!r} has a nonzero surd part")
        return self.a

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        o = self._coerce(other)
        return ExactScalar(self.a + o.a, self.b + o.b, self.g)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.a, -self.b, self.g)

    def __sub__(self, other) -> "ExactScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ExactScalar":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ExactScalar":
        o = self._coerce(other)
        return ExactScalar(
            self.a * o.a + self.b * o.b * self.g,
            self.a * o.b + self.b * o.a,
            self.g,
        )

    __rmul__ = __mul__

    def inv(self) -> "ExactScalar":
        """Multiplicative inverse, in denominator-free form."""
        if self.is_zero:
            raise DomainError("inverse of zero in Q(sqrt(g))")
        # (a + b s)^-1 = (a - b s) / (a^2 - b^2 g), s = sqrt(g)
        norm = self.a * self.a - self.b * self.b * self.g
        if norm == 0:
            # impossible for g not a rational square; guarded anyway
            raise DomainError("zero field norm")
        return ExactScalar(self.a / norm, -self.b / norm, self.g)

    def __truediv__(self, other) -> "ExactScalar":
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other) -> "ExactScalar":
        return self._coerce(other) * self.inv()

    def __pow__(self, k: int) -> "ExactScalar":
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            return self.inv() ** (-k)
        out = ExactScalar(1, 0, self.g)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / conversion -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.g == other.g and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.g))

    def __float__(self) -> float:
        out = float(self.a)
        if self.b != 0:
            out += float(self.b) * math.sqrt(float(self.g))
        return out

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*sqrt({self.g})"
        return f"{self.a} + {self.b}*sqrt({self.g})"

    def to_json(self) -> dict:
        return {"a": frac_to_str(self.a), "b": frac_to_str(self.b)}

    @classmethod
    def from_json(cls, obj: dict, g: RationalLike) -> "ExactScalar":
        return cls(frac_from_str(obj["a"]), frac_from_str(obj["b"]), g)
