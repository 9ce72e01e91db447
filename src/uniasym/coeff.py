"""Closed-form coefficient expressions for the uniform expansions.

A CoeffExpr is a finite sum of monomials

    c * v^a * d^b * L^l

with c in Q(sqrt(g)), where

    d = arctan(gamma) - arctan(gamma*v)   (gamma = sqrt(g)),
    L = ln(1 + g*v^2).

The Legendre-side recurrence coefficients live in the d-free-or-not,
L-free subspace; L only appears transiently while integrating and must
cancel before a result is finalized.  The Bessel-side polynomials use the
same container with the variable read as t and b = l = 0 throughout.

The field parameter g = gamma^2 and the spectral-index combination zeta
(= xi - 1/8) are fixed per expression; all arithmetic is exact.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import DomainError, UsageError
from .exact import ExactScalar, frac_from_str, frac_to_str

# Monomial key: exponents (a, b, l) of v, d and L.
MonKey = tuple[int, int, int]

EVAL_GAMMA_TOL = 1e-12
SMALL_GAMMA = 0.05


def warn_small_gamma(gamma: float) -> None:
    """Warn that float evaluation cancels below SMALL_GAMMA, where the
    coefficients carry 1/gamma^2 factors; evaluators call this once."""
    if 0.0 < gamma < SMALL_GAMMA:
        warnings.warn(f"gamma = {gamma} is small; expect cancellation loss", stacklevel=3)


def _canon_order(key: MonKey) -> tuple[int, int, int]:
    a, b, l = key
    return (l, b, a)


class CoeffExpr:
    """Exact finite sum of monomials c * v^a * d^b * L^l over Q(sqrt(g))."""

    __slots__ = ("g", "zeta", "_terms")

    def __init__(
        self,
        g: Fraction | int,
        zeta: Fraction | int,
        terms: Mapping[MonKey, ExactScalar] | None = None,
    ):
        g = Fraction(g)
        if g <= 0:
            raise DomainError(f"field parameter g must be positive, got {g}")
        self.g = g
        self.zeta = Fraction(zeta)
        store: dict[MonKey, ExactScalar] = {}
        if terms:
            for key, coeff in terms.items():
                a, b, l = key
                if a < 0 or b < 0 or l < 0:
                    raise UsageError(f"negative exponent in monomial {key}")
                if coeff.g != g:
                    raise UsageError("coefficient field does not match expression")
                if not coeff.is_zero:
                    store[key] = coeff
        self._terms = store

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, g, zeta) -> "CoeffExpr":
        return cls(g, zeta, None)

    @classmethod
    def one(cls, g, zeta) -> "CoeffExpr":
        return cls.monomial(g, zeta, 0, 0, 0, 1)

    @classmethod
    def monomial(cls, g, zeta, a: int, b: int, l: int, coeff) -> "CoeffExpr":
        g = Fraction(g)
        if not isinstance(coeff, ExactScalar):
            coeff = ExactScalar(coeff, 0, g)
        return cls(g, zeta, {(a, b, l): coeff})

    @classmethod
    def poly_v(cls, g, zeta, coeffs: Mapping[int, object]) -> "CoeffExpr":
        """Polynomial in v from a map {exponent: rational-or-scalar}."""
        g = Fraction(g)
        terms: dict[MonKey, ExactScalar] = {}
        for a, c in coeffs.items():
            if not isinstance(c, ExactScalar):
                c = ExactScalar(c, 0, g)
            if not c.is_zero:
                terms[(a, 0, 0)] = c
        return cls(g, zeta, terms)

    # -- bookkeeping ---------------------------------------------------------

    def items(self) -> Iterator[tuple[MonKey, ExactScalar]]:
        """Monomials in canonical (l, b, a) order."""
        for key in sorted(self._terms, key=_canon_order):
            yield key, self._terms[key]

    def coeff_at(self, a: int, b: int, l: int = 0) -> ExactScalar:
        return self._terms.get((a, b, l), ExactScalar(0, 0, self.g))

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_polynomial(self) -> bool:
        """True when the expression is a pure polynomial in v (b = l = 0)."""
        return all(b == 0 and l == 0 for (_, b, l) in self._terms)

    @property
    def has_log(self) -> bool:
        return any(l > 0 for (_, _, l) in self._terms)

    def degree_v(self) -> int:
        return max((a for (a, _, _) in self._terms), default=0)

    def max_dpow(self) -> int:
        return max((b for (_, b, _) in self._terms), default=0)

    def _check_compatible(self, other: "CoeffExpr") -> None:
        if self.g != other.g or self.zeta != other.zeta:
            raise UsageError(
                f"expression parameters differ: (g={self.g}, zeta={self.zeta})"
                f" vs (g={other.g}, zeta={other.zeta})"
            )

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "CoeffExpr") -> "CoeffExpr":
        self._check_compatible(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            cur = terms.get(key)
            acc = coeff if cur is None else cur + coeff
            if acc.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = acc
        return CoeffExpr(self.g, self.zeta, terms)

    def __neg__(self) -> "CoeffExpr":
        return CoeffExpr(
            self.g, self.zeta, {k: -c for k, c in self._terms.items()}
        )

    def __sub__(self, other: "CoeffExpr") -> "CoeffExpr":
        return self + (-other)

    def scale(self, factor) -> "CoeffExpr":
        """Multiply by a scalar from Q(sqrt(g)) (or a rational)."""
        if not isinstance(factor, ExactScalar):
            factor = ExactScalar(factor, 0, self.g)
        if factor.is_zero:
            return CoeffExpr.zero(self.g, self.zeta)
        return CoeffExpr(
            self.g, self.zeta, {k: c * factor for k, c in self._terms.items()}
        )

    def __mul__(self, other: "CoeffExpr") -> "CoeffExpr":
        self._check_compatible(other)
        terms: dict[MonKey, ExactScalar] = {}
        for (a1, b1, l1), c1 in self._terms.items():
            for (a2, b2, l2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2, l1 + l2)
                prod = c1 * c2
                cur = terms.get(key)
                acc = prod if cur is None else cur + prod
                if acc.is_zero:
                    terms.pop(key, None)
                else:
                    terms[key] = acc
        return CoeffExpr(self.g, self.zeta, terms)

    def shift_v(self, k: int) -> "CoeffExpr":
        """Multiply by v^k."""
        return CoeffExpr(
            self.g,
            self.zeta,
            {(a + k, b, l): c for (a, b, l), c in self._terms.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffExpr):
            return NotImplemented
        return (
            self.g == other.g
            and self.zeta == other.zeta
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.g, self.zeta, frozenset(self._terms.items())))

    # -- differentiation -----------------------------------------------------

    def scaled_diff(self) -> "CoeffExpr":
        """The scaled derivative D[E] = (1 + g*v^2) * dE/dv, closed in-basis.

        Uses d(d)/dv = -gamma/(1 + g v^2) and dL/dv = 2 g v/(1 + g v^2):

            D[v^a d^b L^l] = a v^(a-1) (1 + g v^2) d^b L^l
                             - b gamma v^a d^(b-1) L^l
                             + 2 l g v^(a+1) d^b L^(l-1)
        """
        g = self.g
        gamma = ExactScalar.sqrt_g(g)
        terms: dict[MonKey, ExactScalar] = {}

        def acc(key: MonKey, coeff: ExactScalar) -> None:
            if coeff.is_zero:
                return
            cur = terms.get(key)
            s = coeff if cur is None else cur + coeff
            if s.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = s

        for (a, b, l), c in self._terms.items():
            if a > 0:
                acc((a - 1, b, l), c * a)
                acc((a + 1, b, l), c * a * ExactScalar.rational(g, g))
            if b > 0:
                acc((a, b - 1, l), -(c * b) * gamma)
            if l > 0:
                acc((a + 1, b, l - 1), c * (2 * l) * ExactScalar.rational(g, g))
        return CoeffExpr(self.g, self.zeta, terms)

    # -- evaluation ----------------------------------------------------------

    def eval(self, gamma: float, v: float) -> float:
        """Numeric value at (gamma, v); warns when gamma is small."""
        warn_small_gamma(gamma)
        return self.eval_quiet(gamma, v)

    def eval_quiet(self, gamma: float, v: float) -> float:
        """eval without the small-gamma warning, for callers that warn once
        per request; gamma must match sqrt(g) to 1e-12."""
        if gamma <= 0.0:
            raise DomainError(f"gamma must be positive, got {gamma}")
        # Horner in v within each (l, b) group, groups in canonical order.
        groups: dict[tuple[int, int], dict[int, float]] = {}
        try:
            gf = float(self.g)
            for (a, b, l), c in self._terms.items():
                groups.setdefault((l, b), {})[a] = float(c)
        except OverflowError:
            raise DomainError(
                f"g or a coefficient exceeds the float range at gamma = {gamma}"
            ) from None
        if abs(gamma * gamma - gf) > EVAL_GAMMA_TOL * max(1.0, abs(gf)):
            raise UsageError(
                f"gamma^2 = {gamma * gamma!r} does not match g = {gf!r}"
            )
        d = math.atan(gamma) - math.atan(gamma * v)
        lv = math.log1p(gamma * gamma * v * v)
        total = 0.0
        for (l, b) in sorted(groups):
            poly = groups[(l, b)]
            amax = max(poly)
            acc = 0.0
            for a in range(amax, -1, -1):
                acc = acc * v + poly.get(a, 0.0)
            total += acc * d**b * lv**l
        return total

    def eval_exact_v(self, v: Fraction) -> dict[int, ExactScalar]:
        """Substitute a rational v exactly, keeping d symbolic.

        Returns {b: coefficient of d^b}.  Requires a log-free expression.
        """
        if self.has_log:
            raise UsageError("exact evaluation requires a log-free expression")
        v = Fraction(v)
        out: dict[int, ExactScalar] = {}
        for (a, b, _), c in self._terms.items():
            contrib = c * (v**a)
            cur = out.get(b)
            acc = contrib if cur is None else cur + contrib
            if acc.is_zero:
                out.pop(b, None)
            else:
                out[b] = acc
        return out

    def value_at_one(self) -> ExactScalar:
        """Exact value at v = 1 (d vanishes there); log-free expressions only."""
        at1 = self.eval_exact_v(Fraction(1))
        return at1.get(0, ExactScalar(0, 0, self.g))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "g": frac_to_str(self.g),
            "zeta": frac_to_str(self.zeta),
            "terms": [
                {"a": a, "b": b, "l": l, "coeff": c.to_json()}
                for (a, b, l), c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CoeffExpr":
        g = frac_from_str(obj["g"])
        zeta = frac_from_str(obj["zeta"])
        terms: dict[MonKey, ExactScalar] = {}
        for t in obj["terms"]:
            key = (int(t["a"]), int(t["b"]), int(t["l"]))
            if key in terms:
                raise UsageError(f"duplicate monomial {key} in serialized expression")
            terms[key] = ExactScalar.from_json(t["coeff"], g)
        return cls(g, zeta, terms)

    def render_text(self, var: str = "v") -> str:
        """Human-readable rendering; d is the arctan difference, L the log."""
        if self.is_zero:
            return "0"
        parts = []
        for (a, b, l), c in self.items():
            factors = []
            if c.b == 0:
                factors.append(f"({c.a})")
            else:
                factors.append(f"({c.a} + {c.b}*sqrt(g))")
            for sym, exp in ((var, a), ("d", b), ("L", l)):
                if exp == 1:
                    factors.append(sym)
                elif exp > 1:
                    factors.append(f"{sym}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CoeffExpr(g={self.g}, zeta={self.zeta}, {self.render_text()})"

