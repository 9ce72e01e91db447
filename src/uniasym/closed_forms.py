"""Hand-worked closed forms of the lowest-order coefficient functions.

Found apart from the engine, so this module imports nothing from
`uniasym.recurrences`; `uniasym check` and the tests demand exact equality
with it.  Higher orders are in `tests/closed_forms.py`.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import CoeffExpr
from .exact import ExactScalar

# order k -> {power of v: coefficient} of the Bessel-family polynomials
_OMEGA = {
    1: {1: (3, 24), 3: (-5, 24)},
    2: {2: (81, 1152), 4: (-462, 1152), 6: (385, 1152)},
    3: {3: (30375, 414720), 5: (-369603, 414720), 7: (765765, 414720), 9: (-425425, 414720)},
}
_OMEGA_BAR = {1: {1: (-9, 24), 3: (7, 24)}}


def _bessel_poly(table: dict, name: str, k: int) -> CoeffExpr:
    if k not in table:
        raise ValueError(f"no hand form for {name}_{k}")
    coeffs = {a: Fraction(*pq) for a, pq in table[k].items()}
    return CoeffExpr.poly_v(Fraction(1), Fraction(0), coeffs)


def closed_omega(k: int) -> CoeffExpr:
    return _bessel_poly(_OMEGA, "omega", k)


def closed_omega_bar(k: int) -> CoeffExpr:
    return _bessel_poly(_OMEGA_BAR, "omega_bar", k)


def dzg(g: Fraction, zeta: Fraction) -> CoeffExpr:
    """The single d-carrying building block: d * zeta / gamma."""
    coeff = ExactScalar.sqrt_g(g).inv() * ExactScalar.rational(zeta, g)
    return CoeffExpr.monomial(g, zeta, 0, 1, 0, coeff)


def p1(g: Fraction, zeta: Fraction) -> CoeffExpr:
    """The polynomial part of psi_1 = dzg + p1."""
    gp1 = g + 1
    return CoeffExpr.poly_v(
        g,
        zeta,
        {0: (2 * g + 3) / (24 * gp1), 1: (g - 1) / (8 * gp1), 3: -5 * g / (24 * gp1)},
    )
