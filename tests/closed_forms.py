"""Hand-transcribed closed forms for the low-order coefficient functions.

These were worked out by integrating the recurrences by hand, separately
from the engine in `uniasym.recurrences`.  The test suite demands exact
field equality between the two routes, so a slip on either side fails
loudly.  omega_1..omega_3, omega_bar_1 and psi_1 live in the package,
where `uniasym check` also uses them; psi_2, psi_3 and the psi_bar forms
are here.  Keep this file free of imports from `uniasym.recurrences`.
"""

from __future__ import annotations

from fractions import Fraction

from uniasym.closed_forms import closed_omega, closed_omega_bar
from uniasym.closed_forms import dzg as _dzg
from uniasym.closed_forms import p1 as _p1
from uniasym.coeff import CoeffExpr

__all__ = ["closed_omega", "closed_omega_bar", "closed_psi", "closed_psi_bar"]


def _q2(g: Fraction, zeta: Fraction) -> CoeffExpr:
    gp1 = g + 1
    return CoeffExpr.poly_v(
        g,
        zeta,
        {
            0: (4 * g**2 + 84 * g - 63) / (1152 * gp1**2),
            1: (g - 1) * (2 * g + 3) / (192 * gp1**2),
            2: (9 * g**2 - 58 * g + 9) / (128 * gp1**2),
            3: -5 * g * (2 * g + 3) / (576 * gp1**2),
            4: -77 * g * (g - 1) / (192 * gp1**2),
            6: 385 * g**2 / (1152 * gp1**2),
        },
    )


def closed_psi(k: int, g, zeta) -> CoeffExpr:
    g, zeta = Fraction(g), Fraction(zeta)
    gp1 = g + 1
    half = Fraction(1, 2)
    dzg = _dzg(g, zeta)
    p1 = _p1(g, zeta)
    if k == 1:
        return dzg + p1
    q2 = _q2(g, zeta)
    zpoly2 = CoeffExpr.poly_v(g, zeta, {0: -zeta / (2 * gp1), 2: zeta / (2 * gp1)})
    if k == 2:
        return (dzg * dzg).scale(half) + dzg * p1 + zpoly2 + q2
    if k == 3:
        bracket = q2 + CoeffExpr.poly_v(
            g,
            zeta,
            {0: -zeta * (2 * g + 1) / (2 * g * gp1), 2: zeta / (2 * gp1)},
        )
        zsq = CoeffExpr.poly_v(
            g,
            zeta,
            {0: zeta**2 / (2 * g * gp1), 1: -(zeta**2) / (2 * g * gp1)},
        )
        zlin = CoeffExpr.poly_v(
            g,
            zeta,
            {
                0: -zeta * (2 * g + 7) / (48 * gp1**2),
                1: -zeta * (3 * g - 11) / (16 * gp1**2),
                2: zeta * (2 * g + 3) / (48 * gp1**2),
                3: zeta * (44 * g - 29) / (48 * gp1**2),
                5: -zeta * 35 * g / (48 * gp1**2),
            },
        )
        q3 = CoeffExpr.poly_v(
            g,
            zeta,
            {
                0: -(1112 * g**3 + 1116 * g**2 - 918 * g + 5265)
                / (414720 * gp1**3),
                1: (4 * g**3 + 728 * g**2 - 4323 * g + 711) / (9216 * gp1**3),
                2: (2 * g + 3) * (9 * g**2 - 58 * g + 9) / (3072 * gp1**3),
                3: (2005 * g**3 - 37671 * g**2 + 37566 * g - 2025)
                / (27648 * gp1**3),
                4: -77 * g * (g - 1) * (2 * g + 3) / (4608 * gp1**3),
                5: -13 * g * (1053 * g**2 - 3706 * g + 1053) / (15360 * gp1**3),
                6: 385 * g**2 * (2 * g + 3) / (27648 * gp1**3),
                7: 17017 * g**2 * (g - 1) / (9216 * gp1**3),
                9: -85085 * g**3 / (82944 * gp1**3),
            },
        )
        return (
            (dzg * dzg * dzg).scale(Fraction(1, 6))
            + (dzg * dzg * p1).scale(half)
            + dzg * bracket
            + zsq
            + zlin
            + q3
        )
    raise ValueError(f"no hand form for psi_{k}")


def _p1_bar(g: Fraction, zeta: Fraction) -> CoeffExpr:
    gp1 = g + 1
    return CoeffExpr.poly_v(
        g,
        zeta,
        {
            0: (2 * g + 3) / (24 * gp1),
            1: -(3 * g + 1) / (8 * gp1),
            3: 7 * g / (24 * gp1),
        },
    )


def _q2_bar(g: Fraction, zeta: Fraction) -> CoeffExpr:
    gp1 = g + 1
    return CoeffExpr.poly_v(
        g,
        zeta,
        {
            0: (2 * g - 27) * (2 * g - 3) / (1152 * gp1**2),
            1: -(3 * g + 1) * (2 * g + 3) / (192 * gp1**2),
            2: -(15 * g**2 - 62 * g + 7) / (128 * gp1**2),
            3: 7 * g * (2 * g + 3) / (576 * gp1**2),
            4: g * (99 * g - 79) / (192 * gp1**2),
            6: -455 * g**2 / (1152 * gp1**2),
        },
    )


def closed_psi_bar(k: int, g, zeta) -> CoeffExpr:
    g, zeta = Fraction(g), Fraction(zeta)
    gp1 = g + 1
    half = Fraction(1, 2)
    dzg = _dzg(g, zeta)
    p1b = _p1_bar(g, zeta)
    if k == 1:
        return dzg + p1b
    q2b = _q2_bar(g, zeta)
    zpoly2 = CoeffExpr.poly_v(g, zeta, {0: zeta / (2 * gp1), 2: -zeta / (2 * gp1)})
    if k == 2:
        return (dzg * dzg).scale(half) + dzg * p1b + zpoly2 + q2b
    if k == 3:
        bracket = q2b + CoeffExpr.poly_v(
            g,
            zeta,
            {0: -zeta / (2 * g * gp1), 2: -zeta / (2 * gp1)},
        )
        zsq = CoeffExpr.poly_v(
            g,
            zeta,
            {0: zeta**2 / (2 * g * gp1), 1: -(zeta**2) / (2 * g * gp1)},
        )
        zlin = CoeffExpr.poly_v(
            g,
            zeta,
            {
                0: zeta * (2 * g - 1) / (48 * gp1**2),
                1: zeta * (3 * g - 7) / (16 * gp1**2),
                2: -zeta * (2 * g + 3) / (48 * gp1**2),
                3: -zeta * (44 * g - 25) / (48 * gp1**2),
                5: zeta * 35 * g / (48 * gp1**2),
            },
        )
        q3b = CoeffExpr.poly_v(
            g,
            zeta,
            {
                0: -(1112 * g**3 + 5436 * g**2 + 1242 * g - 1215)
                / (414720 * gp1**3),
                1: -(12 * g**3 + 904 * g**2 - 4281 * g + 585) / (9216 * gp1**3),
                2: -(2 * g + 3) * (15 * g**2 - 62 * g + 7) / (3072 * gp1**3),
                3: -(2807 * g**3 - 42897 * g**2 + 37458 * g - 1863)
                / (27648 * gp1**3),
                4: g * (99 * g - 79) * (2 * g + 3) / (4608 * gp1**3),
                5: 11 * g * (1521 * g**2 - 4762 * g + 1241) / (15360 * gp1**3),
                6: -455 * g**2 * (2 * g + 3) / (27648 * gp1**3),
                7: -385 * g**2 * (51 * g - 47) / (9216 * gp1**3),
                9: 95095 * g**3 / (82944 * gp1**3),
            },
        )
        return (
            (dzg * dzg * dzg).scale(Fraction(1, 6))
            + (dzg * dzg * p1b).scale(half)
            + dzg * bracket
            + zsq
            + zlin
            + q3b
        )
    raise ValueError(f"no hand form for psi_bar_{k}")
