"""Per-pair Legendre recurrence engine: the `==` reference for the kernel.

This is the engine the package ran before its chains became generic in
(gamma, zeta): every step is taken in Q(sqrt(g)) arithmetic for one
fixed (g, zeta), through antiderivative tables keyed by (a, b, g, zeta).
The tests demand that each chain `uniasym.recurrences` specialises from
its generic chain equals, under `==`, the chain built here.

It is slow (about 0.1-0.2 s for psi_0..psi_6 at a float-derived pair);
its caches are bounded and hold a few pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from uniasym.coeff import CoeffExpr
from uniasym.errors import IntegrityError, UsageError
from uniasym.exact import ExactScalar
from uniasym.recurrences import stirling_exp_coefficients

_TABLE_SIZE = 4 * 64
_CHAIN_SIZE = 4 * 7


class _Anti(NamedTuple):
    """Indefinite antiderivative: explicit part plus formal X_b content."""

    expr: CoeffExpr
    xco: dict[int, ExactScalar]


class _DefInt(NamedTuple):
    """Definite integral from v' = 1: explicit part, X_b part, and the
    coefficient of the anchor constant ln(1 + g) from the lower limit."""

    expr: CoeffExpr
    xco: dict[int, ExactScalar]
    anchor: ExactScalar


def _xmerge(dst: dict[int, ExactScalar], src: dict[int, ExactScalar], factor) -> None:
    for b, c in src.items():
        add = c * factor
        cur = dst.get(b)
        acc = add if cur is None else cur + add
        if acc.is_zero:
            dst.pop(b, None)
        else:
            dst[b] = acc


@lru_cache(maxsize=_TABLE_SIZE)
def anti_power(a: int, b: int, g: Fraction, zeta: Fraction) -> _Anti:
    """Antiderivative of v^a d^b (indefinite; explicit constant left at 0)."""
    lead = CoeffExpr.monomial(g, zeta, a + 1, b, 0, Fraction(1, a + 1))
    if b == 0:
        return _Anti(lead, {})
    tail = anti_ratio(a + 1, b - 1, g, zeta)
    factor = ExactScalar.sqrt_g(g) * Fraction(b, a + 1)
    xco: dict[int, ExactScalar] = {}
    _xmerge(xco, tail.xco, factor)
    return _Anti(lead + tail.expr.scale(factor), xco)


@lru_cache(maxsize=_TABLE_SIZE)
def anti_ratio(a: int, b: int, g: Fraction, zeta: Fraction) -> _Anti:
    """Antiderivative of v^a d^b / (1 + g v^2)."""
    if a == 0:
        coeff = ExactScalar.sqrt_g(g).inv() * Fraction(-1, b + 1)
        return _Anti(CoeffExpr.monomial(g, zeta, 0, b + 1, 0, coeff), {})
    if a == 1 and b == 0:
        return _Anti(CoeffExpr.monomial(g, zeta, 0, 0, 1, Fraction(1, 2) / g), {})
    if a == 1:
        return _Anti(CoeffExpr.zero(g, zeta), {b: ExactScalar(1, 0, g)})
    inv_g = Fraction(1) / g
    part_p = anti_power(a - 2, b, g, zeta)
    part_a = anti_ratio(a - 2, b, g, zeta)
    xco: dict[int, ExactScalar] = {}
    _xmerge(xco, part_p.xco, inv_g)
    _xmerge(xco, part_a.xco, -inv_g)
    return _Anti(part_p.expr.scale(inv_g) - part_a.expr.scale(inv_g), xco)


def _definite(anti: _Anti) -> _DefInt:
    """Anchor an antiderivative at v = 1, keeping ln(1 + g) formal."""
    expr = anti.expr
    const = ExactScalar(0, 0, expr.g)
    anchor = ExactScalar(0, 0, expr.g)
    for (a, b, l), c in expr.items():
        if b > 0:
            continue
        if l == 0:
            const = const + c
        elif l == 1 and a == 0:
            anchor = anchor + c
        else:
            raise IntegrityError(f"unexpected log monomial (a={a}, b={b}, l={l})")
    if not const.is_zero:
        expr = expr - CoeffExpr.monomial(expr.g, expr.zeta, 0, 0, 0, const)
    return _DefInt(expr, dict(anti.xco), -anchor)


def _integrate_expr(expr: CoeffExpr, table) -> _DefInt:
    g, zeta = expr.g, expr.zeta
    total = CoeffExpr.zero(g, zeta)
    xco: dict[int, ExactScalar] = {}
    anchor = ExactScalar(0, 0, g)
    for (a, b, l), c in expr.items():
        if l != 0:
            raise UsageError("integrand must be log-free")
        piece = _definite(table(a, b, g, zeta))
        total = total + piece.expr.scale(c)
        _xmerge(xco, piece.xco, c)
        anchor = anchor + piece.anchor * c
    return _DefInt(total, xco, anchor)


def step(psi_k: CoeffExpr) -> CoeffExpr:
    """One recurrence step; raises IntegrityError if L, X_b or the anchor
    survive."""
    g, zeta = psi_k.g, psi_k.zeta
    one_plus_g = 1 + g
    one_minus_v2 = CoeffExpr.poly_v(g, zeta, {0: 1, 2: -1})
    dterm = (psi_k.scaled_diff() * one_minus_v2).scale(Fraction(1, 2) / one_plus_g)
    bracket = CoeffExpr.poly_v(g, zeta, {2: 5, 0: Fraction(1) / g - 1})
    int_poly = _integrate_expr(bracket * psi_k, anti_power)
    int_ratio = _integrate_expr(psi_k, anti_ratio)
    w_poly = -g / (8 * one_plus_g)
    w_ratio = -zeta
    result = dterm + int_poly.expr.scale(w_poly) + int_ratio.expr.scale(w_ratio)
    xco: dict[int, ExactScalar] = {}
    _xmerge(xco, int_poly.xco, w_poly)
    _xmerge(xco, int_ratio.xco, w_ratio)
    anchor = int_poly.anchor * w_poly + int_ratio.anchor * w_ratio
    if result.has_log or not anchor.is_zero or xco:
        raise IntegrityError("transients failed to cancel in recurrence step")
    return result


@lru_cache(maxsize=_CHAIN_SIZE)
def psi(k: int, g, zeta) -> CoeffExpr:
    return CoeffExpr.one(g, zeta) if k == 0 else step(psi(k - 1, g, zeta))


@lru_cache(maxsize=_CHAIN_SIZE)
def psi_bar(k: int, g, zeta) -> CoeffExpr:
    if k == 0:
        return psi(0, g, zeta)
    prev = psi(k - 1, g, zeta)
    gf = prev.g
    one_minus_v2 = CoeffExpr.poly_v(gf, prev.zeta, {0: 1, 2: -1})
    v_term = prev.shift_v(1) * one_minus_v2
    d_term = prev.scaled_diff() * one_minus_v2
    return (
        psi(k, g, zeta)
        - v_term.scale(gf / (2 * (1 + gf)))
        - d_term.scale(Fraction(1) / (1 + gf))
    )


def _plus_combine(chain: list[CoeffExpr]) -> CoeffExpr:
    k = len(chain) - 1
    acc = CoeffExpr.zero(chain[0].g, chain[0].zeta)
    for e_i, term in zip(stirling_exp_coefficients(k), reversed(chain)):
        acc = acc + term.scale(e_i)
    return acc


def psi_plus(k: int, g, zeta) -> CoeffExpr:
    return _plus_combine([psi(i, g, zeta) for i in range(k + 1)])


def psi_bar_plus(k: int, g, zeta) -> CoeffExpr:
    return _plus_combine([psi_bar(i, g, zeta) for i in range(k + 1)])


FAMILIES = {"psi": psi, "psi_bar": psi_bar, "psi_plus": psi_plus,
            "psi_bar_plus": psi_bar_plus}
