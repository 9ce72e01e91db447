"""Recurrence chains for the expansion coefficient functions.

Two families are produced, both starting from the constant 1:

* Modified-Bessel side: polynomials w_k(t) satisfying

      w_{k+1} = (1/2) t^2 (1 - t^2) dw_k/dt
                + (1/8) * Int_0^t (1 - 5 u^2) w_k(u) du

  together with the derivative-side combinations wbar_k.

* Legendre side: functions psi_k(v) in the closed basis {v^a d^b} over
  Q(sqrt(g)), generated by a differentiation term plus two definite
  integrals anchored at v = 1.  Integration uses an exact rule set;
  the logarithm L = ln(1 + g v^2) and the non-elementary integrals
  X_b = Int v d^b / (1 + g v^2) dv show up in intermediate
  antiderivatives and must cancel in the combined result.  A surviving
  L or X_b coefficient aborts the step with IntegrityError rather than
  being dropped.

Every chain entry and antiderivative table entry is a pure function of
its arguments, memoised by a bounded functools.lru_cache: the Bessel
chains by k, the Legendre chains by (k, g, zeta) and the tables by
(a, b, g, zeta).  The caches keyed by (g, zeta) hold _CACHED_PAIRS exact
pairs, dropping the least recently used entries past that.
Threads may share them: lru_cache keeps each cache coherent, and racing
threads get equal chains, though they may build one entry twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .coeff import CoeffExpr
from .errors import IntegrityError, UsageError
from .exact import ExactScalar

# Deepest coefficient order that every series entry point serves.
K_MAX = 6

_BESSEL_G = Fraction(1)


def _check_k(k: int) -> None:
    if k < 0 or k > K_MAX:
        raise UsageError(f"k = {k} outside [0, {K_MAX}]")


# -- exact Stirling data -----------------------------------------------------

def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m by the defining recurrence sum_{j<=m} C(m+1,j) B_j = [m=0]."""
    if m < 0:
        raise UsageError("m must be nonnegative")
    bern = [Fraction(1)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * bern[j]
        bern.append(-acc / (k + 1))
    return bern


def stirling_exp_coefficients(m: int) -> list[Fraction]:
    """Coefficients e_0..e_m of exp(-sum_j B_{2j}/(2j(2j-1)) u^{2j-1}).

    This is the reciprocal correction series of the factorial asymptote:
    1/n! = (e/n)^n / sqrt(2 pi n) * sum_m e_m n^{-m}.
    """
    if m < 0:
        raise UsageError("m must be nonnegative")
    bern = bernoulli_numbers(2 * m + 2)
    s = [Fraction(0)] * (m + 1)
    for j in range(1, m + 1):
        idx = 2 * j - 1
        if idx <= m:
            s[idx] = -bern[2 * j] / (2 * j * (2 * j - 1))
    e = [Fraction(1)] + [Fraction(0)] * m
    for k in range(1, m + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += i * s[i] * e[k - i]
        e[k] = acc / k
    return e


# -- Bessel-side chain -------------------------------------------------------

def _poly_ddt(expr: CoeffExpr) -> CoeffExpr:
    """Plain d/dt of a pure polynomial expression."""
    terms = {}
    for (a, b, l), c in expr.items():
        if a > 0:
            terms[(a - 1, b, l)] = c * a
    return CoeffExpr(expr.g, expr.zeta, terms)


def _poly_int_zero(expr: CoeffExpr) -> CoeffExpr:
    """Antiderivative of a pure polynomial vanishing at t = 0."""
    terms = {}
    for (a, b, l), c in expr.items():
        terms[(a + 1, b, l)] = c * Fraction(1, a + 1)
    return CoeffExpr(expr.g, expr.zeta, terms)


def integrate_step_bessel(expr: CoeffExpr) -> CoeffExpr:
    """One step of the Bessel-side recurrence on polynomials in t."""
    if not expr.is_polynomial:
        raise UsageError("Bessel-side step requires a pure polynomial in t")
    if any(c.b != 0 for _, c in expr.items()):
        raise UsageError("Bessel-side polynomials must have rational coefficients")
    g, zeta = expr.g, expr.zeta
    bracket = CoeffExpr.poly_v(g, zeta, {2: Fraction(1, 2), 4: Fraction(-1, 2)})
    dterm = bracket * _poly_ddt(expr)
    weight = CoeffExpr.poly_v(g, zeta, {0: 1, 2: -5})
    iterm = _poly_int_zero(weight * expr).scale(Fraction(1, 8))
    return dterm + iterm


@lru_cache(maxsize=K_MAX + 1)
def omega(k: int) -> CoeffExpr:
    """k-th Bessel-side coefficient polynomial (in t, rational coefficients)."""
    _check_k(k)
    if k == 0:
        return CoeffExpr.one(_BESSEL_G, 0)
    return integrate_step_bessel(omega(k - 1))


@lru_cache(maxsize=K_MAX + 1)
def omega_bar(k: int) -> CoeffExpr:
    """Derivative-side Bessel polynomial: w_k + t(t^2-1)(w_{k-1}/2 + t w'_{k-1})."""
    _check_k(k)
    if k == 0:
        return omega(0)
    w_prev = omega(k - 1)
    g, zeta = w_prev.g, w_prev.zeta
    half_t3_minus_t = CoeffExpr.poly_v(g, zeta, {3: Fraction(1, 2), 1: Fraction(-1, 2)})
    t4_minus_t2 = CoeffExpr.poly_v(g, zeta, {4: 1, 2: -1})
    return omega(k) + half_t3_minus_t * w_prev + t4_minus_t2 * _poly_ddt(w_prev)


# -- Legendre-side antiderivative engine --------------------------------------

class _Anti(NamedTuple):
    """Indefinite antiderivative: explicit part plus formal X_b content.

    Table entries are cached and shared, so xco is never mutated."""

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


# Exact (g, zeta) pairs the Legendre-side caches hold.  At K_MAX a pair
# fills K_MAX + 1 entries of each chain and under 64 of each antiderivative
# table, about 0.5 MB in all.
_CACHED_PAIRS = 32
_CHAIN_SIZE = _CACHED_PAIRS * (K_MAX + 1)
_TABLE_SIZE = _CACHED_PAIRS * 64


@lru_cache(maxsize=_TABLE_SIZE)
def _anti_power(a: int, b: int, g: Fraction, zeta: Fraction) -> _Anti:
    """Antiderivative of v^a d^b (indefinite; explicit constant left at 0)."""
    lead = CoeffExpr.monomial(g, zeta, a + 1, b, 0, Fraction(1, a + 1))
    if b == 0:
        return _Anti(lead, {})
    # by parts: the d-power drops by one against 1/(1+gv^2)
    tail = _anti_ratio(a + 1, b - 1, g, zeta)
    factor = ExactScalar.sqrt_g(g) * Fraction(b, a + 1)
    xco: dict[int, ExactScalar] = {}
    _xmerge(xco, tail.xco, factor)
    return _Anti(lead + tail.expr.scale(factor), xco)


@lru_cache(maxsize=_TABLE_SIZE)
def _anti_ratio(a: int, b: int, g: Fraction, zeta: Fraction) -> _Anti:
    """Antiderivative of v^a d^b / (1 + g v^2)."""
    if a == 0:
        coeff = ExactScalar.sqrt_g(g).inv() * Fraction(-1, b + 1)
        return _Anti(CoeffExpr.monomial(g, zeta, 0, b + 1, 0, coeff), {})
    if a == 1 and b == 0:
        return _Anti(CoeffExpr.monomial(g, zeta, 0, 0, 1, Fraction(1, 2) / g), {})
    if a == 1:
        # Int v d^b/(1+gv^2) dv is not elementary; keep it formal.
        return _Anti(CoeffExpr.zero(g, zeta), {b: ExactScalar(1, 0, g)})
    # v^a/(1+gv^2) = v^(a-2)/g - v^(a-2)/(g(1+gv^2))
    inv_g = Fraction(1) / g
    part_p = _anti_power(a - 2, b, g, zeta)
    part_a = _anti_ratio(a - 2, b, g, zeta)
    xco: dict[int, ExactScalar] = {}
    _xmerge(xco, part_p.xco, inv_g)
    _xmerge(xco, part_a.xco, -inv_g)
    return _Anti(part_p.expr.scale(inv_g) - part_a.expr.scale(inv_g), xco)


def _definite(anti: _Anti) -> _DefInt:
    """Anchor an antiderivative at v = 1.

    At v = 1 the d-factors vanish; L(1) = ln(1+g) is kept formal as the
    anchor coefficient.
    """
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
            raise IntegrityError(
                f"unexpected log monomial (a={a}, b={b}, l={l}) in antiderivative"
            )
    if not const.is_zero:
        expr = expr - CoeffExpr.monomial(expr.g, expr.zeta, 0, 0, 0, const)
    # Formal X_b are anchored at v = 1 by convention, adding nothing here.
    return _DefInt(expr, dict(anti.xco), -anchor)


def _integrate_expr(expr: CoeffExpr, table) -> _DefInt:
    """Definite integral from 1 of expr through one antiderivative table:
    _anti_power for expr itself, _anti_ratio for expr / (1 + g v^2)."""
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


def _step(psi_k: CoeffExpr) -> CoeffExpr:
    """One Legendre-side recurrence step with transient-cancellation check."""
    if psi_k.has_log:
        raise UsageError("recurrence input must be log-free")
    g, zeta = psi_k.g, psi_k.zeta
    one_plus_g = 1 + g

    one_minus_v2 = CoeffExpr.poly_v(g, zeta, {0: 1, 2: -1})
    dterm = (psi_k.scaled_diff() * one_minus_v2).scale(
        Fraction(1, 2) / one_plus_g
    )

    bracket = CoeffExpr.poly_v(g, zeta, {2: 5, 0: Fraction(1) / g - 1})
    int_poly = _integrate_expr(bracket * psi_k, _anti_power)
    int_ratio = _integrate_expr(psi_k, _anti_ratio)

    w_poly = -g / (8 * one_plus_g)
    w_ratio = -zeta

    result = (
        dterm
        + int_poly.expr.scale(w_poly)
        + int_ratio.expr.scale(w_ratio)
    )
    xco: dict[int, ExactScalar] = {}
    _xmerge(xco, int_poly.xco, w_poly)
    _xmerge(xco, int_ratio.xco, w_ratio)
    anchor = int_poly.anchor * w_poly + int_ratio.anchor * w_ratio

    problems = []
    log_coeff = result.coeff_at(0, 0, 1)
    if not log_coeff.is_zero:
        problems.append(f"L coefficient {log_coeff!r}")
    if result.has_log and log_coeff.is_zero:
        problems.append("higher log monomials present")
    if not anchor.is_zero:
        problems.append(f"anchor ln(1+g) coefficient {anchor!r}")
    for b in sorted(xco):
        problems.append(f"X_{b} coefficient {xco[b]!r}")
    if problems:
        raise IntegrityError(
            "transients failed to cancel in recurrence step: "
            + "; ".join(problems)
        )
    return result


def integrate_step_legendre(expr: CoeffExpr, g, zeta) -> CoeffExpr:
    """One recurrence step for the Legendre-side coefficients."""
    if expr.g != Fraction(g) or expr.zeta != Fraction(zeta):
        raise UsageError("expression parameters do not match (g, zeta)")
    return _step(expr)


@lru_cache(maxsize=_CHAIN_SIZE)
def psi(k: int, g, zeta) -> CoeffExpr:
    """k-th Legendre-side coefficient function (exact, log-free)."""
    _check_k(k)
    if k == 0:
        return CoeffExpr.one(g, zeta)
    return _step(psi(k - 1, g, zeta))


@lru_cache(maxsize=_CHAIN_SIZE)
def psi_bar(k: int, g, zeta) -> CoeffExpr:
    """Derivative-side Legendre coefficient.

    psibar_k = psi_k - g v (1-v^2)/(2(1+g)) psi_{k-1}
               - (1-v^2)(1+g v^2)/(1+g) dpsi_{k-1}/dv,

    with the last term formed in-basis from the scaled derivative.
    """
    _check_k(k)
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
    """sum_{i<=k} e_i chain[k-i] with e_i the Stirling reciprocal coefficients."""
    k = len(chain) - 1
    acc = CoeffExpr.zero(chain[0].g, chain[0].zeta)
    for e_i, term in zip(stirling_exp_coefficients(k), reversed(chain)):
        acc = acc + term.scale(e_i)
    return acc


@lru_cache(maxsize=_CHAIN_SIZE)
def psi_plus(k: int, g, zeta) -> CoeffExpr:
    """Legendre coefficient with the factorial correction series folded in.

    psiplus_k = sum_{i<=k} e_i psi_{k-i} with e_i the exact Stirling
    reciprocal coefficients; the sign-alternating series reuses the same
    combination because e_i carries parity (-1)^i under n -> -n.
    """
    _check_k(k)
    return _plus_combine([psi(i, g, zeta) for i in range(k + 1)])


@lru_cache(maxsize=_CHAIN_SIZE)
def psi_bar_plus(k: int, g, zeta) -> CoeffExpr:
    """Derivative-side analogue of psi_plus."""
    _check_k(k)
    return _plus_combine([psi_bar(i, g, zeta) for i in range(k + 1)])
