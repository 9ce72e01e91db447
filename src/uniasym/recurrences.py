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

All chains are cached: the Bessel chain globally, the Legendre chains
per exact parameter pair (g, zeta).  Expressions are immutable, so the
caches are safe to share across threads.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
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


_omega_lock = threading.Lock()
_omega_chain: list[CoeffExpr] = []
_omega_bar_cache: dict[int, CoeffExpr] = {}


def omega(k: int) -> CoeffExpr:
    """k-th Bessel-side coefficient polynomial (in t, rational coefficients)."""
    _check_k(k)
    with _omega_lock:
        if not _omega_chain:
            _omega_chain.append(CoeffExpr.one(_BESSEL_G, 0))
        while len(_omega_chain) <= k:
            _omega_chain.append(integrate_step_bessel(_omega_chain[-1]))
        return _omega_chain[k]


def omega_bar(k: int) -> CoeffExpr:
    """Derivative-side Bessel polynomial: w_k + t(t^2-1)(w_{k-1}/2 + t w'_{k-1})."""
    _check_k(k)
    with _omega_lock:
        cached = _omega_bar_cache.get(k)
    if cached is not None:
        return cached
    if k == 0:
        result = omega(0)
    else:
        w_prev = omega(k - 1)
        g, zeta = w_prev.g, w_prev.zeta
        half_t3_minus_t = CoeffExpr.poly_v(
            g, zeta, {3: Fraction(1, 2), 1: Fraction(-1, 2)}
        )
        t4_minus_t2 = CoeffExpr.poly_v(g, zeta, {4: 1, 2: -1})
        result = (
            omega(k)
            + half_t3_minus_t * w_prev
            + t4_minus_t2 * _poly_ddt(w_prev)
        )
    with _omega_lock:
        _omega_bar_cache[k] = result
    return result


# -- Legendre-side antiderivative engine --------------------------------------

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


class _LegendreKernel:
    """Integration tables and coefficient chain for one exact (g, zeta)."""

    def __init__(self, g: Fraction, zeta: Fraction):
        self.g = Fraction(g)
        self.zeta = Fraction(zeta)
        self.gamma = ExactScalar.sqrt_g(self.g)
        self._anti_p: dict[tuple[int, int], _Anti] = {}
        self._anti_a: dict[tuple[int, int], _Anti] = {}
        self._psi: list[CoeffExpr] = [CoeffExpr.one(self.g, self.zeta)]
        self._psi_bar: dict[int, CoeffExpr] = {}
        self._psi_plus: dict[int, CoeffExpr] = {}
        self._psi_bar_plus: dict[int, CoeffExpr] = {}
        self._lock = threading.RLock()

    # antiderivative of v^a d^b (indefinite; explicit constant left at 0)
    def anti_power(self, a: int, b: int) -> _Anti:
        key = (a, b)
        hit = self._anti_p.get(key)
        if hit is not None:
            return hit
        lead = CoeffExpr.monomial(self.g, self.zeta, a + 1, b, 0, Fraction(1, a + 1))
        if b == 0:
            out = _Anti(lead, {})
        else:
            # by parts: the d-power drops by one against 1/(1+gv^2)
            tail = self.anti_ratio(a + 1, b - 1)
            factor = self.gamma * Fraction(b, a + 1)
            xco: dict[int, ExactScalar] = {}
            _xmerge(xco, tail.xco, factor)
            out = _Anti(lead + tail.expr.scale(factor), xco)
        self._anti_p[key] = out
        return out

    # antiderivative of v^a d^b / (1 + g v^2)
    def anti_ratio(self, a: int, b: int) -> _Anti:
        key = (a, b)
        hit = self._anti_a.get(key)
        if hit is not None:
            return hit
        if a == 0:
            coeff = self.gamma.inv() * Fraction(-1, b + 1)
            out = _Anti(
                CoeffExpr.monomial(self.g, self.zeta, 0, b + 1, 0, coeff), {}
            )
        elif a == 1 and b == 0:
            out = _Anti(
                CoeffExpr.monomial(
                    self.g, self.zeta, 0, 0, 1, Fraction(1, 2) / self.g
                ),
                {},
            )
        elif a == 1:
            # Int v d^b/(1+gv^2) dv is not elementary; keep it formal.
            out = _Anti(
                CoeffExpr.zero(self.g, self.zeta),
                {b: ExactScalar(1, 0, self.g)},
            )
        else:
            # v^a/(1+gv^2) = v^(a-2)/g - v^(a-2)/(g(1+gv^2))
            inv_g = Fraction(1) / self.g
            part_p = self.anti_power(a - 2, b)
            part_a = self.anti_ratio(a - 2, b)
            xco = {}
            _xmerge(xco, part_p.xco, inv_g)
            _xmerge(xco, part_a.xco, -inv_g)
            out = _Anti(
                part_p.expr.scale(inv_g) - part_a.expr.scale(inv_g), xco
            )
        self._anti_a[key] = out
        return out

    def _value_at_one(self, expr: CoeffExpr) -> tuple[ExactScalar, ExactScalar]:
        """Split expr(1) into (rational-part, coefficient of ln(1+g)).

        At v = 1 the d-factors vanish; L(1) = ln(1+g) is kept formal.
        """
        const = ExactScalar(0, 0, self.g)
        anchor = ExactScalar(0, 0, self.g)
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
        return const, anchor

    def _definite(self, anti: _Anti) -> _DefInt:
        const, anchor = self._value_at_one(anti.expr)
        expr = anti.expr
        if not const.is_zero:
            expr = expr - CoeffExpr.monomial(self.g, self.zeta, 0, 0, 0, const)
        # Formal X_b are anchored at v = 1 by convention, adding nothing here.
        return _DefInt(expr, dict(anti.xco), -anchor)

    def definite_power(self, a: int, b: int) -> _DefInt:
        return self._definite(self.anti_power(a, b))

    def definite_ratio(self, a: int, b: int) -> _DefInt:
        return self._definite(self.anti_ratio(a, b))

    def _integrate_expr(self, expr: CoeffExpr, ratio: bool) -> _DefInt:
        """Definite integral from 1 of expr (ratio=True divides by 1+gv^2)."""
        total = CoeffExpr.zero(self.g, self.zeta)
        xco: dict[int, ExactScalar] = {}
        anchor = ExactScalar(0, 0, self.g)
        table = self.definite_ratio if ratio else self.definite_power
        for (a, b, l), c in expr.items():
            if l != 0:
                raise UsageError("integrand must be log-free")
            piece = table(a, b)
            total = total + piece.expr.scale(c)
            _xmerge(xco, piece.xco, c)
            anchor = anchor + piece.anchor * c
        return _DefInt(total, xco, anchor)

    def step(self, psi_k: CoeffExpr) -> CoeffExpr:
        """One Legendre-side recurrence step with transient-cancellation check."""
        if psi_k.has_log:
            raise UsageError("recurrence input must be log-free")
        g, zeta = self.g, self.zeta
        one_plus_g = 1 + g

        one_minus_v2 = CoeffExpr.poly_v(g, zeta, {0: 1, 2: -1})
        dterm = (psi_k.scaled_diff() * one_minus_v2).scale(
            Fraction(1, 2) / one_plus_g
        )

        bracket = CoeffExpr.poly_v(g, zeta, {2: 5, 0: Fraction(1) / g - 1})
        int_poly = self._integrate_expr(bracket * psi_k, ratio=False)
        int_ratio = self._integrate_expr(psi_k, ratio=True)

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


_kernel_lock = threading.Lock()
_kernels: dict[tuple[Fraction, Fraction], _LegendreKernel] = {}


def _kernel(g, zeta) -> _LegendreKernel:
    key = (Fraction(g), Fraction(zeta))
    with _kernel_lock:
        kern = _kernels.get(key)
        if kern is None:
            kern = _LegendreKernel(*key)
            _kernels[key] = kern
        return kern


def integrate_step_legendre(expr: CoeffExpr, g, zeta) -> CoeffExpr:
    """One recurrence step for the Legendre-side coefficients."""
    kern = _kernel(g, zeta)
    if expr.g != kern.g or expr.zeta != kern.zeta:
        raise UsageError("expression parameters do not match (g, zeta)")
    return kern.step(expr)


def psi(k: int, g, zeta) -> CoeffExpr:
    """k-th Legendre-side coefficient function (exact, log-free)."""
    _check_k(k)
    kern = _kernel(g, zeta)
    with kern._lock:
        while len(kern._psi) <= k:
            kern._psi.append(kern.step(kern._psi[-1]))
        return kern._psi[k]


def psi_bar(k: int, g, zeta) -> CoeffExpr:
    """Derivative-side Legendre coefficient.

    psibar_k = psi_k - g v (1-v^2)/(2(1+g)) psi_{k-1}
               - (1-v^2)(1+g v^2)/(1+g) dpsi_{k-1}/dv,

    with the last term formed in-basis from the scaled derivative.
    """
    _check_k(k)
    kern = _kernel(g, zeta)
    with kern._lock:
        cached = kern._psi_bar.get(k)
        if cached is not None:
            return cached
    if k == 0:
        result = psi(0, g, zeta)
    else:
        prev = psi(k - 1, g, zeta)
        gf = kern.g
        one_minus_v2 = CoeffExpr.poly_v(gf, kern.zeta, {0: 1, 2: -1})
        v_term = prev.shift_v(1) * one_minus_v2
        d_term = prev.scaled_diff() * one_minus_v2
        result = (
            psi(k, g, zeta)
            - v_term.scale(gf / (2 * (1 + gf)))
            - d_term.scale(Fraction(1) / (1 + gf))
        )
    with kern._lock:
        kern._psi_bar[k] = result
    return result


def _plus_combine(
    base: list[CoeffExpr], k: int, coeffs: list[Fraction]
) -> CoeffExpr:
    acc = CoeffExpr.zero(base[0].g, base[0].zeta)
    for i in range(k + 1):
        acc = acc + base[k - i].scale(coeffs[i])
    return acc


def psi_plus(k: int, g, zeta) -> CoeffExpr:
    """Legendre coefficient with the factorial correction series folded in.

    psiplus_k = sum_{i<=k} e_i psi_{k-i} with e_i the exact Stirling
    reciprocal coefficients; the sign-alternating series reuses the same
    combination because e_i carries parity (-1)^i under n -> -n.
    """
    _check_k(k)
    kern = _kernel(g, zeta)
    with kern._lock:
        cached = kern._psi_plus.get(k)
        if cached is not None:
            return cached
    e = stirling_exp_coefficients(k)
    chain = [psi(i, g, zeta) for i in range(k + 1)]
    result = _plus_combine(chain, k, e)
    with kern._lock:
        kern._psi_plus[k] = result
    return result


def psi_bar_plus(k: int, g, zeta) -> CoeffExpr:
    """Derivative-side analogue of psi_plus."""
    _check_k(k)
    kern = _kernel(g, zeta)
    with kern._lock:
        cached = kern._psi_bar_plus.get(k)
        if cached is not None:
            return cached
    e = stirling_exp_coefficients(k)
    chain = [psi_bar(i, g, zeta) for i in range(k + 1)]
    result = _plus_combine(chain, k, e)
    with kern._lock:
        kern._psi_bar_plus[k] = result
    return result
