"""Uniform large-order evaluation of a real Legendre-function pair.

The pair (p, q) solves

    (1 - x^2) y'' - 2 x y' - (n^2 g + n^2/(1 - x^2) + 2 xi) y = 0,

normalized so that p ~ ((1-x)/2)^(n/2)/n! and
q ~ ((n-1)!/2)((1-x)/2)^(-n/2) as x -> 1, with Wronskian
p q' - p' q = 1/(1-x^2).  Evaluation goes through the variable
v = x/sqrt(1 + g(1-x^2)) and exact coefficient functions psi_k(v);
kinds dp/dq return (1/n) d/dx of the pair.

A second entry point evaluates the same series rearranged into the
modified-Bessel-like normal form on the cone parametrization
x = cos(theta), gamma = lambda/sin(theta), where the factorial is
replaced by its Stirling series and the coefficients pick up exact
Bernoulli-number corrections.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .bessel import t_of_lambda
from .errors import DomainError, UsageError
from .recurrences import (
    K_MAX,
    omega,
    psi,
    psi_bar,
    psi_bar_plus,
    psi_plus,
)

LEGENDRE_KINDS = ("p", "q", "dp", "dq")

_LOG_HUGE = 700.0
_SMALL_GAMMA_WARN = 0.05


def exact_params(gamma: float, xi: float) -> tuple[Fraction, Fraction]:
    """Exact (g, zeta) for a floating request: g = gamma^2 as a dyadic
    rational, zeta = xi - 1/8.  Keeps the kernel cache exact and finite."""
    _check_finite_params(gamma, xi)
    return Fraction(gamma) ** 2, Fraction(xi) - Fraction(1, 8)


def _check_finite_params(gamma: float, xi: float) -> None:
    if not (gamma > 0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(xi):
        raise DomainError(f"xi must be finite, got {xi}")


def _check_gamma(gamma: float) -> None:
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if gamma < _SMALL_GAMMA_WARN:
        warnings.warn(
            f"gamma = {gamma} is small; coefficient formulas carry 1/gamma^2 "
            "factors whose floating cancellation is delicate",
            RuntimeWarning,
            stacklevel=3,
        )


def v_of_x(x: float, gamma: float) -> float:
    """Argument map v = x/sqrt(1 + gamma^2 (1 - x^2)); odd, |v| <= |x| < 1."""
    if not -1.0 < x < 1.0:
        raise DomainError(f"x must satisfy |x| < 1, got {x}")
    _check_gamma(gamma)
    return x / math.sqrt(1.0 + gamma * gamma * (1.0 - x * x))


def mu_of(n: int, gamma: float, xi: float) -> complex:
    """Index mu = -1/2 + sqrt(1 - 8 xi - 4 n^2 gamma^2)/2 (principal root)."""
    if n < 1:
        raise DomainError(f"order n must be a positive integer, got {n}")
    disc = 1.0 - 8.0 * xi - 4.0 * (n * gamma) ** 2
    if disc >= 0.0:
        return complex(-0.5 + 0.5 * math.sqrt(disc), 0.0)
    root = cmath.sqrt(complex(disc, 0.0))
    if root.imag < 0:
        root = -root
    return -0.5 + 0.5 * root


def S_minus1(v: float, gamma: float) -> float:
    """Leading exponent profile in the v variable.

    S = ln[(1-v)/((1+v)(1+gamma^2))]/2 - gamma (arctan(gamma v) - arctan(gamma));
    strictly decreasing in v, -> -inf as v -> 1.
    """
    if not -1.0 < v < 1.0:
        raise DomainError(f"v must satisfy |v| < 1, got {v}")
    _check_gamma(gamma)
    return 0.5 * math.log(
        (1.0 - v) / ((1.0 + v) * (1.0 + gamma * gamma))
    ) - gamma * (math.atan(gamma * v) - math.atan(gamma))


@dataclass(frozen=True)
class LegendreParams:
    """Evaluation request for the pair (p, q) or its derivatives."""

    n: int
    gamma: float
    xi: float
    x: float
    m: int = 3
    kind: str = "p"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"order n must be a positive integer, got {self.n}")
        _check_finite_params(self.gamma, self.xi)
        if not -1.0 < self.x < 1.0:
            raise DomainError(f"x must satisfy |x| < 1, got {self.x}")
        if not 0 <= self.m <= K_MAX:
            raise UsageError(f"truncation m = {self.m} outside [0, {K_MAX}]")
        if self.kind not in LEGENDRE_KINDS:
            raise UsageError(
                f"kind must be one of {LEGENDRE_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class LegendreEval:
    """Assembled value: value * exp(log_scale or 0) is the function value."""

    value: float
    log_scale: float | None
    terms: list[float] = field(default_factory=list)
    v: float = 0.0
    s: float = 0.0

    @property
    def scaled(self) -> bool:
        return self.log_scale is not None

    def unscaled(self) -> float:
        if self.log_scale is None:
            return self.value
        return self.value * math.exp(self.log_scale)


def _assemble(
    log_pref: float,
    sign: float,
    terms: list[float],
    v: float,
    s: float,
    scaled: bool,
) -> LegendreEval:
    series = math.fsum(terms)
    if scaled or abs(log_pref) > _LOG_HUGE:
        return LegendreEval(sign * series, log_pref, terms, v, s)
    return LegendreEval(sign * series * math.exp(log_pref), None, terms, v, s)


def eval_legendre(p: LegendreParams, scaled: bool = False) -> LegendreEval:
    """Evaluate the truncated uniform expansion described by params.

    Derivative kinds dp/dq approximate the n-scaled derivative (1/n)*d/dx,
    so n*[p*dq - dp*q]*(1-x^2) tends to 1.
    """
    n, gamma, xi, m = p.n, p.gamma, p.xi, p.m
    g, zeta = exact_params(gamma, xi)
    v = v_of_x(p.x, gamma)
    s = S_minus1(v, gamma)
    gg = gamma * gamma
    ratio_log = math.log((1.0 + gg * v * v) / (1.0 + gg))

    if p.kind == "p":
        log_pref = -math.lgamma(n + 1) + 0.25 * ratio_log + n * s
        sign, base, coeff = 1.0, float(n), psi
    elif p.kind == "q":
        log_pref = math.lgamma(n) - math.log(2.0) + 0.25 * ratio_log - n * s
        sign, base, coeff = 1.0, float(-n), psi
    elif p.kind == "dp":
        log_pref = (
            -math.lgamma(n + 1)
            + 0.75 * ratio_log
            + math.log((1.0 + gg) / (1.0 - v * v))
            + n * s
        )
        sign, base, coeff = -1.0, float(n), psi_bar
    else:  # dq
        log_pref = (
            math.lgamma(n)
            - math.log(2.0)
            + 0.75 * ratio_log
            + math.log((1.0 + gg) / (1.0 - v * v))
            - n * s
        )
        sign, base, coeff = 1.0, float(-n), psi_bar

    terms = [
        coeff(k, g, zeta).eval(gamma, v) * base ** (-k) for k in range(m + 1)
    ]
    return _assemble(log_pref, sign, terms, v, s, scaled)


def _check_cone(lam: float, theta: float) -> None:
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if not 0.0 < theta < 0.5 * math.pi:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")


def eta_tilde(lam: float, theta: float) -> float:
    """Bessel-like exponent profile of the cone parametrization.

    Direct arrangement:

        ln[lam/(sqrt(1+lam^2) + cos theta)]
        - (lam/sin theta) [arctan(sin theta/lam) - arctan(tan theta/(lam t))]
        + 1.

    Approaches the Bessel profile eta(lam) as theta -> 0.
    """
    _check_cone(lam, theta)
    t = t_of_lambda(lam)
    root = 1.0 / t
    return (
        math.log(lam / (root + math.cos(theta)))
        - (lam / math.sin(theta))
        * (
            math.atan(math.sin(theta) / lam)
            - math.atan(math.tan(theta) / (lam * t))
        )
        + 1.0
    )


def eta_tilde_from_profile(lam: float, theta: float) -> float:
    """Equivalent arrangement via the v-map: S(v) + 1 + ln(lam/sin theta),
    with gamma = lam/sin theta and v = t cos theta."""
    _check_cone(lam, theta)
    gamma = lam / math.sin(theta)
    v = t_of_lambda(lam) * math.cos(theta)
    return S_minus1(v, gamma) + 1.0 + math.log(lam / math.sin(theta))


def eval_bessel_form(
    n: int,
    lam: float,
    theta: float,
    xi: float,
    m: int = 3,
    kind: str = "p",
    scaled: bool = False,
) -> LegendreEval:
    """Evaluate the Bessel-like rearrangement on the cone parametrization.

    Assembled mechanically from the plain expansion plus the exact
    Stirling series: the exponent is +-n (S + 1 - ln n) and the
    coefficients are the Bernoulli-corrected psi_k^+ (psibar_k^+ for the
    derivative kinds, whose sums start at k = 0 and whose q-line carries
    the inverse power, making the two entry points rearrangements of the
    same series).  Agrees with eval_legendre at gamma = lam/sin(theta),
    x = cos(theta) to relative O(n^-(m+1)).
    """
    _check_cone(lam, theta)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"order n must be a positive integer, got {n}")
    if not 0 <= m <= K_MAX:
        raise UsageError(f"truncation m = {m} outside [0, {K_MAX}]")
    if kind not in LEGENDRE_KINDS:
        raise UsageError(f"kind must be one of {LEGENDRE_KINDS}, got {kind!r}")

    gamma = lam / math.sin(theta)
    g, zeta = exact_params(gamma, xi)
    t = t_of_lambda(lam)
    v = t * math.cos(theta)
    s = S_minus1(v, gamma)
    expo = n * (s + 1.0 - math.log(n))

    if kind == "p":
        log_pref = 0.5 * math.log(t / (2.0 * math.pi * n)) + expo
        sign, base, coeff = 1.0, float(n), psi_plus
    elif kind == "q":
        log_pref = 0.5 * math.log(math.pi * t / (2.0 * n)) - expo
        sign, base, coeff = 1.0, float(-n), psi_plus
    elif kind == "dp":
        log_pref = (
            -0.5 * math.log(2.0 * math.pi * n * t)
            - 2.0 * math.log(math.sin(theta))
            + expo
        )
        sign, base, coeff = -1.0, float(n), psi_bar_plus
    else:  # dq
        log_pref = (
            0.5 * math.log(math.pi / (2.0 * n * t))
            - 2.0 * math.log(math.sin(theta))
            - expo
        )
        sign, base, coeff = 1.0, float(-n), psi_bar_plus

    terms = [
        coeff(k, g, zeta).eval(gamma, v) * base ** (-k) for k in range(m + 1)
    ]
    return _assemble(log_pref, sign, terms, v, s, scaled)


@dataclass(frozen=True)
class CrossRelationReport:
    """Numeric study of psi_k(0) at large gamma against omega_k(1)."""

    k: int
    psi_at_zero: float
    omega_at_one: float
    abs_gap: float
    observed_sign: int
    printed_sign: int

    @property
    def printed_sign_matches(self) -> bool:
        return self.observed_sign == self.printed_sign


def cross_relation_check(
    k: int, gamma_large: float, xi: float = 0.0
) -> CrossRelationReport:
    """Compare psi_k(0) in the large-gamma regime with omega_k(1).

    The magnitudes converge as gamma grows; the sign relation is
    reported as observed rather than assumed.
    """
    if gamma_large < 100.0:
        raise UsageError(f"gamma_large must be >= 100, got {gamma_large}")
    g, zeta = exact_params(gamma_large, xi)
    psi0 = psi(k, g, zeta).eval(gamma_large, 0.0)
    w1 = float(omega(k).value_at_one())
    gap = abs(abs(psi0) - abs(w1))
    sign_of = lambda u: (u > 0) - (u < 0)
    return CrossRelationReport(
        k=k,
        psi_at_zero=psi0,
        omega_at_one=w1,
        abs_gap=gap,
        observed_sign=sign_of(psi0) * sign_of(w1) if psi0 and w1 else 0,
        printed_sign=(-1) ** (k + 1),
    )
