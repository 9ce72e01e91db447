"""Uniform large-order evaluation of modified Bessel functions.

Evaluates I_n(n*lam), K_n(n*lam) and their derivatives with respect to
the full argument z = n*lam, through truncated series in inverse powers
of the order n with polynomial coefficients w_k(t), t = 1/sqrt(1+lam^2).
Accuracy improves with n at fixed truncation depth m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, UsageError
from .recurrences import K_MAX, omega, omega_bar

BESSEL_KINDS = ("I", "K", "dI", "dK")

# exp() overflow guard: stay clear of the float64 exponent limit
_LOG_HUGE = 700.0


def t_of_lambda(lam: float) -> float:
    """Map the scaled argument to t = 1/sqrt(1 + lam^2) in (0, 1]."""
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    return 1.0 / math.hypot(1.0, lam)


def eta(lam: float) -> float:
    """Exponent profile sqrt(1+lam^2) + ln(lam/(1+sqrt(1+lam^2)))."""
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    root = math.hypot(1.0, lam)
    return root + math.log(lam / (1.0 + root))


@dataclass(frozen=True)
class BesselParams:
    """Evaluation request for I/K at argument n*lam."""

    n: int
    lam: float
    m: int = 3
    kind: str = "I"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"order n must be a positive integer, got {self.n}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")
        if not 0 <= self.m <= K_MAX:
            raise UsageError(f"truncation m = {self.m} outside [0, {K_MAX}]")
        if self.kind not in BESSEL_KINDS:
            raise UsageError(f"kind must be one of {BESSEL_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class BesselEval:
    """Assembled value: value * exp(log_scale or 0) is the function value."""

    value: float
    log_scale: float | None
    terms: list[float] = field(default_factory=list)
    t: float = 0.0
    eta: float = 0.0

    @property
    def scaled(self) -> bool:
        return self.log_scale is not None

    def unscaled(self) -> float:
        if self.log_scale is None:
            return self.value
        return self.value * math.exp(self.log_scale)


def eval_bessel(p: BesselParams, scaled: bool = False) -> BesselEval:
    """Evaluate the truncated expansion described by params.

    Kinds dI/dK approximate dI_n/dz and dK_n/dz at z = n*lam.  The result
    is value * exp(log_scale); log_scale is None unless scaling was
    requested or needed to dodge overflow/underflow of exp(n*eta).
    """
    n, lam, m = p.n, p.lam, p.m
    t = t_of_lambda(lam)
    et = eta(lam)

    if p.kind == "I":
        log_pref = 0.5 * math.log(t / (2.0 * math.pi * n)) + n * et
        sign, base = 1.0, float(n)
        coeff = omega
    elif p.kind == "K":
        log_pref = 0.5 * math.log(math.pi * t / (2.0 * n)) - n * et
        sign, base = 1.0, float(-n)
        coeff = omega
    elif p.kind == "dI":
        log_pref = -0.5 * math.log(2.0 * math.pi * n * t) - math.log(lam) + n * et
        sign, base = 1.0, float(n)
        coeff = omega_bar
    else:  # dK
        log_pref = 0.5 * math.log(math.pi / (2.0 * n * t)) - math.log(lam) - n * et
        sign, base = -1.0, float(-n)
        coeff = omega_bar

    terms = [coeff(k).eval(1.0, t) * base ** (-k) for k in range(m + 1)]
    series = math.fsum(terms)

    if scaled or abs(log_pref) > _LOG_HUGE:
        return BesselEval(sign * series, log_pref, terms, t, et)
    return BesselEval(sign * series * math.exp(log_pref), None, terms, t, et)
