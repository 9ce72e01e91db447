"""Uniform large-order evaluation of modified Bessel functions.

Evaluates I_n(n*lam), K_n(n*lam) and their derivatives with respect to
the full argument z = n*lam, through truncated series in inverse powers
of the order n with polynomial coefficients w_k(t), t = 1/sqrt(1+lam^2).
Accuracy improves with n at fixed truncation depth m.

The series assembler and the kind table here are shared with the
Legendre evaluators, whose Bessel-like normal form carries the same
prefactors (see `uniasym.legendre`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, UsageError
from .recurrences import K_MAX, omega, omega_bar

BESSEL_KINDS = ("I", "K", "dI", "dK")

# exp() overflow guard: stay clear of the float64 exponent limit
_LOG_HUGE = 700.0

# kind -> (sign, second solution, derivative series, log prefactor(n, t, dlog)).
# The second solution takes the exponent -n*profile and inverse powers of -n;
# dlog is ln(lam) for I/K and 2 ln(sin theta) for the Legendre normal form.
KIND_TABLE = {
    "I": (1.0, False, False, lambda n, t, dlog: 0.5 * math.log(t / (2.0 * math.pi * n))),
    "K": (1.0, True, False, lambda n, t, dlog: 0.5 * math.log(math.pi * t / (2.0 * n))),
    "dI": (1.0, False, True,
           lambda n, t, dlog: -0.5 * math.log(2.0 * math.pi * n * t) - dlog),
    "dK": (-1.0, True, True,
           lambda n, t, dlog: 0.5 * math.log(math.pi / (2.0 * n * t)) - dlog),
}


def check_request(n: int, m: int, kind: str, kinds: tuple[str, ...]) -> None:
    """Validate the order n, the truncation m and the kind of an evaluation."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"order n must be a positive integer, got {n}")
    if n > 2**53:
        raise DomainError("order n must not exceed 2**53, the exact range of a float")
    if not 0 <= m <= K_MAX:
        raise UsageError(f"truncation m = {m} outside [0, {K_MAX}]")
    if kind not in kinds:
        raise UsageError(f"kind must be one of {kinds}, got {kind!r}")


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
        check_request(self.n, self.m, self.kind, BESSEL_KINDS)
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class SeriesEval:
    """Assembled value: value * exp(log_scale or 0) is the function value.

    `arg` is the series variable (t for Bessel, v for Legendre) and
    `profile` the exponent profile (eta for Bessel, S for Legendre).
    """

    value: float
    log_scale: float | None
    terms: list[float] = field(default_factory=list)
    arg: float = 0.0
    profile: float = 0.0

    @property
    def scaled(self) -> bool:
        return self.log_scale is not None

    def unscaled(self) -> float:
        if self.log_scale is None:
            return self.value
        return self.value * math.exp(self.log_scale)


def assemble(log_pref, sign, base, coeff_at, m, arg, profile, scaled) -> SeriesEval:
    """Sum the truncated series sign * sum_k coeff_at(k) * base^-k, k <= m,
    times exp(log_pref), which is kept apart as the log scale when asked
    for or when exp() would overflow or underflow."""
    terms = [coeff_at(k) * base ** (-k) for k in range(m + 1)]
    series = math.fsum(terms)
    if scaled or abs(log_pref) > _LOG_HUGE:
        value, log_scale = sign * series, log_pref
    else:
        value, log_scale = sign * series * math.exp(log_pref), None
    if not (math.isfinite(value) and math.isfinite(log_pref)):
        raise DomainError(
            f"the series does not fit a float here: value {value}, log scale {log_pref}"
        )
    return SeriesEval(value, log_scale, terms, arg, profile)


def eval_bessel(p: BesselParams, scaled: bool = False) -> SeriesEval:
    """Evaluate the truncated expansion described by params.

    Kinds dI/dK approximate dI_n/dz and dK_n/dz at z = n*lam.  The result
    is value * exp(log_scale); log_scale is None unless scaling was
    requested or needed to dodge overflow/underflow of exp(n*eta).
    """
    n, lam = p.n, p.lam
    t = t_of_lambda(lam)
    et = eta(lam)
    sign, second, deriv, prefactor = KIND_TABLE[p.kind]
    pre = prefactor(n, t, math.log(lam) if deriv else 0.0)
    log_pref = pre - n * et if second else pre + n * et
    coeff = omega_bar if deriv else omega
    return assemble(log_pref, sign, float(-n if second else n),
                    lambda k: coeff(k).eval(1.0, t), p.m, t, et, scaled)
