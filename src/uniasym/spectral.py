"""Numeric cross-check of the coefficient recurrences in Chebyshev series.

Each coefficient function is a Chebyshev series on [v_lo, 1].  The
polynomial weights, the derivative and the anchored antiderivative act
exactly on the coefficients; only f/(1 + g v^2) is resampled, once per
Legendre step.  Its coefficients fall like rho^-j, rho the radius of the
Bernstein ellipse through the pole v = i/gamma (Trefethen, Approximation
Theory and Approximation Practice, Thm 8.1), so the degree that resolves
it to machine precision follows from gamma and is never searched for.
Used to cross-check the exact kernel, not to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import DomainError, ResolutionError, UsageError

# Largest resampling degree; the pole bound reaches it near gamma = 110.
MAX_DEGREE = 4096
DEFAULT_V_LO = -0.999
FAMILIES = ("bessel", "legendre")
_DIGITS = math.log(1.0 / np.finfo(float).eps)


def lobatto_nodes(n: int, lo: float, hi: float = 1.0) -> np.ndarray:
    """Chebyshev-Lobatto nodes on [lo, hi], descending from hi to lo."""
    s = np.cos(np.pi * np.arange(n) / (n - 1))
    return (hi + lo) / 2 + (hi - lo) / 2 * s


@dataclass(frozen=True, eq=False)
class SpectralCoeff:
    """A coefficient function as a Chebyshev series on [v_lo, 1]."""

    series: Chebyshev
    gamma: float
    xi: float

    def __post_init__(self):
        lo, hi = self.series.domain
        if hi != 1.0 or not -1.0 <= lo < 1.0:
            raise DomainError(f"domain must be [v_lo, 1] with v_lo in [-1, 1), got [{lo}, {hi}]")
        if not np.all(np.isfinite(self.series.coef)):
            raise DomainError("non-finite series coefficients")
        if not self.gamma > 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")

    @property
    def v_lo(self) -> float:
        return float(self.series.domain[0])

    def eval(self, v):
        """Value of the series at v, a point or an array of points."""
        v_arr = np.asarray(v, dtype=float)
        if np.any(v_arr < self.v_lo - 1e-12) or np.any(v_arr > 1.0 + 1e-12):
            raise DomainError("evaluation point outside the spectral domain")
        out = self.series(v_arr)
        return out if np.ndim(v) else float(out)


def _resample_degree(s: SpectralCoeff) -> int:
    """Degree that resolves s/(1 + g v^2) to machine precision: eight past
    where rho^-j reaches the unit roundoff, and never below deg s."""
    lo = s.v_lo
    pole = (2j / s.gamma - (1.0 + lo)) / (1.0 - lo)
    root = np.sqrt(pole * pole - 1.0)
    rho = max(abs(pole + root), abs(pole - root))
    need = _DIGITS / math.log(rho) + 8 if rho > 1.0 else math.inf
    deg = max(need, s.series.degree())
    if deg > MAX_DEGREE:
        raise ResolutionError(
            f"gamma = {s.gamma} needs degree {deg:.0f} above MAX_DEGREE = {MAX_DEGREE}"
        )
    return math.ceil(deg)


def spectral_step(s_k: SpectralCoeff, family: str) -> SpectralCoeff:
    """One recurrence step; the Bessel step is exact polynomial arithmetic."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    f = s_k.series
    v = Chebyshev.identity(domain=f.domain)
    if family == "bessel":
        if s_k.v_lo != 0.0:
            raise UsageError("bessel family runs on the domain [0, 1]")
        out = 0.5 * v**2 * (1 - v**2) * f.deriv() + ((1 - 5 * v**2) * f / 8.0).integ(lbnd=0.0)
        return SpectralCoeff(out, s_k.gamma, s_k.xi)

    deg = _resample_degree(s_k)
    gg = s_k.gamma**2
    zeta = s_k.xi - 0.125
    rational = Chebyshev.interpolate(lambda x: f(x) / (1 + gg * x**2), deg, domain=f.domain)
    out = (1 - v**2) * (1 + gg * v**2) / (2 * (1 + gg)) * f.deriv()
    out = out - gg / (8 * (1 + gg)) * ((5 * v**2 + 1 / gg - 1) * f).integ(lbnd=1.0)
    out = out - zeta * rational.integ(lbnd=1.0)
    return SpectralCoeff(out, s_k.gamma, s_k.xi)


def spectral_chain(family: str, gamma: float, xi: float, k_max: int) -> list[SpectralCoeff]:
    """Coefficient functions 0..k_max: on [0, 1] for the bessel family,
    on [DEFAULT_V_LO, 1] for the legendre family."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    if k_max < 0:
        raise UsageError(f"k_max must be nonnegative, got {k_max}")
    lo = 0.0 if family == "bessel" else DEFAULT_V_LO
    chain = [SpectralCoeff(Chebyshev([1.0], domain=[lo, 1.0]), gamma, xi)]
    for _ in range(k_max):
        chain.append(spectral_step(chain[-1], family))
    return chain
