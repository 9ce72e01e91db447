"""High-precision reference values for both function families.

Ground truth, independent of the fast expansion evaluators: Gauss-series
evaluation of the first Legendre-type solution p (complex arithmetic with
a realness certificate), the second solution q = c p(-x) with the
constant c in closed form and p(-x) from the Gauss series at -x or, near
x = 1, from the logarithmic connection series, the ascending series for
I_n, and tanh-sinh quadrature for K_n.  Everything runs in
arbitrary-precision arithmetic with explicit error estimates.  Orders of
magnitude slower than the expansion evaluators, by design.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import mpmath as mp

from .errors import DomainError, IntegrityError, PrecisionError, UsageError

ORACLE_DPS_ENV = "UNIASYM_ORACLE_DPS"

# x beyond which the Gauss series at -x for q becomes too slow and the
# connection series about x = 1 takes over
_REFLECT_MAX = 0.9


@dataclass(frozen=True)
class OracleConfig:
    """Precision policy for all reference computations."""

    dps: int = 60
    series_tol: float = 1e-40
    max_terms: int = 2_000_000
    ode_tol: float | None = None

    def __post_init__(self):
        if self.dps < 30:
            raise UsageError(f"oracle precision must be >= 30 digits, got {self.dps}")
        if self.series_tol <= 0:
            raise UsageError("series tolerance must be positive")
        if self.max_terms < 1:
            raise UsageError("max_terms must be positive")
        if self.ode_tol is not None and self.ode_tol <= 0:
            raise UsageError("ODE tolerance must be positive")


def default_config() -> OracleConfig:
    """Config honoring the UNIASYM_ORACLE_DPS environment override."""
    dps = os.environ.get(ORACLE_DPS_ENV)
    if dps:
        try:
            return OracleConfig(dps=int(dps))
        except ValueError:
            raise UsageError(f"{ORACLE_DPS_ENV} must be an integer, got {dps!r}") from None
    return OracleConfig()


@dataclass(frozen=True)
class OracleValue:
    """A reference value with its derivative and a relative error estimate."""

    value: mp.mpf
    derivative: mp.mpf
    err_estimate: float


def _validate_point(n: int, gamma: float, xi: float, x) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"order n must be a positive integer, got {n}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(xi):
        raise DomainError(f"xi must be finite, got {xi}")
    if not -1.0 < x < 1.0:
        raise DomainError(f"x must satisfy |x| < 1, got {x}")


def _series_strength(n: int, gamma: float, xi: float) -> float:
    """The real combination (j - mu)(j + 1 + mu) - j(j+1) = n^2 g + 2 xi."""
    return (n * gamma) ** 2 + 2.0 * xi


def _series_guard_digits(n: int, gamma: float, xi: float, x: float) -> int:
    """Extra working digits covering the hump of the all-positive series.

    Terms peak near exp(2 sqrt(s z)) before decaying, s = n^2 g + 2 xi.
    With positive terms there is no cancellation, only exponent head-room.
    """
    s = _series_strength(n, gamma, xi)
    z = (1.0 - x) / 2.0
    if s <= 0 or z <= 0:
        return 10
    guard = int(2.0 * math.sqrt(s * z) / math.log(10.0)) + 10
    if guard > 200_000:
        raise PrecisionError(
            f"series hump needs ~{guard} guard digits; parameter regime rejected"
        )
    return max(10, guard)


def _mu_mpc(n: int, gamma, xi) -> mp.mpc:
    disc = 1 - 8 * mp.mpf(xi) - 4 * (n * mp.mpf(gamma)) ** 2
    root = mp.sqrt(mp.mpc(disc, 0))
    if root.imag < 0:
        root = -root
    return mp.mpc(-0.5, 0) + root / 2


class _GaussSeries:
    """Accumulated F, F', F'' of F(-mu, mu+1; n+1; z) at fixed z."""

    __slots__ = ("f", "fz", "fzz", "tail_rel", "imag_rel", "terms_used")

    def __init__(self, f, fz, fzz, tail_rel, imag_rel, terms_used):
        self.f = f
        self.fz = fz
        self.fzz = fzz
        self.tail_rel = tail_rel
        self.imag_rel = imag_rel
        self.terms_used = terms_used


def _gauss_series(
    n: int, gamma, xi, x, cfg: OracleConfig, complex_path: bool
) -> _GaussSeries:
    """Sum the defining series at z = (1-x)/2 in the current precision.

    The term ratio (j(j+1) + n^2 g + 2 xi) z / ((j+n+1)(j+1)) is real even
    for complex index; the complex path carries mu explicitly and records
    the relative imaginary residue as a realness certificate.
    """
    z = (1 - mp.mpf(x)) / 2
    s = (n * mp.mpf(gamma)) ** 2 + 2 * mp.mpf(xi)
    safe_j = math.isqrt(int(max(0.0, -float(s)))) + 2
    tol = mp.mpf(cfg.series_tol)

    if complex_path:
        mu = _mu_mpc(n, gamma, xi)
        term = mp.mpc(1, 0)
        f = mp.mpc(1, 0)
    else:
        term = mp.mpf(1)
        f = mp.mpf(1)
    fz = f * 0
    fzz = f * 0

    j = 0
    small_streak = 0
    while True:
        if complex_path:
            ratio = (j - mu) * (j + 1 + mu) / ((j + n + 1) * (j + 1)) * z
        else:
            ratio = (j * (j + 1) + s) / ((j + n + 1) * (j + 1)) * z
        term = term * ratio
        j += 1
        f += term
        fz += j * term / z
        if j > 1:
            fzz += j * (j - 1) * term / (z * z)
        if abs(term) <= tol * abs(f) and j > safe_j:
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
        if j >= cfg.max_terms:
            raise PrecisionError(
                f"series did not meet tolerance within {cfg.max_terms} terms"
            )

    tail_rel = float(abs(term) / abs(f))
    if complex_path:
        scale = abs(f)
        imag_rel = float(
            (abs(f.imag) + abs(fz.imag) / (1 + abs(fz))) / scale
        )
        return _GaussSeries(f.real, fz.real, fzz.real, tail_rel, imag_rel, j)
    return _GaussSeries(f, fz, fzz, tail_rel, 0.0, j)


def _p_parts(n: int, gamma, xi, x, cfg: OracleConfig, complex_path: bool):
    """Value, derivative and series data of p at the current precision."""
    xm = mp.mpf(x)
    ser = _gauss_series(n, gamma, xi, x, cfg, complex_path)
    amp = mp.power((1 - xm) / (1 + xm), mp.mpf(n) / 2) / mp.factorial(n)
    one_minus_x2 = 1 - xm * xm
    value = amp * ser.f
    deriv = value * (-n / one_minus_x2) - amp * ser.fz / 2
    return value, deriv, amp, ser


def p_reference(n: int, gamma: float, xi: float, x, cfg: OracleConfig | None = None) -> OracleValue:
    """First-kind reference value via the Gauss series in complex arithmetic.

    The imaginary residue of the complex-index evaluation is folded into
    err_estimate as a realness certificate; the returned value is the
    real part.  x may be a float or an mpf carried at working precision.
    """
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    guard = _series_guard_digits(n, gamma, xi, x)
    with mp.workdps(cfg.dps + guard):
        value, deriv, _, ser = _p_parts(n, gamma, xi, x, cfg, complex_path=True)
        return OracleValue(+value, +deriv, ser.tail_rel + ser.imag_rel)


def p_reference_paths(
    n: int, gamma: float, xi: float, x: float, cfg: OracleConfig | None = None
) -> tuple[OracleValue, OracleValue]:
    """Both series routes (complex-index and real-ratio) for route checks."""
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    guard = _series_guard_digits(n, gamma, xi, x)
    with mp.workdps(cfg.dps + guard):
        vc, dc, _, sc = _p_parts(n, gamma, xi, x, cfg, complex_path=True)
        vr, dr, _, sr = _p_parts(n, gamma, xi, x, cfg, complex_path=False)
        return (
            OracleValue(+vc, +dc, sc.tail_rel + sc.imag_rel),
            OracleValue(+vr, +dr, sr.tail_rel),
        )


def p_ode_residual(n: int, gamma: float, xi: float, x: float, cfg: OracleConfig | None = None) -> float:
    """Relative residual of the series value in its defining equation.

    All three derivatives come from term-wise differentiated series, so
    this is an internal-consistency certificate of the oracle itself.
    """
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    guard = _series_guard_digits(n, gamma, xi, x)
    with mp.workdps(cfg.dps + guard):
        xm = mp.mpf(x)
        one_minus_x2 = 1 - xm * xm
        value, deriv, amp, ser = _p_parts(n, gamma, xi, x, cfg, complex_path=True)
        # second derivative of amp(x) * F(z(x)), z = (1-x)/2
        second = (
            amp * ser.f * (n * n - 2 * n * xm) / one_minus_x2**2
            + amp * ser.fz * n / one_minus_x2
            + amp * ser.fzz / 4
        )
        coeff = (n * mp.mpf(gamma)) ** 2 + n * n / one_minus_x2 + 2 * mp.mpf(xi)
        residual = one_minus_x2 * second - 2 * xm * deriv - coeff * value
        scale = abs(one_minus_x2 * second) + abs(2 * xm * deriv) + abs(coeff * value)
        return float(abs(residual) / scale)


# -- second solution -----------------------------------------------------

def _q_constant(n: int, gamma: float, xi: float):
    """Constant c in q(x) = c p(-x), from the Wronskian of the Ferrers pair
    P^(-n)_mu(x), P^(-n)_mu(-x) (DLMF 14.2(iv)) set equal to 1/(1-x^2):

        c = Gamma(n - mu) Gamma(n + 1 + mu) / 2,

    real for both real and complex-conjugate index.
    """
    mu = _mu_mpc(n, gamma, xi)
    return mp.re(mp.gamma(n - mu) * mp.gamma(n + 1 + mu)) / 2


def _q_reflection(n: int, gamma: float, xi: float, x, cfg: OracleConfig):
    """q = c p(-x) with p(-x) from the Gauss series at -x."""
    c = _q_constant(n, gamma, xi)
    with mp.extradps(_series_guard_digits(n, gamma, xi, -x)):
        pm, dm, _, ser = _p_parts(n, gamma, xi, -x, cfg, complex_path=False)
    return c * pm, -c * dm, ser.tail_rel


def _q_connection(n: int, gamma: float, xi: float, x, cfg: OracleConfig):
    """q = c p(-x) with p(-x) from the connection series about x = 1.

    In w = (1-x)/2, F(-mu, mu+1; n+1; 1-w) is the degenerate case of
    DLMF 15.8.10, (n+1) - (-mu) - (mu+1) = n.  Its prefactor 1/(Gamma(n-mu)
    Gamma(n+1+mu)) is 1/(2c), so c cancels and, with s = n^2 g + 2 xi,

        q = ((1-w)/w)^(n/2) / 2 * [ sum_{k<n} P_k (-w)^k (n-1-k)!/k!
              - (-1)^n sum_{k>=0} P_(n+k) w^(n+k) (ln w + D_k)/(k! (n+k)!) ]

    where P_k = (-mu)_k (mu+1)_k = prod_{j<k} (j(j+1) + s) and
    D_k = psi(n-mu+k) + psi(n+1+mu+k) - psi(k+1) - psi(n+k+1), all real.
    The logarithmic terms rise like exp(2 sqrt(s w)) before they decay
    while q falls like its inverse, so twice the Gauss-series guard is
    carried on both the working precision and the term tolerance.
    """
    guard = 2 * _series_guard_digits(n, gamma, xi, x)
    with mp.extradps(guard):
        w = (1 - mp.mpf(x)) / 2
        s = (n * mp.mpf(gamma)) ** 2 + 2 * mp.mpf(xi)
        tol = mp.mpf(cfg.series_tol) * mp.mpf(10) ** (-guard)
        safe_k = math.isqrt(int(max(0.0, -float(s)))) + 2

        g = mp.mpf(0)
        dg = mp.mpf(0)
        prod = mp.mpf(1)
        for k in range(n):
            term = prod * (-w) ** k * mp.factorial(n - 1 - k) / mp.factorial(k)
            g += term
            dg += k * term / w
            prod *= k * (k + 1) + s

        mu = _mu_mpc(n, gamma, xi)
        # D_0, with psi(1) + psi(n+1) = H_n - 2 euler
        d = mp.re(mp.digamma(n - mu) + mp.digamma(n + 1 + mu)) + 2 * mp.euler - mp.harmonic(n)
        ln_w = mp.log(w)
        coef = -((-1) ** n) * prod * w**n / mp.factorial(n)
        k = 0
        small_streak = 0
        while True:
            a = ln_w + d
            g += coef * a
            dg += coef * ((n + k) * a + 1) / w
            size = abs(coef) * (1 + abs(a))
            if size <= tol * abs(g) and k > safe_k:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
            nk = n + k
            coef *= (nk * (nk + 1) + s) * w / ((k + 1) * (nk + 1))
            d += (2 * nk + 1) / (nk * (nk + 1) + s) - mp.mpf(1) / (k + 1) - mp.mpf(1) / (nk + 1)
            k += 1
            if k >= cfg.max_terms:
                raise PrecisionError(
                    f"connection series did not meet tolerance within {cfg.max_terms} terms"
                )

        amp = ((1 - w) / w) ** (mp.mpf(n) / 2) / 2
        value = amp * g
        # d/dx = -(1/2) d/dw, and 1 - x^2 = 4 w (1 - w)
        deriv = value * n / (4 * w * (1 - w)) - amp * dg / 2
        return +value, +deriv, float(size / abs(g))


def _q_ode(n: int, gamma: float, xi: float, x, cfg: OracleConfig):
    """Transport q from 0 to x by adaptive Taylor integration of the ODE."""
    c = _q_constant(n, gamma, xi)
    with mp.extradps(_series_guard_digits(n, gamma, xi, 0.0)):
        p0, dp0, _, _ = _p_parts(n, gamma, xi, 0.0, cfg, complex_path=False)
    gg = mp.mpf(gamma) ** 2
    xim = mp.mpf(xi)
    # odefun only marches forward, so track s = sign*t and flip derivatives.
    sign = 1 if x >= 0 else -1

    def rhs(s, y):
        t = sign * s
        one_minus_t2 = 1 - t * t
        coeff = (n * n) * gg + (n * n) / one_minus_t2 + 2 * xim
        return [sign * y[1], sign * (2 * t * y[1] + coeff * y[0]) / one_minus_t2]

    tol = mp.mpf(cfg.ode_tol) if cfg.ode_tol else None
    fn = mp.odefun(rhs, 0, [c * p0, -c * dp0], tol=tol)
    val, der = fn(sign * x)
    return val, der


def q_reference(
    n: int,
    gamma: float,
    xi: float,
    x,
    cfg: OracleConfig | None = None,
    method: str = "auto",
    cross_validate: bool = False,
) -> OracleValue:
    """Second-kind reference value q(x) = c p(-x), c in closed form.

    method: "reflection" (Gauss series at -x; default for x <= 0.9),
    "connection" (series about x = 1; default beyond), or "ode" (Taylor
    transport from 0).  x may be a float or an mpf carried at working
    precision.  With cross_validate=True the result is re-derived by ODE
    transport and the two must agree to 1e-25 (IntegrityError otherwise).
    """
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    if method not in ("auto", "reflection", "connection", "ode"):
        raise UsageError(f"unknown method {method!r}")
    if method == "auto":
        method = "reflection" if x <= _REFLECT_MAX else "connection"

    with mp.workdps(cfg.dps + 10):
        if method == "reflection":
            value, deriv, err = _q_reflection(n, gamma, xi, x, cfg)
        elif method == "connection":
            value, deriv, err = _q_connection(n, gamma, xi, x, cfg)
        else:
            value, deriv = _q_ode(n, gamma, xi, x, cfg)
            err = 10.0 ** (-(cfg.dps - 10))

        if cross_validate and method != "ode":
            vdps = min(cfg.dps, 35)
            with mp.workdps(vdps + 10):
                ode_val, _ = _q_ode(n, gamma, xi, x, cfg)
            gap = float(abs(ode_val - value) / abs(value))
            if gap > 1e-25:
                raise IntegrityError(
                    f"q constructions disagree: relative gap {gap:.3e}"
                )
        return OracleValue(+value, +deriv, err)


def q_methods_gap(n: int, gamma: float, xi: float, x: float, cfg: OracleConfig | None = None) -> float:
    """Relative gap between the closed and ODE-transported q constructions."""
    cfg = cfg or default_config()
    a = q_reference(n, gamma, xi, x, cfg)
    b = q_reference(n, gamma, xi, x, cfg, method="ode")
    return float(abs(a.value - b.value) / abs(a.value))


# -- modified Bessel references -------------------------------------------

def besselI_reference(n: int, z: float, cfg: OracleConfig | None = None) -> OracleValue:
    """I_n(z) by the ascending series, derivative term-wise in the same loop."""
    cfg = cfg or default_config()
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    if z < 0:
        raise DomainError(f"argument must be nonnegative, got {z}")
    if z == 0:
        # series constant term; I_n'(0) = 1/2 for n = 1, else 0
        return OracleValue(
            mp.mpf(1 if n == 0 else 0), mp.mpf(0.5 if n == 1 else 0), 0.0
        )
    guard = max(10, int(float(z) / math.log(10.0)) + 10)
    with mp.workdps(cfg.dps + guard):
        zm = mp.mpf(z)
        half = zm / 2
        term = half**n / mp.factorial(n)
        total = term
        dtotal = term * n / zm
        tol = mp.mpf(cfg.series_tol)
        j = 0
        while True:
            term = term * half * half / ((j + 1) * (n + j + 1))
            j += 1
            total += term
            dtotal += term * (n + 2 * j) / zm
            if term <= tol * total:
                break
            if j >= cfg.max_terms:
                raise PrecisionError("I-series did not converge within budget")
        return OracleValue(+total, +dtotal, float(term / total))


def _besselK_quad(n: int, zm, cfg: OracleConfig):
    """Integrate exp(-z cosh t) cosh(n t) over [0, T] with a bounded tail.

    T satisfies z (cosh T - 1) - n T >= (dps + 20) ln 10, so the dropped
    tail is below the reporting precision relative to exp(-z) <= K_n(z).
    The factor exp(-z) is taken out before integrating: mp.quad stops on
    an absolute error test, which an integrand of size exp(-z) would pass
    at once.
    """
    z = float(zm)
    need = (cfg.dps + 20) * math.log(10.0)
    t_top = math.acosh(1.0 + need / z)
    for _ in range(4):
        t_top = math.acosh(1.0 + (need + n * t_top) / z)
    integrand = lambda t: mp.exp(zm - zm * mp.cosh(t)) * mp.cosh(n * t)
    split = min(t_top / 2, math.asinh(n / z) + 1.0)
    val, err = mp.quad(integrand, [0, split, t_top], error=True)
    # bound on the part of the integral past T
    tail = mp.exp(zm - zm * mp.cosh(t_top) + n * t_top) / zm
    scale = mp.exp(-zm)
    val, err = scale * val, scale * (err + tail)
    if not mp.isfinite(val) or (val > 0 and err / val > mp.mpf(10) ** (-cfg.dps // 2)):
        raise PrecisionError(f"K quadrature failed to converge (err {err})")
    return val, err


def besselK_reference(n: int, z: float, cfg: OracleConfig | None = None) -> OracleValue:
    """K_n(z) by tanh-sinh quadrature of exp(-z cosh t) cosh(n t).

    The derivative uses K'_n = -(K_(n-1) + K_(n+1))/2 via two more
    quadratures of the same integral family.
    """
    cfg = cfg or default_config()
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    if z <= 0:
        raise DomainError(f"argument must be positive, got {z}")
    with mp.workdps(cfg.dps + 10):
        zm = mp.mpf(z)
        val, err = _besselK_quad(n, zm, cfg)
        km, em = _besselK_quad(abs(n - 1), zm, cfg)
        kp, ep = _besselK_quad(n + 1, zm, cfg)
        deriv = -(km + kp) / 2
        rel = float((err + em + ep) / val)
        return OracleValue(+val, +deriv, rel)


def besselI_ode_residual(n: int, z: float, cfg: OracleConfig | None = None) -> float:
    """Relative residual of the I-series in w'' + w'/z - (1 + n^2/z^2) w = 0."""
    cfg = cfg or default_config()
    if z <= 0:
        raise DomainError(f"argument must be positive, got {z}")
    guard = max(10, int(float(z) / math.log(10.0)) + 10)
    with mp.workdps(cfg.dps + guard):
        zm = mp.mpf(z)
        half = zm / 2
        term = half**n / mp.factorial(n)
        f = term
        f1 = term * n / zm
        f2 = term * n * (n - 1) / (zm * zm)
        tol = mp.mpf(cfg.series_tol)
        j = 0
        while True:
            term = term * half * half / ((j + 1) * (n + j + 1))
            j += 1
            a = n + 2 * j
            f += term
            f1 += term * a / zm
            f2 += term * a * (a - 1) / (zm * zm)
            if term <= tol * f:
                break
            if j >= cfg.max_terms:
                raise PrecisionError("I-series did not converge within budget")
        residual = f2 + f1 / zm - (1 + (n / zm) ** 2) * f
        scale = abs(f2) + abs(f1 / zm) + abs((1 + (n / zm) ** 2) * f)
        return float(abs(residual) / scale)


def besselK_ode_residual(n: int, z: float, cfg: OracleConfig | None = None) -> float:
    """Residual of the quadrature K-family in the same equation.

    Second derivative via K'' = (K_(n-2) + 2 K_n + K_(n+2))/4, making the
    check a mutual-consistency certificate across five quadratures.
    """
    cfg = cfg or default_config()
    if z <= 0:
        raise DomainError(f"argument must be positive, got {z}")
    with mp.workdps(cfg.dps + 10):
        zm = mp.mpf(z)
        ks = {}
        for k in (n - 2, n - 1, n, n + 1, n + 2):
            ks[k], _ = _besselK_quad(abs(k), zm, cfg)
        f = ks[n]
        f1 = -(ks[n - 1] + ks[n + 1]) / 2
        f2 = (ks[n - 2] + 2 * ks[n] + ks[n + 2]) / 4
        residual = f2 + f1 / zm - (1 + (n / zm) ** 2) * f
        scale = abs(f2) + abs(f1 / zm) + abs((1 + (n / zm) ** 2) * f)
        return float(abs(residual) / scale)


def legendre_wronskian_residual(
    n: int, gamma: float, xi: float, x: float, cfg: OracleConfig | None = None
) -> float:
    """|(1 - x^2)(p q' - p' q) - 1| for the oracle pair."""
    cfg = cfg or default_config()
    pv = p_reference(n, gamma, xi, x, cfg)
    qv = q_reference(n, gamma, xi, x, cfg)
    with mp.workdps(cfg.dps):
        w = (1 - mp.mpf(x) ** 2) * (
            pv.value * qv.derivative - pv.derivative * qv.value
        )
        return float(abs(w - 1))


# -- limiting cross-check ---------------------------------------------------

@dataclass(frozen=True)
class LimitBesselReport:
    """Gaps between the scaled Legendre pair and the Bessel pair at one angle."""

    theta: float
    lam: float
    n: int
    p_gap: float
    q_gap: float
    p_scaled: float
    i_value: float
    q_scaled: float
    k_value: float


def limit_check_bessel(
    n: int, lam: float, theta: float, cfg: OracleConfig | None = None
) -> LimitBesselReport:
    """Compare |mu|^n p(cos theta) with I_n(n lam) and the q side with K_n.

    Uses xi = 0; |mu| = sqrt(n^2 g + 2 xi) exactly.  Gaps shrink as theta
    decreases at fixed lam.
    """
    cfg = cfg or default_config()
    if theta <= 0 or lam <= 0:
        raise DomainError("theta and lambda must be positive")
    gamma = lam / math.sin(theta)
    # cos theta in floats would carry ~1e-16 / theta^2 relative error in 1 - x
    with mp.workdps(cfg.dps + 10):
        x = mp.cos(mp.mpf(theta))
    pv = p_reference(n, gamma, 0.0, x, cfg)
    qv = q_reference(n, gamma, 0.0, x, cfg)
    iv = besselI_reference(n, n * lam, cfg)
    kv = besselK_reference(n, n * lam, cfg)
    with mp.workdps(cfg.dps):
        mu_abs = mp.sqrt((n * mp.mpf(gamma)) ** 2)  # xi = 0
        p_scaled = mu_abs**n * pv.value
        q_scaled = mu_abs ** (-n) * qv.value
        p_gap = float(abs(p_scaled - iv.value) / iv.value)
        q_gap = float(abs(q_scaled - kv.value) / kv.value)
        return LimitBesselReport(
            theta=theta,
            lam=lam,
            n=n,
            p_gap=p_gap,
            q_gap=q_gap,
            p_scaled=float(p_scaled),
            i_value=float(iv.value),
            q_scaled=float(q_scaled),
            k_value=float(kv.value),
        )
