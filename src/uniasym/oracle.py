"""High-precision reference values for both function families.

Ground truth, independent of the fast expansion evaluators: the first
Legendre-type solution p, and the second q = c p(-x) with the constant c
in closed form, from one real Gauss series and one logarithmic connection
series, each used only near the end where it converges fast; the
ascending series for I_n, and the integer-order series for K_n (DLMF
10.31.1).  Everything runs in arbitrary-precision arithmetic; every
series stops at a relative tail of 10^-dps and reports it as its error
estimate, and the two hypergeometric series raise PrecisionError when
their terms cancel more digits than their guard carries.  Orders of
magnitude slower than the expansion evaluators, by design.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp

from .errors import DomainError, PrecisionError, UsageError

ORACLE_DPS_ENV = "UNIASYM_ORACLE_DPS"

# |x| beyond which the Gauss series is too slow and the connection series
# about the nearer end takes over: for q above x = 0.9, for p below -0.9
_REFLECT_MAX = 0.9

# terms any one series may sum before it raises PrecisionError
MAX_TERMS = 2_000_000


@dataclass(frozen=True)
class OracleConfig:
    """Precision policy for all reference computations."""

    dps: int = 60

    def __post_init__(self):
        if self.dps < 30:
            raise UsageError(f"oracle precision must be >= 30 digits, got {self.dps}")

    @property
    def tol(self) -> mp.mpf:
        """Relative tail at which every series stops: 10^-dps."""
        return mp.mpf(10) ** (-self.dps)


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
    try:
        s = (n * gamma) ** 2 + 2.0 * xi
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise PrecisionError(
            f"series strength n^2 g + 2 xi overflows at n = {n}, gamma = {gamma}, xi = {xi}"
        )
    return s


def _safe_index(s) -> int:
    """Index past which the series terms keep one sign, j(j+1) > -s; no
    stopping test may pass before it, so it must lie within the budget."""
    safe = math.isqrt(int(max(0.0, -float(s)))) + 2
    if safe >= MAX_TERMS:
        raise PrecisionError(
            f"series terms change sign up to j = {float(safe):.3g}, beyond {MAX_TERMS} terms"
        )
    return safe


def _series_guard_digits(n: int, gamma: float, xi: float, x: float) -> int:
    """Extra working digits covering the hump of the Gauss series.

    Terms peak near exp(2 sqrt(|s| z)) before decaying, s = n^2 g + 2 xi.
    For s > 0 they keep one sign and the hump needs only exponent
    head-room; for s < 0 they alternate up to j ~ sqrt(-s) and cancel,
    losing about as many digits as the hump holds.
    """
    s = _series_strength(n, gamma, xi)
    z = (1.0 - x) / 2.0  # in (0, 1): every caller has |x| < 1
    guard = int(2.0 * math.sqrt(abs(s) * z) / math.log(10.0)) + 10
    if guard > 200_000:
        raise PrecisionError(
            f"series hump needs ~{guard} guard digits; parameter regime rejected"
        )
    return guard


def _check_cancellation(peak, total, cfg: OracleConfig, series: str) -> None:
    """Raise when the largest term outgrew the sum by more digits than the
    working precision carries beyond dps: the result lost them."""
    spare = mp.mp.dps - cfg.dps
    if peak > abs(total) * mp.mpf(10) ** spare:
        lost = mp.nstr(mp.log10(peak / abs(total)), 5) if total else "all"
        raise PrecisionError(f"{series} cancels {lost} digits, beyond its {spare} guard digits")


def _mu_mpc(n: int, gamma, xi) -> mp.mpc:
    disc = 1 - 8 * mp.mpf(xi) - 4 * (n * mp.mpf(gamma)) ** 2
    root = mp.sqrt(mp.mpc(disc, 0))
    if root.imag < 0:
        root = -root
    return mp.mpc(-0.5, 0) + root / 2


class _GaussSeries(NamedTuple):
    """Accumulated F, F', F'' of F(-mu, mu+1; n+1; z) at fixed z."""

    f: mp.mpf
    fz: mp.mpf
    fzz: mp.mpf
    tail_rel: float


def _gauss_series(n: int, gamma, xi, x, cfg: OracleConfig) -> _GaussSeries:
    """Sum the defining series at z = (1-x)/2 with the guard digits of its
    hump.  The term ratio (j(j+1) + s) z / ((j+n+1)(j+1)), s = n^2 g + 2 xi,
    is real for real and complex-conjugate index mu alike."""
    with mp.extradps(_series_guard_digits(n, gamma, xi, x)):
        z = (1 - mp.mpf(x)) / 2
        s = (n * mp.mpf(gamma)) ** 2 + 2 * mp.mpf(xi)
        safe_j = _safe_index(s)
        tol = cfg.tol

        term = f = peak = mp.mpf(1)
        fz = fzz = mp.mpf(0)
        j = 0
        small_streak = 0
        while True:
            term = term * ((j * (j + 1) + s) / ((j + n + 1) * (j + 1)) * z)
            j += 1
            f += term
            fz += j * term / z
            if j > 1:
                fzz += j * (j - 1) * term / (z * z)
            if j <= safe_j:  # beyond, the terms keep one sign and shrink
                peak = max(peak, abs(term))
            if abs(term) <= tol * abs(f) and j > safe_j:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
            if j >= MAX_TERMS:
                raise PrecisionError(f"series did not meet tolerance within {MAX_TERMS} terms")

        _check_cancellation(peak, f, cfg, "Gauss series")
        return _GaussSeries(f, fz, fzz, float(abs(term) / abs(f)))


def _p_parts(n: int, gamma, xi, x, cfg: OracleConfig):
    """Value, derivative and series data of p at the current precision."""
    xm = mp.mpf(x)
    ser = _gauss_series(n, gamma, xi, x, cfg)
    amp = mp.power((1 - xm) / (1 + xm), mp.mpf(n) / 2) / mp.factorial(n)
    one_minus_x2 = 1 - xm * xm
    value = amp * ser.f
    deriv = value * (-n / one_minus_x2) - amp * ser.fz / 2
    return value, deriv, amp, ser


def p_reference(n: int, gamma: float, xi: float, x, cfg: OracleConfig | None = None) -> OracleValue:
    """First-kind reference value from the Gauss series at z = (1-x)/2 or,
    below x = -0.9, where that converges like z^j -> 1, as q(-x)/c from the
    connection series; where c has a Gamma pole the Gauss series
    terminates and serves at every x.  x may be a float or an mpf carried
    at working precision."""
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    with mp.workdps(cfg.dps + 10):
        if x < -_REFLECT_MAX and not _c_has_pole(n, gamma, xi):
            c = _q_constant(n, gamma, xi)
            value, deriv, err = _q_connection(n, gamma, xi, -x, cfg)
            return OracleValue(value / c, -deriv / c, err)
        value, deriv, _, ser = _p_parts(n, gamma, xi, x, cfg)
        return OracleValue(+value, +deriv, ser.tail_rel)


def p_ode_residual(n: int, gamma: float, xi: float, x: float, cfg: OracleConfig | None = None) -> float:
    """Relative residual of the Gauss-series value in its defining equation.

    All three derivatives come from term-wise differentiated series, so
    this is an internal-consistency certificate of the oracle itself.
    """
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    with mp.workdps(cfg.dps + 10):
        xm = mp.mpf(x)
        one_minus_x2 = 1 - xm * xm
        value, deriv, amp, ser = _p_parts(n, gamma, xi, x, cfg)
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


def _c_has_pole(n: int, gamma: float, xi: float) -> bool:
    """Whether mu - n is a nonnegative integer, where c has a Gamma pole:
    p(x) and p(-x) are dependent there and the Gauss series terminates."""
    mu = _mu_mpc(n, gamma, xi)
    return mu.imag == 0 and mu.real >= n and mp.isint(mu.real)


def _q_reflection(n: int, gamma: float, xi: float, x, cfg: OracleConfig):
    """q = c p(-x) with p(-x) from the Gauss series at -x."""
    c = _q_constant(n, gamma, xi)
    pm, dm, _, ser = _p_parts(n, gamma, xi, -x, cfg)
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
    carried on both the working precision and the term tolerance.  That
    estimate holds for small w; the loop measures the cancellation it
    meets and raises PrecisionError when it exceeds the guard.
    """
    guard = 2 * _series_guard_digits(n, gamma, xi, x)
    with mp.extradps(guard):
        w = (1 - mp.mpf(x)) / 2
        s = (n * mp.mpf(gamma)) ** 2 + 2 * mp.mpf(xi)
        tol = cfg.tol * mp.mpf(10) ** (-guard)
        safe_k = _safe_index(s)

        g = dg = peak = mp.mpf(0)
        prod = mp.mpf(1)
        for k in range(n):
            term = prod * (-w) ** k * mp.factorial(n - 1 - k) / mp.factorial(k)
            g += term
            peak = max(peak, abs(term))
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
            peak = max(peak, size)
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
            if k >= MAX_TERMS:
                raise PrecisionError(
                    f"connection series did not meet tolerance within {MAX_TERMS} terms"
                )

        _check_cancellation(peak, g, cfg, "connection series")
        amp = ((1 - w) / w) ** (mp.mpf(n) / 2) / 2
        value = amp * g
        # d/dx = -(1/2) d/dw, and 1 - x^2 = 4 w (1 - w)
        deriv = value * n / (4 * w * (1 - w)) - amp * dg / 2
        return +value, +deriv, float(size / abs(g))


def _q_ode(n: int, gamma: float, xi: float, x, cfg: OracleConfig):
    """Transport q from 0 to x by adaptive Taylor integration of the ODE."""
    c = _q_constant(n, gamma, xi)
    p0, dp0, _, _ = _p_parts(n, gamma, xi, 0.0, cfg)
    gg = mp.mpf(gamma) ** 2
    xim = mp.mpf(xi)
    # odefun only marches forward, so track s = sign*t and flip derivatives.
    sign = 1 if x >= 0 else -1

    def rhs(s, y):
        t = sign * s
        one_minus_t2 = 1 - t * t
        coeff = (n * n) * gg + (n * n) / one_minus_t2 + 2 * xim
        return [sign * y[1], sign * (2 * t * y[1] + coeff * y[0]) / one_minus_t2]

    fn = mp.odefun(rhs, 0, [c * p0, -c * dp0])
    val, der = fn(sign * x)
    return val, der


def q_reference(
    n: int,
    gamma: float,
    xi: float,
    x,
    cfg: OracleConfig | None = None,
    method: str = "auto",
) -> OracleValue:
    """Second-kind reference value q(x) = c p(-x), c in closed form.

    method: "reflection" (Gauss series at -x; default for x <= 0.9),
    "connection" (series about x = 1; default beyond), or "ode" (Taylor
    transport from 0).  x may be a float or an mpf carried at working
    precision.
    """
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    if method not in ("auto", "reflection", "connection", "ode"):
        raise UsageError(f"unknown method {method!r}")
    if method == "auto":
        method = "reflection" if x <= _REFLECT_MAX else "connection"

    with mp.workdps(cfg.dps + 10):
        if _c_has_pole(n, gamma, xi):
            mu = mp.nstr(_mu_mpc(n, gamma, xi).real, 8)
            raise DomainError(f"the constant c in q = c p(-x) has a Gamma pole at mu = {mu}")
        if method == "reflection":
            value, deriv, err = _q_reflection(n, gamma, xi, x, cfg)
        elif method == "connection":
            value, deriv, err = _q_connection(n, gamma, xi, x, cfg)
        else:
            value, deriv = _q_ode(n, gamma, xi, x, cfg)
            err = 10.0 ** (-(cfg.dps - 10))
        return OracleValue(+value, +deriv, err)


def q_methods_gap(n: int, gamma: float, xi: float, x: float, cfg: OracleConfig | None = None) -> float:
    """Relative gap between the closed and ODE-transported q constructions."""
    cfg = cfg or default_config()
    a = q_reference(n, gamma, xi, x, cfg)
    b = q_reference(n, gamma, xi, x, cfg, method="ode")
    return float(abs(a.value - b.value) / abs(a.value))


# -- modified Bessel references -------------------------------------------

def _derivs(c, e, zm) -> list:
    """A term c = a z^e followed by its first two z-derivatives."""
    d1 = c * e / zm
    return [c, d1, d1 * (e - 1) / zm]


def _ascending(n: int, zm, tol):
    """One pass of the series in t_k = (z/2)^(n+2k) / (k! (n+k)!).

    Returns [I, I', I''] (DLMF 10.25.2), [S, S', S''] for the weighted sum
    S = sum (psi(k+1) + psi(n+k+1)) t_k of DLMF 10.31.1, and the last term
    with its weight.  The terms are positive; they stop at tol relative to
    the partial I.
    """
    quarter = zm * zm / 4
    t = (zm / 2) ** n / mp.factorial(n)
    w = mp.harmonic(n) - 2 * mp.euler  # psi(1) + psi(n+1)
    i = _derivs(t, n, zm)
    s = [w * v for v in i]
    for k in range(1, MAX_TERMS + 1):
        t *= quarter / (k * (n + k))
        w += mp.mpf(n + 2 * k) / (k * (n + k))  # 1/k + 1/(n+k)
        for j, dt in enumerate(_derivs(t, n + 2 * k, zm)):
            i[j] += dt
            s[j] += w * dt
        if t <= tol * i[0]:
            return i, s, t, w
    raise PrecisionError("ascending Bessel series did not converge within budget")


def _besselK_series(n: int, z: float, cfg: OracleConfig):
    """[K_n, K_n', K_n''] and the relative tail by DLMF 10.31.1,

        K_n = (1/2) sum_{k<n} (n-k-1)!/k! (-z^2/4)^k (z/2)^(-n)
              + (-1)^n (S/2 - ln(z/2) I_n).

    I_n grows like e^z while K_n falls like e^-z, so the parts cancel by
    about e^(2z): that many guard digits go on the working precision and
    on the stop tolerance.
    """
    guard = int(2 * z / math.log(10.0)) + 10
    with mp.workdps(cfg.dps + guard):
        zm = mp.mpf(z)
        i, s, t, w = _ascending(n, zm, cfg.tol * mp.mpf(10) ** (-guard))
        ln_half = mp.log(zm / 2)
        ln_i = [ln_half * i[0], ln_half * i[1] + i[0] / zm,
                ln_half * i[2] + (2 * i[1] - i[0] / zm) / zm]
        sign = -1 if n % 2 else 1
        k_n = [sign * (sv / 2 - lv) for sv, lv in zip(s, ln_i)]
        c = mp.factorial(n - 1) / (zm / 2) ** n / 2 if n else 0
        for k in range(n):
            if k:
                c *= -zm * zm / (4 * k * (n - k))
            for j, dc in enumerate(_derivs(c, 2 * k - n, zm)):
                k_n[j] += dc
        return k_n, float(t * (abs(ln_half) + abs(w)) / k_n[0])


def _check_order_and_argument(n: int, z: float) -> None:
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    if not (z > 0 and math.isfinite(z)):
        raise DomainError(f"argument must be positive and finite, got {z}")


def _bessel_ode_residual(n: int, z: float, w) -> float:
    """Relative residual of [w, w', w''] in w'' + w'/z - (1 + n^2/z^2) w = 0."""
    zm = mp.mpf(z)
    parts = (w[2], w[1] / zm, -(1 + (n / zm) ** 2) * w[0])
    return float(abs(mp.fsum(parts)) / mp.fsum(parts, absolute=True))


def besselI_reference(n: int, z: float, cfg: OracleConfig | None = None) -> OracleValue:
    """I_n(z) by the ascending series, derivative term-wise in the same pass."""
    cfg = cfg or default_config()
    if z == 0 and n >= 0:  # the series' constant term; I_1'(0) = 1/2
        return OracleValue(mp.mpf(n == 0), mp.mpf(0.5 if n == 1 else 0), 0.0)
    _check_order_and_argument(n, z)
    # positive terms: ten guard digits cover the rounding of the sum
    with mp.workdps(cfg.dps + 10):
        (i, di, _), _, t, _ = _ascending(n, mp.mpf(z), cfg.tol)
        return OracleValue(i, di, float(t / i))


def besselK_reference(n: int, z: float, cfg: OracleConfig | None = None) -> OracleValue:
    """K_n(z) and K_n'(z) by the integer-order series DLMF 10.31.1, the
    derivative term-wise in the same pass; err_estimate is its tail."""
    cfg = cfg or default_config()
    _check_order_and_argument(n, z)
    (value, deriv, _), err = _besselK_series(n, z, cfg)
    return OracleValue(value, deriv, err)


def besselI_ode_residual(n: int, z: float, cfg: OracleConfig | None = None) -> float:
    """Relative residual of the I-series in w'' + w'/z - (1 + n^2/z^2) w = 0."""
    cfg = cfg or default_config()
    _check_order_and_argument(n, z)
    with mp.workdps(cfg.dps + 10):
        return _bessel_ode_residual(n, z, _ascending(n, mp.mpf(z), cfg.tol)[0])


def besselK_ode_residual(n: int, z: float, cfg: OracleConfig | None = None) -> float:
    """Residual in the same equation of the K-series of DLMF 10.31.1, whose
    value and two derivatives all come term-wise from one pass at any z."""
    cfg = cfg or default_config()
    _check_order_and_argument(n, z)
    with mp.workdps(cfg.dps + 10):
        return _bessel_ode_residual(n, z, _besselK_series(n, z, cfg)[0])


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
