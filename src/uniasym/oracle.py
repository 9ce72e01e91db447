"""High-precision reference values for both function families.

Ground truth, independent of the fast expansion evaluators: the first
Legendre-type solution p, and the second q = c p(-x) with the constant c
in closed form, from one real Gauss series and one logarithmic connection
series, each used only near the end where it converges fast; the
ascending series for I_n, and the integer-order series for K_n (DLMF
10.31.1).  Everything runs in arbitrary-precision arithmetic, and one loop
sums every series: it carries the value and the first derivative, stops
once a geometric bound on the tail of both, as the caller assembles them,
is below 10^-dps of each, and reports that bound plus the rounding floor
as its error estimate.  It raises PrecisionError when the terms cancel
more digits than the guard carries.  Orders of magnitude slower than the
expansion evaluators, by design.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

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
    """A reference value with its derivative and a relative error estimate
    that bounds the error of both."""

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


def _check_cancellation(spread, total, cfg: OracleConfig, series: str) -> None:
    """Raise when the terms' spread outgrew the sum by more digits than the
    working precision carries beyond dps: the result lost them."""
    spare = mp.mp.dps - cfg.dps
    if spread > abs(total) * mp.mpf(10) ** spare:
        lost = mp.nstr(mp.log10(spread / abs(total)), 5) if total else "all"
        raise PrecisionError(f"{series} cancels {lost} digits, beyond its {spare} guard digits")


def _sum_series(steps, weights, safe: int, limit, cfg: OracleConfig, series: str):
    """Sum a series whose terms have several components, and assemble the
    value sum_i a_i S_i and the derivative sum_i b_i S_i of the component
    sums S_i, weights = (a, b).

    steps yields (terms, ratio): one term per component, and a ratio R_j
    that no component's next term ratio exceeds.  Past index safe, every
    component's terms keep one sign and no later ratio exceeds
    R = max(R_j, limit), so what is left of component i is at most
    |t_i| R/(1-R).  The sum stops once these tails, weighted like the sums,
    are at most 10^-dps of the value and of the derivative.  Returns the
    value, the derivative and the larger relative tail bound plus the
    rounding floor: the sums' rounding at the working precision, and the
    caller's rounding to dps + 10 digits.

    The loop tracks each component's largest term up to safe; past it the
    terms keep one sign, so no partial sum of component i exceeds
    peak_i + |S_i|.  Weighted like the value, these spreads over |value|
    measure what the sums and their assembly cancel: beyond the guard
    digits that raises PrecisionError, and below it they scale the
    rounding floor.
    """
    a, b = weights
    abs_a, abs_b = [abs(c) for c in a], [abs(c) for c in b]
    tol = cfg.tol
    # The value test needs share max|a_i t_i| <= tol |value|.  On the powers
    # of two of mp.mag, good to a factor 4, that is a cheap gate, with
    # |value| <= len(live) max|a_i S_i| or, after a failed test,
    # |value| + tail_v.
    live = [(i, mp.mag(c)) for i, c in enumerate(a) if c]
    gate = 4 - cfg.dps * math.log2(10)
    room = None
    sums = [mp.mpf(0)] * len(a)
    peaks = list(sums)
    for j, (terms, ratio) in enumerate(steps):
        if j >= MAX_TERMS:
            raise PrecisionError(f"{series} did not meet tolerance within {MAX_TERMS} terms")
        sums = [s + t for s, t in zip(sums, terms)]
        if j <= safe:
            peaks = [max(p, abs(t)) for p, t in zip(peaks, terms)]
        elif (big := max(abs(ratio), limit)) < 1:
            share = big / (1 - big)
            lead = max(m + mp.mag(terms[i]) for i, m in live)
            top = room if room is not None else (
                max(m + mp.mag(sums[i]) for i, m in live) + math.log2(len(live)))
            if share and lead - top > gate - math.log2(share):
                continue
            mags = [abs(t) for t in terms]
            value = mp.fdot(a, sums)
            tail_v = share * mp.fdot(abs_a, mags)
            room = mp.mag(abs(value) + tail_v)
            if tail_v <= tol * abs(value):
                deriv = mp.fdot(b, sums)
                tail_d = share * mp.fdot(abs_b, mags)
                if tail_d <= tol * abs(deriv):
                    break

    spread = [p + abs(s) for p, s in zip(peaks, sums)]
    _check_cancellation(mp.fdot(abs_a, spread), value, cfg, series)
    rounding = (j + 1) * mp.eps
    err = max(
        (tail + rounding * mp.fdot(w, spread)) / abs(total)
        for w, tail, total in ((abs_a, tail_v, value), (abs_b, tail_d, deriv))
    )
    return value, deriv, float(err) + 10.0 ** -(cfg.dps + 10)


def _mu_mpc(n: int, gamma, xi) -> mp.mpc:
    disc = 1 - 8 * mp.mpf(xi) - 4 * (n * mp.mpf(gamma)) ** 2
    root = mp.sqrt(mp.mpc(disc, 0))
    if root.imag < 0:
        root = -root
    return mp.mpc(-0.5, 0) + root / 2


def _gauss_steps(n: int, s, z):
    """Terms of F(-mu, mu+1; n+1; z) and of dF/dz.  The term ratio
    r_j = (j(j+1) + s) z / ((j+n+1)(j+1)) is real for real and
    complex-conjugate index mu alike.  Past j(j+1) > -s the ratios of F
    fall and rise back toward z, or only rise toward it, and those of
    dF/dz, r_j (j+1)/j, do the same, so max(r_j (j+1)/j, z) bounds every
    later ratio of both."""
    t = mp.mpf(1)
    for j in itertools.count():
        r = (j * (j + 1) + s) / ((j + n + 1) * (j + 1)) * z
        yield (t, j * t / z), float(r) * (j + 1) / max(j, 1)
        t *= r


def _gauss_series(n: int, gamma, xi, x, cfg: OracleConfig):
    """p and p' at x from the Gauss series at z = (1-x)/2, with the guard
    digits of its hump: p = amp F with amp = ((1-x)/(1+x))^(n/2)/n!, and
    dz/dx = -1/2."""
    with mp.extradps(_series_guard_digits(n, gamma, xi, x)):
        xm = mp.mpf(x)
        z = (1 - xm) / 2
        s = (n * mp.mpf(gamma)) ** 2 + 2 * mp.mpf(xi)
        amp = mp.power((1 - xm) / (1 + xm), mp.mpf(n) / 2) / mp.factorial(n)
        weights = ((amp, 0), (-amp * n / (1 - xm * xm), -amp / 2))
        steps = _gauss_steps(n, s, z)
        return _sum_series(steps, weights, _safe_index(s), float(z), cfg, "Gauss series")


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
        value, deriv, err = _gauss_series(n, gamma, xi, x, cfg)
        return OracleValue(+value, +deriv, err)


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
    pm, dm, err = _gauss_series(n, gamma, xi, -x, cfg)
    return c * pm, -c * dm, err


def _connection_steps(n: int, s, w, d):
    """Terms of the four sums that make up the connection series of
    _q_connection: B = sum C_k, D = sum C_k D_k, B' = sum (n+k) C_k and
    D' = sum C_k ((n+k) D_k + 1), C_k = -(-1)^n P_(n+k) w^(n+k)/(k! (n+k)!).
    The n terms of the finite sum come first, in D and D', and d is D_0.

    The ratio of C_k, r = (m(m+1) + s) w / ((k+1)(m+1)) with m = n+k,
    falls toward w for s >= 0, and D_k falls toward 0, so r (m+1)/m bounds
    every later ratio of all four.  For s < 0 it is an estimate: r may
    rise a little above w before it settles, and D_k need not fall.
    """
    prod = mp.mpf(1)
    for k in range(n):
        term = prod * (-w) ** k * mp.factorial(n - 1 - k) / mp.factorial(k)
        yield (0, term, 0, k * term), 0
        prod *= k * (k + 1) + s

    coef = -((-1) ** n) * prod * w**n / mp.factorial(n)
    for k in itertools.count():
        m = n + k
        r = (m * (m + 1) + s) * w / ((k + 1) * (m + 1))
        yield (coef, coef * d, coef * m, coef * (m * d + 1)), float(r) * (m + 1) / m
        coef *= r
        d += (2 * m + 1) / (m * (m + 1) + s) - mp.mpf(1) / (k + 1) - mp.mpf(1) / (m + 1)


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
    carried on the working precision.  That estimate holds for small w;
    the loop measures the cancellation it meets and raises PrecisionError
    when it exceeds the guard.
    """
    with mp.extradps(2 * _series_guard_digits(n, gamma, xi, x)):
        w = (1 - mp.mpf(x)) / 2
        s = (n * mp.mpf(gamma)) ** 2 + 2 * mp.mpf(xi)
        mu = _mu_mpc(n, gamma, xi)
        # D_0, with psi(1) + psi(n+1) = H_n - 2 euler
        d = mp.re(mp.digamma(n - mu) + mp.digamma(n + 1 + mu)) + 2 * mp.euler - mp.harmonic(n)
        ln_w = mp.log(w)
        amp = ((1 - w) / w) ** (mp.mpf(n) / 2) / 2
        # the bracket is ln_w B + D, its w-derivative (ln_w B' + D')/w; and
        # d/dx = -(1/2) d/dw, 1 - x^2 = 4 w (1 - w)
        e = n / (4 * w * (1 - w))
        weights = ((amp * ln_w, amp, 0, 0),
                   (amp * ln_w * e, amp * e, -amp * ln_w / (2 * w), -amp / (2 * w)))
        steps = _connection_steps(n, s, w, d)
        return _sum_series(steps, weights, n + _safe_index(s), float(w), cfg, "connection series")


def q_reference(
    n: int,
    gamma: float,
    xi: float,
    x,
    cfg: OracleConfig | None = None,
    method: str = "auto",
) -> OracleValue:
    """Second-kind reference value q(x) = c p(-x), c in closed form.

    method: "reflection" (Gauss series at -x; default for x <= 0.9) or
    "connection" (series about x = 1; default beyond).  Both stop on a
    bound on the tail of q and of q'.  x may be a float or an mpf carried
    at working precision.
    """
    cfg = cfg or default_config()
    _validate_point(n, gamma, xi, x)
    if method not in ("auto", "reflection", "connection"):
        raise UsageError(f"unknown method {method!r}")
    if method == "auto":
        method = "reflection" if x <= _REFLECT_MAX else "connection"

    with mp.workdps(cfg.dps + 10):
        if _c_has_pole(n, gamma, xi):
            mu = mp.nstr(_mu_mpc(n, gamma, xi).real, 8)
            raise DomainError(f"the constant c in q = c p(-x) has a Gamma pole at mu = {mu}")
        if method == "reflection":
            value, deriv, err = _q_reflection(n, gamma, xi, x, cfg)
        else:
            value, deriv, err = _q_connection(n, gamma, xi, x, cfg)
        return OracleValue(+value, +deriv, err)


# -- modified Bessel references -------------------------------------------

def _ascending_steps(n: int, zm):
    """Terms of I_n = sum t_k, t_k = (z/2)^(n+2k) / (k! (n+k)!) (DLMF
    10.25.2), and of I_n'.  Both factors of the ratio of I_n' terms,
    r = (z/2)^2 / ((k+1)(n+k+1)) and (n+2k+2)/(n+2k), fall, so their
    product bounds every later ratio of both sums."""
    quarter = zm * zm / 4
    t = (zm / 2) ** n / mp.factorial(n)
    for k in itertools.count():
        e = n + 2 * k
        r = quarter / ((k + 1) * (n + k + 1))
        yield (t, t * e / zm), float(r) * (e + 2) / max(e, 1)
        t *= r


def besselI_reference(n: int, z: float, cfg: OracleConfig | None = None) -> OracleValue:
    """I_n(z) by the ascending series, derivative term-wise in the same pass."""
    cfg = cfg or default_config()
    if z == 0 and n >= 0:  # the series' constant term; I_1'(0) = 1/2
        return OracleValue(mp.mpf(n == 0), mp.mpf(0.5 if n == 1 else 0), 0.0)
    _check_order_and_argument(n, z)
    # positive terms: ten guard digits cover the rounding of the sum
    with mp.workdps(cfg.dps + 10):
        steps = _ascending_steps(n, mp.mpf(z))
        value, deriv, err = _sum_series(steps, ((1, 0), (0, 1)), 1, 0, cfg, "ascending series")
        return OracleValue(+value, +deriv, err)


def _besselK_steps(n: int, zm):
    """Terms of I_n, I_n', and of the weighted sum S = sum W_k t_k,
    W_k = psi(k+1) + psi(n+k+1), of DLMF 10.31.1 and of S', led by the n
    terms of its finite sum.  These go into S and S' times 2 (-1)^n, which
    the weight (-1)^n/2 of S undoes.  W_k > 0 from k = 1 on and
    W_(k+1)/W_k falls, so the next ratio of S' bounds every later ratio of
    all four sums."""
    c = (-1) ** n * mp.factorial(n - 1) / (zm / 2) ** n if n else 0
    for k in range(n):
        if k:
            c *= -zm * zm / (4 * k * (n - k))
        yield (0, 0, c, c * (2 * k - n) / zm), 0
    wk = mp.harmonic(n) - 2 * mp.euler  # psi(1) + psi(n+1)
    for k, ((t, dt), ratio) in enumerate(_ascending_steps(n, zm)):
        w_next = wk + mp.mpf(n + 2 * k + 2) / ((k + 1) * (n + k + 1))  # + 1/(k+1) + 1/(n+k+1)
        yield (t, dt, wk * t, wk * dt), ratio * float(w_next / wk)
        wk = w_next


def besselK_reference(n: int, z: float, cfg: OracleConfig | None = None) -> OracleValue:
    """K_n(z) and K_n'(z) by the integer-order series DLMF 10.31.1,

        K_n = (1/2) sum_{k<n} (n-k-1)!/k! (-z^2/4)^k (z/2)^(-n)
              + (-1)^n (S/2 - ln(z/2) I_n),

    the derivative term-wise in the same pass.  I_n grows like e^z while
    K_n falls like e^-z, so the parts cancel by about e^(2z): that many
    guard digits go on the working precision, and the stop rule bounds the
    tail relative to K itself.
    """
    cfg = cfg or default_config()
    _check_order_and_argument(n, z)
    with mp.workdps(cfg.dps + 10):
        with mp.extradps(int(2 * z / math.log(10.0))):
            zm = mp.mpf(z)
            ln_half = mp.log(zm / 2)
            sign = -1 if n % 2 else 1
            weights = ((-sign * ln_half, 0, sign / 2, 0),
                       (-sign / zm, -sign * ln_half, 0, sign / 2))
            steps = _besselK_steps(n, zm)
            value, deriv, err = _sum_series(steps, weights, n + 1, 0, cfg, "K series")
        return OracleValue(+value, +deriv, err)


def _check_order_and_argument(n: int, z: float) -> None:
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    if not (z > 0 and math.isfinite(z)):
        raise DomainError(f"argument must be positive and finite, got {z}")


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
