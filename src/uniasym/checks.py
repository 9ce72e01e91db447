"""Runnable invariant suites behind the `check` command.

Each check returns (ok, detail).  Suites are deterministic: fixed seeds,
fixed parameter grids.  They are smoke-level by intent; the full test
suite carries the heavier property-based versions.

A claim that `uniasym check`, the acceptance gate and the unit tests all
measure is measured by one function here, which returns the numbers;
each caller applies its own grid and its own stated bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import oracle as orc
from .bessel import BESSEL_KINDS, BesselParams, SeriesEval, eval_bessel, t_of_lambda
from .closed_forms import closed_omega, closed_omega_bar, dzg, p1
from .exact import ExactScalar
from .legendre import (
    LEGENDRE_KINDS,
    LegendreParams,
    cross_relation_check,
    eta_tilde,
    eta_tilde_from_profile,
    eval_bessel_form,
    eval_legendre,
    exact_params,
)
from .recurrences import (
    K_MAX,
    _anti_power,
    _anti_ratio,
    omega,
    omega_bar,
    psi,
    psi_bar,
)
from .spectral import spectral_chain


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# -- shared measurements -----------------------------------------------------

def decreasing(seq) -> bool:
    """Strictly decreasing."""
    return all(b < a for a, b in zip(seq, seq[1:]))


def legendre_series_wronskian(n: int, gamma: float, xi: float, x: float, m: int) -> float:
    """|n [p dq - dp q] (1 - x^2) - 1| of the order-m series; O(n^-(m+1))."""
    vals = {
        kind: eval_legendre(LegendreParams(n, gamma, xi, x, m, kind)).value
        for kind in LEGENDRE_KINDS
    }
    w = n * (vals["p"] * vals["dq"] - vals["dp"] * vals["q"]) * (1 - x * x)
    return abs(w - 1.0)


def bessel_series_wronskian(n: int, lam: float, m: int) -> float:
    """|z [I' K - K' I] - 1| at z = n*lam of the order-m series."""
    vals = {
        kind: eval_bessel(BesselParams(n, lam, m, kind)).value
        for kind in BESSEL_KINDS
    }
    return abs((vals["dI"] * vals["K"] - vals["dK"] * vals["I"]) * (n * lam) - 1.0)


def bessel_form_gap(
    n: int, lam: float, theta: float, xi: float, m: int, kind: str
) -> tuple[float, SeriesEval]:
    """Ratio - 1 of eval_legendre at gamma = lam/sin(theta), x = cos(theta)
    over eval_bessel_form, both order m, and the eval_legendre result."""
    a = eval_legendre(
        LegendreParams(n, lam / math.sin(theta), xi, math.cos(theta), m, kind),
        scaled=True,
    )
    b = eval_bessel_form(n, lam, theta, xi, m, kind, scaled=True)
    return math.exp(a.log_scale - b.log_scale) * a.value / b.value - 1.0, a


def psi_defects(g: Fraction, zeta: Fraction) -> list[tuple[str, int, str]]:
    """(series, k, defect) for each psi_k ("plain") and psibar_k ("bar"),
    1 <= k <= K_MAX, that is nonzero at v = 1 or keeps a log term."""
    bad = []
    for k in range(1, K_MAX + 1):
        for tag, e in (("plain", psi(k, g, zeta)), ("bar", psi_bar(k, g, zeta))):
            if not e.value_at_one().is_zero:
                bad.append((tag, k, "nonzero at v=1"))
            if e.has_log:
                bad.append((tag, k, "keeps a log term"))
    return bad


def mode_samples(gamma: float, xi: float, nodes) -> dict:
    """{k: (spectral, symbolic)} samples of psi_k, k = 1..3, at the nodes:
    the grid-sampled chain against the exact kernel."""
    chain = spectral_chain("legendre", gamma, xi, 3)
    g, zeta = exact_params(gamma, xi)
    return {
        k: (chain[k].eval(nodes), np.array([psi(k, g, zeta).eval(gamma, v) for v in nodes]))
        for k in (1, 2, 3)
    }


def oracle_wronskian_worst(points, cfg: orc.OracleConfig) -> float:
    """Largest oracle Wronskian residual over (n, gamma, xi, x) points."""
    return max(orc.legendre_wronskian_residual(*pt, cfg) for pt in points)


def p_route_gap(n: int, gamma: float, xi: float, x, cfg: orc.OracleConfig) -> float:
    """Largest relative gap, value or derivative, between p(x) from the Gauss
    series and from the connection series about x = -1.  Both come as
    q(-x) = c p(x), by reflection and by connection, so c cancels."""
    a, b = (orc.q_reference(n, gamma, xi, -x, cfg, method=m) for m in ("reflection", "connection"))
    pairs = ((a.value, b.value), (a.derivative, b.derivative))
    return max(float(abs(u - v) / abs(u)) for u, v in pairs)


def ferrers_witness(n: int, gamma: float, xi: float, x) -> tuple:
    """p, p', q, q' from mpmath's Ferrers function p = P^(-n)_mu (DLMF
    14.3), independent of the oracle, at the current working precision.

    mu solves mu(mu+1) = -(n^2 g + 2 xi); p' comes from DLMF 14.10.4,
    (1-x^2) P'^m_nu = (m - nu - 1) P^m_(nu+1) + (nu+1) x P^m_nu; and
    q = C p(-x) with C from the Wronskian (1-x^2)(p q' - p' q) = 1.
    """
    mu = (mp.sqrt(mp.mpc(1 - 4 * ((n * mp.mpf(gamma)) ** 2 + 2 * mp.mpf(xi)))) - 1) / 2

    def with_derivative(t):
        val = mp.legenp(mu, -n, t, type=2)
        der = ((-n - mu - 1) * mp.legenp(mu + 1, -n, t, type=2) + (mu + 1) * t * val) / (1 - t * t)
        return mp.re(val), mp.re(der)

    xm = mp.mpf(x)
    p, dp = with_derivative(xm)
    pm, dpm = with_derivative(-xm)
    c = 1 / ((1 - xm * xm) * (-p * dpm - dp * pm))
    return p, dp, c * pm, -c * dpm


def ferrers_gap(n: int, gamma: float, xi: float, x, cfg: orc.OracleConfig) -> float:
    """Largest relative gap of the oracle's p, p', q and q' to the Ferrers
    witness, which runs at 20 digits beyond the oracle."""
    pv = orc.p_reference(n, gamma, xi, x, cfg)
    qv = orc.q_reference(n, gamma, xi, x, cfg)
    with mp.workdps(cfg.dps + 20):
        got = (pv.value, pv.derivative, qv.value, qv.derivative)
        witness = ferrers_witness(n, gamma, xi, x)
        return max(float(abs(u - v) / abs(v)) for u, v in zip(got, witness))


def limit_gaps(
    n: int, lam: float, thetas, cfg: orc.OracleConfig
) -> tuple[list[float], list[float]]:
    """Small-angle gaps of the scaled p and q to I_n and K_n, per theta."""
    reps = [orc.limit_check_bessel(n, lam, th, cfg) for th in thetas]
    return [r.p_gap for r in reps], [r.q_gap for r in reps]


# -- kernel ------------------------------------------------------------------

def _check_field_axioms() -> tuple[bool, str]:
    rng = random.Random(20240817)
    gs = [Fraction(2), Fraction(9, 4), Fraction(7, 3)]

    def rand_scalar(g):
        return ExactScalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            g,
        )

    for _ in range(200):
        g = rng.choice(gs)
        x, y, z = (rand_scalar(g) for _ in range(3))
        if (x + y) * z != x * z + y * z:
            return False, f"distributivity failed at g={g}"
        if (x * y) * z != x * (y * z):
            return False, f"associativity failed at g={g}"
        if x != ExactScalar.rational(0, g) and x * x.inv() != ExactScalar.rational(1, g):
            return False, f"inverse failed at g={g}"
    return True, "200 random triples over 3 field parameters"


def _check_antiderivative_rules() -> tuple[bool, str]:
    g, zeta = Fraction(2), Fraction(1, 3)
    gamma = math.sqrt(float(g))
    gf = float(g)
    worst = 0.0
    pairs = [(0, 1), (1, 1), (2, 0), (2, 2), (3, 1), (0, 3), (1, 2)]
    for table in (_anti_power, _anti_ratio):
        for a, b in pairs:
            anti = table(a, b, g, zeta)
            for i in range(20):
                v = 0.05 + 0.9 * i / 19
                h = 1e-6
                # central difference of the explicit part; each formal X_b
                # contributes its defining derivative v d^b / (1 + g v^2)
                der = (anti.expr.eval(gamma, v + h) - anti.expr.eval(gamma, v - h)) / (2 * h)
                dlt = math.atan(gamma) - math.atan(gamma * v)
                for bb, c in anti.xco.items():
                    der += float(c) * v * dlt**bb / (1 + gf * v * v)
                ref = v**a * dlt**b
                if table is _anti_ratio:
                    ref /= 1 + gf * v * v
                err = abs(der - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
    ok = worst <= 1e-8
    return ok, f"worst relative derivative mismatch {worst:.2e}"


def _check_log_cancellation() -> tuple[bool, str]:
    pairs = [
        (Fraction(1), Fraction(-1, 8)),
        (Fraction(7, 3), Fraction(2, 5)),
        (Fraction(4, 9), Fraction(0)),
        (Fraction(5, 2), Fraction(-3, 7)),
        (Fraction(16), Fraction(1, 16)),
    ]
    bad = [f"{tag} k={k}, g={g}, zeta={zeta}" for g, zeta in pairs
           for tag, k, what in psi_defects(g, zeta) if what == "keeps a log term"]
    if bad:
        return False, f"surviving log term in {bad[0]}"
    return True, "k <= 6 over 5 rational parameter pairs"


def _check_mode_agreement() -> tuple[bool, str]:
    nodes = [-0.999 + (1.0 - -0.999) * i / 32 for i in range(33)]
    worst = 0.0
    for gamma, xi in ((1.0, 0.0), (2.0, 0.125), (0.5, -1.0)):
        for sv, yv in mode_samples(gamma, xi, nodes).values():
            worst = max(worst, float(np.max(np.abs(sv - yv) / np.maximum(1.0, np.abs(yv)))))
    ok = worst <= 1e-12
    return ok, f"worst symbolic/spectral gap {worst:.2e} (33-point grid, 3 settings)"


# -- bessel ------------------------------------------------------------------

def _check_omega_closed_forms() -> tuple[bool, str]:
    ok = all(omega(k) == closed_omega(k) for k in (1, 2, 3)) and omega_bar(1) == closed_omega_bar(1)
    return ok, "orders 1-3 and first derivative-series order, exact equality"


def _check_omega_degree_parity() -> tuple[bool, str]:
    for k in range(1, 7):
        w = omega(k)
        if w.degree_v() != 3 * k:
            return False, f"deg omega_{k} = {w.degree_v()} != {3 * k}"
        for (a, _, _), _c in w.items():
            if a % 2 != k % 2:
                return False, f"parity break in omega_{k}: exponent {a}"
    return True, "deg = 3k and exponent parity for k <= 6"


def _check_prefactor_product() -> tuple[bool, str]:
    worst = 0.0
    for n, lam in ((4, 2.0), (7, 0.5)):
        ei = eval_bessel(BesselParams(n, lam, 0, "I"), scaled=True)
        ek = eval_bessel(BesselParams(n, lam, 0, "K"), scaled=True)
        t = t_of_lambda(lam)
        prod = math.exp(ei.log_scale + ek.log_scale) * ei.value * ek.value
        worst = max(worst, abs(prod - t / (2 * n)) / (t / (2 * n)))
    ok = worst <= 1e-13
    return ok, f"I/K prefactors multiply to t/(2n), worst gap {worst:.2e}"


def _check_bessel_wronskian() -> tuple[bool, str]:
    res = [bessel_series_wronskian(n, 2.0, 3) for n in (4, 8, 16, 32)]
    return decreasing(res), "residuals " + ", ".join(f"{r:.2e}" for r in res)


def _check_order_improvement() -> tuple[bool, str]:
    # Strict error decrease per added order holds for K here but not for I:
    # at lam = 2 the I correction terms nearly cancel between orders 2 and 3,
    # so the truthful invariant is (a) K errors strictly decreasing, (b) the
    # order-3 I error beats the order-0 one, and (c) the per-order term
    # magnitudes themselves decay strictly for both kinds.
    n, lam = 8, 2.0
    cfg = orc.OracleConfig(dps=40)
    refs = {
        "I": orc.besselI_reference(n, n * lam, cfg),
        "K": orc.besselK_reference(n, n * lam, cfg),
    }
    errs: dict[str, list[float]] = {}
    for kind in ("I", "K"):
        ref = float(refs[kind].value)
        errs[kind] = [
            abs((ref - eval_bessel(BesselParams(n, lam, m, kind)).value) / ref)
            for m in range(4)
        ]
        terms = eval_bessel(BesselParams(n, lam, 3, kind)).terms
        mags = [abs(t) for t in terms]
        if not decreasing(mags):
            return False, f"{kind}: term magnitudes not decreasing {mags}"
    ok_k = decreasing(errs["K"])
    ok_i = errs["I"][3] < errs["I"][0]
    if not ok_k:
        return False, f"K: errors {errs['K']}"
    if not ok_i:
        return False, f"I: order 3 not better than order 0, {errs['I']}"
    return True, "K errors strictly decreasing, I improved 0 -> 3, terms decay"


def _check_n_scaling() -> tuple[bool, str]:
    lam, m = 2.0, 3
    cfg = orc.OracleConfig(dps=40)
    errs = {}
    for n in (8, 16):
        ref = float(orc.besselI_reference(n, n * lam, cfg).value)
        errs[n] = abs((ref - eval_bessel(BesselParams(n, lam, m, "I")).value) / ref)
    factor = errs[8] / errs[16]
    ok = 8.0 <= factor <= 32.0
    return ok, f"error reduction factor {factor:.2f} for n 8 -> 16"


# -- legendre ----------------------------------------------------------------

def _check_psi_endpoint() -> tuple[bool, str]:
    pairs = ((Fraction(1), Fraction(-1, 8)), (Fraction(7, 3), Fraction(2, 5)))
    bad = [f"{tag} k={k}, g={g}" for g, zeta in pairs
           for tag, k, what in psi_defects(g, zeta) if what == "nonzero at v=1"]
    if bad:
        return False, f"nonzero endpoint in {bad[0]}"
    return True, "exact zero at v=1 for both series, k <= 6, 2 parameter pairs"


def _check_psi1_closed_form() -> tuple[bool, str]:
    g, zeta = Fraction(7, 3), Fraction(2, 5)
    ok = psi(1, g, zeta) == dzg(g, zeta) + p1(g, zeta)
    return ok, "first-order coefficient matches its closed form exactly"


def _check_eta_profile() -> tuple[bool, str]:
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 8.0):
        for theta in (0.1, 0.5, 1.0, 1.3):
            a = eta_tilde(lam, theta)
            b = eta_tilde_from_profile(lam, theta)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-13
    return ok, f"two arrangements of the exponent profile agree to {worst:.2e}"


def _check_expansion_wronskian() -> tuple[bool, str]:
    x = math.cos(0.1)
    res = [legendre_series_wronskian(n, 1.0, 0.0, x, 3) for n in (4, 8, 16)]
    return decreasing(res), "residuals " + ", ".join(f"{r:.2e}" for r in res)


def _check_bessel_form_agreement() -> tuple[bool, str]:
    worst = max(abs(bessel_form_gap(8, 2.0, 0.1, 0.0, 3, kind)[0]) for kind in LEGENDRE_KINDS)
    ok = worst <= 1e-5
    return ok, f"factorial-form vs profile-form worst ratio gap {worst:.2e}"


def _check_cross_relation() -> tuple[bool, str]:
    # The sign relation is recorded as observed, not assumed: measured runs
    # give psi_k(0) = (-1)^k * omega_k(1) for k = 1, 2, and we pin that.
    signs = []
    for k in (1, 2):
        rep = cross_relation_check(k, 1e4)
        rel = rep.abs_gap / max(abs(rep.omega_at_one), 1e-300)
        if rel > 1e-3:
            return False, f"k={k}: relative magnitude gap {rel:.2e}"
        if rep.observed_sign != (-1) ** k:
            return False, f"k={k}: observed sign {rep.observed_sign} changed"
        signs.append(rep.observed_sign)
    return True, f"magnitudes match at gamma=1e4; observed signs {signs} = (-1)^k"


# -- oracle ------------------------------------------------------------------

def _check_oracle_wronskian() -> tuple[bool, str]:
    points = [(4, 1.0, 0.0, x) for x in (-0.5, 0.0, 0.5, 0.9)] + [(4, 2.0, 0.125, 0.5)]
    worst = oracle_wronskian_worst(points, orc.OracleConfig(dps=40))
    ok = worst <= 1e-10
    return ok, f"worst residual {worst:.2e}"


def _check_ferrers() -> tuple[bool, str]:
    # x = 0.95 takes the connection route for q, the others the reflection
    cfg = orc.OracleConfig(dps=40)
    worst = max(ferrers_gap(4, 1.0, 0.0, x, cfg) for x in (-0.5, 0.5, 0.95))
    ok = worst <= 10.0 ** -(cfg.dps - 5)
    return ok, f"p, p', q, q' vs mpmath's Ferrers function, worst gap {worst:.2e}"


def _check_bessel_cross_wronskian() -> tuple[bool, str]:
    cfg = orc.OracleConfig(dps=40)
    n, z = 4, 8.0
    iv = orc.besselI_reference(n, z, cfg)
    kv = orc.besselK_reference(n, z, cfg)
    res = abs(float(z * (iv.derivative * kv.value - kv.derivative * iv.value) - 1))
    ok = res <= 1e-30
    return ok, f"series-I vs series-K Wronskian residual {res:.2e}"


def _check_p_routes() -> tuple[bool, str]:
    cfg = orc.OracleConfig(dps=40)
    worst = max(p_route_gap(4, 1.0, 0.0, x, cfg) for x in (-0.95, -0.92, -0.9))
    ok = worst <= 1e-35
    return ok, f"Gauss vs connection series gap {worst:.2e}"


def _check_limit_gaps() -> tuple[bool, str]:
    p, q = limit_gaps(4, 1.0, (1e-1, 1e-2), orc.OracleConfig(dps=40))
    ok = decreasing(p) and decreasing(q)
    return ok, f"p gap {p[0]:.2e} -> {p[1]:.2e}, q gap {q[0]:.2e} -> {q[1]:.2e}"


SUITES: dict[str, list[tuple[str, object]]] = {
    "kernel": [
        ("field_axioms_sample", _check_field_axioms),
        ("antiderivative_rules", _check_antiderivative_rules),
        ("log_cancellation_k<=6", _check_log_cancellation),
        ("mode_agreement_spectral", _check_mode_agreement),
    ],
    "bessel": [
        ("omega_closed_forms", _check_omega_closed_forms),
        ("omega_degree_parity", _check_omega_degree_parity),
        ("prefactor_product", _check_prefactor_product),
        ("wronskian_residual_decreasing", _check_bessel_wronskian),
        ("order_improvement_oracle", _check_order_improvement),
        ("n_scaling_window", _check_n_scaling),
    ],
    "legendre": [
        ("psi_endpoint_zero", _check_psi_endpoint),
        ("psi1_closed_form", _check_psi1_closed_form),
        ("eta_profile_consistency", _check_eta_profile),
        ("expansion_wronskian_decreasing", _check_expansion_wronskian),
        ("bessel_form_agreement", _check_bessel_form_agreement),
        ("cross_relation_magnitudes", _check_cross_relation),
    ],
    "oracle": [
        ("wronskian_residual<=1e-10", _check_oracle_wronskian),
        ("ferrers_gap", _check_ferrers),
        ("bessel_cross_wronskian", _check_bessel_cross_wronskian),
        ("p_routes_agree", _check_p_routes),
        ("limit_gap_shrinks", _check_limit_gaps),
    ],
}


def run_suite(suite: str) -> list[CheckResult]:
    """Run one named suite (or `all`) and return results in declared order."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        from .errors import UsageError

        raise UsageError(f"unknown suite {suite!r}")
    out = []
    for name in names:
        for check_name, fn in SUITES[name]:
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashing check is a failing check
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            out.append(CheckResult(check_name, ok, detail))
    return out
