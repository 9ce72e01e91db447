"""High-precision oracle internals: routes, residuals and certifications."""

from __future__ import annotations

import ast
import math
import time
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uniasym import (
    DomainError,
    OracleConfig,
    PrecisionError,
    UsageError,
    besselI_reference,
    besselK_reference,
    limit_check_bessel,
    p_reference,
    q_reference,
)
from uniasym import oracle, spectral
from uniasym.checks import ferrers_gap, limit_gaps, oracle_wronskian_worst, p_route_gap
from uniasym.oracle import (
    ORACLE_DPS_ENV,
    default_config,
    legendre_wronskian_residual,
    _q_constant,
)

CFG = OracleConfig(dps=40)


# -- configuration -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(UsageError):
        OracleConfig(dps=20)


def test_config_env_override(monkeypatch):
    monkeypatch.setenv(ORACLE_DPS_ENV, "45")
    assert default_config().dps == 45
    monkeypatch.delenv(ORACLE_DPS_ENV)
    assert default_config().dps == 60


def test_oracle_is_independent_of_the_evaluators():
    # The oracle and the spectral cross-check grade the evaluators and the
    # exact kernel, so neither may import them; neither calls a quadrature
    # or an ODE solver, nor the mpmath functions that witness the oracle.
    for module in (oracle, spectral):
        tree = ast.parse(Path(module.__file__).read_text())
        modules, calls = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules.add((node.module or "").rpartition(".")[2])
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Call):
                func = node.func
                calls.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
        assert not modules & {"legendre", "bessel", "coeff", "recurrences", "exact"}, module
        assert not [name for name in calls if name.startswith("quad")], module
        assert not calls & {"odefun", "legenp", "besseli", "besselk"}, module


def test_point_validation():
    with pytest.raises(DomainError):
        p_reference(0, 1.0, 0.0, 0.5, CFG)
    with pytest.raises(DomainError):
        p_reference(4, -1.0, 0.0, 0.5, CFG)
    with pytest.raises(DomainError):
        p_reference(4, 1.0, 0.0, 1.0, CFG)
    with pytest.raises(UsageError):
        q_reference(4, 1.0, 0.0, 0.5, CFG, method="bogus")
    with pytest.raises(UsageError):
        q_reference(4, 1.0, 0.0, 0.95, CFG, method="integral")
    with pytest.raises(UsageError):
        q_reference(4, 1.0, 0.0, 0.5, CFG, method="ode")
    # mu = n = 1: p(x) and p(-x) are dependent, so q = c p(-x) has no c
    with pytest.raises(DomainError):
        q_reference(1, 0.5, -1.125, 0.5, CFG)


def test_series_budget_surfaces_precision_error(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "MAX_TERMS", 10)
        tiny = OracleConfig(dps=30)
        with pytest.raises(PrecisionError):
            p_reference(8, 5.0, 0.0, 0.5, tiny)
        with pytest.raises(PrecisionError):
            besselK_reference(4, 8.0, tiny)
    # Raised up front: n gamma beyond the float range, and series whose
    # terms change sign for more terms than the budget allows (about
    # 1.4e150 at xi = -1e300, 2.4e6 at xi = -3e12), in p and in the
    # connection route of q.
    with pytest.raises(PrecisionError):
        p_reference(4, 1e300, 0.0, 0.5, CFG)
    with pytest.raises(PrecisionError):
        p_reference(4, 1.0, -1e300, 0.5, CFG)
    with pytest.raises(PrecisionError):
        q_reference(4, 1.0, -3e12, 0.95, CFG)


# -- first-kind solution ---------------------------------------------------------

@pytest.mark.parametrize(
    # complex mu, real mu (xi = -1) and n = 1
    "n,gamma,xi", [(4, 1.0, 0.0), (8, 25.0, 0.0), (4, 0.3, -1.0), (1, 0.3, -1.0), (1, 1.0, 0.0)]
)
def test_p_routes_agree_near_minus_one(n, gamma, xi):
    # The Gauss series and the connection series are independent
    # expansions of p; below x = -0.9 p_reference takes the connection.
    for x in (-0.95, -0.94, -0.93, -0.92, -0.91, -0.9):
        assert p_route_gap(n, gamma, xi, x, CFG) <= 10.0 ** -(CFG.dps - 5), x
    x = -0.93
    with mp.workdps(CFG.dps + 10):
        conn = q_reference(n, gamma, xi, -x, CFG, method="connection").value
        conn /= _q_constant(n, gamma, xi)
        assert abs(p_reference(n, gamma, xi, x, CFG).value / conn - 1) < 1e-45


def test_p_keeps_the_gauss_series_at_a_pole_of_c():
    # mu = n = 1: c = Gamma(n - mu) Gamma(n + 1 + mu)/2 is infinite, so
    # p(x) = q(-x)/c is unavailable; the Gauss series terminates instead,
    # F(-1, 2; 2; z) = 1 - z, and p = sqrt(1 - x^2)/2.
    x = -0.95
    val = p_reference(1, 0.5, -1.125, x, CFG).value
    assert float(val) == pytest.approx(0.15612494995996, rel=1e-13)
    with mp.workdps(CFG.dps):
        assert abs(val - mp.sqrt(1 - mp.mpf(x) ** 2) / 2) < 1e-38


@pytest.mark.parametrize("n,lam", [(1, 0.01), (8, 5.0)])
def test_p_near_minus_one_is_fast(n, lam):
    # The oracle work of one errtable row at theta = 3.1, x = -0.9991,
    # where the Gauss series for p converges like 0.9996^j: these rows
    # took 10 s and 50 s of CPU before p took the connection series there.
    theta = 3.1
    start = time.process_time()
    res = legendre_wronskian_residual(n, lam / math.sin(theta), 0.0, math.cos(theta))
    assert time.process_time() - start < 1.0
    assert res <= 1e-50


def test_p_endpoint_asymptote():
    n, x = 4, 1.0 - 1e-8
    val = p_reference(n, 1.0, 0.0, x, CFG).value
    scaled = val * (2.0 / (1.0 - x)) ** (n / 2) * math.factorial(n)
    assert float(scaled) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("xi", [-1e3, -1e4])
def test_p_keeps_working_digits_at_large_negative_strength(xi):
    # s = n^2 g + 2 xi < 0: the Gauss-series terms alternate over a hump of
    # about exp(2 sqrt(|s| z)) and cancel, which the guard digits must cover.
    val = p_reference(4, 1.0, xi, 0.0, CFG).value
    ref = p_reference(4, 1.0, xi, 0.0, OracleConfig(dps=100)).value
    with mp.workdps(100):
        assert abs(mp.mpf(val) - ref) / abs(ref) < 1e-35


# -- second-kind solution ---------------------------------------------------------

def test_q_endpoint_asymptote():
    n, x = 4, 1.0 - 1e-8
    val = q_reference(n, 1.0, 0.0, x, CFG).value
    scaled = val * ((1.0 - x) / 2.0) ** (n / 2) * 2.0 / math.factorial(n - 1)
    assert float(scaled) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "n,gamma,xi", [(1, 1.0, 0.0), (4, 1.0, 0.0), (4, 2.0, 0.125)]
)
def test_wronskian_identity_grid(n, gamma, xi):
    xs = (-0.9, -0.5, 0.0, 0.5, 0.9, 0.995)
    assert oracle_wronskian_worst([(n, gamma, xi, x) for x in xs], CFG) <= 1e-10


def test_q_connection_vs_reflection():
    # The connection series about x = 1 must reproduce c p(-x) from the
    # Gauss series at -x, also where its terms cancel hardest: x = 0.9 at
    # n gamma = 200, and the near-axis errtable point x = cos 0.1.
    cases = [(4, 1.0, 0.0, 0.95), (8, 25.0, 0.0, 0.9), (1, 2.0, -1.0, 0.95)]
    cases.append((4, 2.0 / math.sin(0.1), 0.0, math.cos(0.1)))
    for n, gamma, xi, x in cases:
        a = q_reference(n, gamma, xi, x, CFG, method="reflection")
        b = q_reference(n, gamma, xi, x, CFG, method="connection")
        assert float(abs(a.value - b.value) / abs(a.value)) < 1e-30
        assert float(abs(a.derivative - b.derivative) / abs(a.derivative)) < 1e-30


@pytest.mark.parametrize(
    "n,gamma,xi", [(1, 0.3, -1.0), (1, 1.0, 0.0), (4, 2.0, 0.125), (8, 25.0, 0.0)]
)
def test_q_constant_matches_wronskian_pin(n, gamma, xi):
    # Closed-form c against the Wronskian at x = 0, where q = c p(-x) gives
    # p q' - p' q = -2 c p(0) p'(0) = 1.  xi = -1 makes mu real.
    p0 = p_reference(n, gamma, xi, 0.0, CFG)
    with mp.workdps(CFG.dps + 10):
        c = _q_constant(n, gamma, xi)
        pin = -1 / (2 * p0.value * p0.derivative)
        assert float(abs(c - pin) / abs(pin)) < 1e-30


def test_connection_series_reports_lost_digits():
    # At x = 0 the logarithmic terms of the connection series outgrow q by
    # about 645 digits, beyond the 618 its guard estimate gives; the value
    # was off by a relative 8.7e6 with err_estimate 0.  The auto route
    # takes this series only beyond x = 0.9.
    with pytest.raises(PrecisionError):
        q_reference(16, 30.0, 0.0, 0.0, OracleConfig(dps=30), method="connection")


def test_q_routes_agree_to_working_precision():
    # Every series stops at a relative tail of 10^-dps, so at 80 digits the
    # two q routes must agree far beyond 40 digits at the near-axis point.
    cfg = OracleConfig(dps=80)
    n, gamma, x = 4, 2.0 / math.sin(0.1), math.cos(0.1)
    a = q_reference(n, gamma, 0.0, x, cfg, method="reflection")
    b = q_reference(n, gamma, 0.0, x, cfg, method="connection")
    assert float(abs(a.value - b.value) / abs(a.value)) <= 1e-75


# -- stop rule and witness -------------------------------------------------------

@pytest.mark.parametrize("kind,n,gamma,xi,x,dps,method", [
    ("q", 1, 0.3, -1.0, 0.9, 40, "auto"),
    ("p", 8, 25.0, 0.0, -0.9, 40, "auto"),
    ("p", 1, 1.0, 0.0, 0.0, 40, "auto"),
    ("q", 8, 5.0 / math.sin(0.5), 0.0, math.cos(0.5), 60, "auto"),
    ("q", 4, 1.0, 0.0, 0.95, 40, "connection"),
])
def test_meets_working_precision_in_value_and_derivative(kind, n, gamma, xi, x, dps, method):
    # A stop rule that watched only the last term of F missed 10^-dps at
    # each point, in value or derivative: by up to 6.1e-37 in q' at the
    # first, where z = 0.95 leaves a tail of about z/(1-z) times the last
    # term.  The last point reported 1.6e-63 while off by 6.5e-52, the
    # rounding to dps + 10 digits.
    kw = {"method": method} if kind == "q" else {}
    ref_fn = {"p": p_reference, "q": q_reference}[kind]
    got = ref_fn(n, gamma, xi, x, OracleConfig(dps=dps), **kw)
    ref = ref_fn(n, gamma, xi, x, OracleConfig(dps=dps + 50), **kw)
    with mp.workdps(dps + 50):
        err = max(float(abs(got.value - ref.value) / abs(ref.value)),
                  float(abs(got.derivative - ref.derivative) / abs(ref.derivative)))
    assert err <= 10.0 ** -dps
    assert got.err_estimate >= err


# mpmath's legenp raises NoConvergence near z = 0.8 once n gamma passes
# about 150, so the witness serves n gamma <= 100.
@settings(deadline=None, max_examples=30)
@given(st.integers(1, 32), st.floats(math.log(0.01), math.log(10.0)).map(math.exp),
       st.floats(0.05, 3.1), st.floats(-10.0, 1.0))
def test_legendre_pair_matches_the_ferrers_witness(n, lam, theta, xi):
    gamma = lam / math.sin(theta)
    assume(n * gamma <= 100)
    start = time.process_time()
    assert ferrers_gap(n, gamma, xi, math.cos(theta), CFG) <= 10.0 ** -(CFG.dps - 2)
    assert time.process_time() - start < 3.0


# -- modified Bessel oracles -------------------------------------------------------

def test_besselI_base_cases():
    assert besselI_reference(0, 0.0, CFG).value == 1
    assert besselI_reference(3, 0.0, CFG).value == 0
    with pytest.raises(DomainError):
        besselI_reference(4, -1.0, CFG)
    with pytest.raises(DomainError):
        besselI_reference(-1, 2.0, CFG)


def test_besselI_recurrence_identity():
    z = mp.mpf(8)
    with mp.workdps(60):
        vals = {k: besselI_reference(k, 8.0, CFG).value for k in (3, 4, 5)}
        resid = abs(vals[3] - vals[5] - (2 * 4 / z) * vals[4]) / vals[4]
    assert float(resid) < 1e-30


def _bessel_gaps(kind: str, n: int, z: float, cfg: OracleConfig) -> tuple[float, float]:
    """Relative gaps of value and derivative against mpmath, the derivative
    as I_n' = (I_(n-1) + I_(n+1))/2 or K_n' = -(K_(n-1) + K_(n+1))/2."""
    ours, theirs, sign = {
        "I": (besselI_reference, mp.besseli, 1),
        "K": (besselK_reference, mp.besselk, -1),
    }[kind]
    got = ours(n, z, cfg)
    with mp.workdps(cfg.dps):
        ref = theirs(n, z)
        dref = sign * (theirs(n - 1, z) + theirs(n + 1, z)) / 2
        return (float(abs(got.value - ref) / ref),
                float(abs(got.derivative - dref) / abs(dref)))


def test_besselK_positive():
    # A relative gap below 1 to mpmath's K > 0 also makes the value positive.
    # The series' guard digits grow like 2z/ln 10, so (4, 1000) takes about
    # 2 s on a first call.  Besides the old points: n = 0, which has no
    # finite sum, and n >= z at 60 digits, the paper's uniform regime.
    points = [(40, n, z, 1e-35) for n, z in (
        (1, 0.5), (4, 8.0), (16, 40.0), (16, 128.0), (32, 128.0), (4, 200.0), (4, 1000.0),
        (0, 0.01), (0, 500.0))]
    points += [(60, n, z, 1e-55) for n, z in (
        (4, 8.0), (16, 80.0), (81, 81.0), (90, 90.0), (600, 100.0))]
    for dps, n, z, bound in points:
        assert max(_bessel_gaps("K", n, z, OracleConfig(dps=dps))) <= bound, (dps, n, z)


# log-uniform z; the series' cost grows with z, so z stops at 200
@settings(deadline=None, max_examples=40)
@given(st.sampled_from("IK"), st.integers(0, 40),
       st.floats(math.log(1e-2), math.log(200.0)).map(math.exp))
def test_besselK_matches_mpmath(kind, n, z):
    assert max(_bessel_gaps(kind, n, z, CFG)) <= 1e-35


def test_besselK_large_argument_asymptote():
    # Bare leading asymptote K_n ~ sqrt(pi/2z) e^-z carries a relative
    # defect (4n^2-1)/(8z) ~ 20% at (4, 40); with that first correction
    # folded in the match is percent-level.
    val = besselK_reference(4, 40.0, CFG).value
    bare = float(val * mp.exp(40) * mp.sqrt(2 * 40 / mp.pi))
    assert bare == pytest.approx(1.0, abs=0.25)
    corrected = bare / (1.0 + (4 * 16 - 1) / (8 * 40.0))
    assert corrected == pytest.approx(1.0, abs=0.03)


def test_bessel_cross_wronskian():
    z = 8.0
    iv = besselI_reference(4, z, CFG)
    kv = besselK_reference(4, z, CFG)
    with mp.workdps(60):
        resid = abs((iv.derivative * kv.value - kv.derivative * iv.value) * z - 1)
    assert float(resid) < 1e-25


# -- limiting relation ---------------------------------------------------------------

def test_limit_gaps_shrink_with_theta():
    # Both gaps are O(theta^2): each step of 10 in theta cuts them by 100.
    # At theta = 1e-4 this needs cos theta beyond double precision.
    p_gaps, q_gaps = limit_gaps(4, 1.0, (1e-2, 1e-3, 1e-4), CFG)
    for gaps in (p_gaps, q_gaps):
        for wide, narrow in zip(gaps, gaps[1:]):
            assert wide / narrow == pytest.approx(100.0, rel=0.02)
    assert p_gaps[0] < 1e-3


def test_limit_check_finite_and_same_sign_at_n1():
    rep = limit_check_bessel(1, 1.0, 0.05, CFG)
    assert math.isfinite(rep.p_scaled) and math.isfinite(rep.q_scaled)
    assert rep.p_scaled > 0 and rep.i_value > 0
    assert rep.q_scaled > 0 and rep.k_value > 0


def test_limit_check_rejects_bad_angles():
    with pytest.raises(DomainError):
        limit_check_bessel(4, 1.0, 0.0, CFG)
    with pytest.raises(DomainError):
        limit_check_bessel(4, -1.0, 0.1, CFG)
