"""High-precision oracle internals: routes, residuals and certifications."""

from __future__ import annotations

import math

import mpmath as mp
import pytest

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
from uniasym.oracle import (
    ORACLE_DPS_ENV,
    besselI_ode_residual,
    besselK_ode_residual,
    default_config,
    legendre_wronskian_residual,
    p_ode_residual,
    p_reference_paths,
    q_methods_gap,
    _q_constant,
)

CFG = OracleConfig(dps=40)


# -- configuration -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(UsageError):
        OracleConfig(dps=20)
    with pytest.raises(UsageError):
        OracleConfig(series_tol=0.0)
    with pytest.raises(UsageError):
        OracleConfig(max_terms=0)


def test_config_env_override(monkeypatch):
    monkeypatch.setenv(ORACLE_DPS_ENV, "45")
    assert default_config().dps == 45
    monkeypatch.delenv(ORACLE_DPS_ENV)
    assert default_config().dps == 60


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


def test_series_budget_surfaces_precision_error():
    tiny = OracleConfig(dps=30, max_terms=10)
    with pytest.raises(PrecisionError):
        p_reference(8, 5.0, 0.0, 0.5, tiny)


# -- first-kind solution ---------------------------------------------------------

def test_p_realness_certificate():
    # mu is complex here; both series routes must agree and the imaginary
    # residue must stay far below the working precision.
    complex_route, real_route = p_reference_paths(1, 0.1, 0.0, 0.9, CFG)
    gap = abs(complex_route.value - real_route.value) / abs(real_route.value)
    assert float(gap) < 1e-35
    assert complex_route.err_estimate < 1e-30


def test_p_endpoint_asymptote():
    n, x = 4, 1.0 - 1e-8
    val = p_reference(n, 1.0, 0.0, x, CFG).value
    scaled = val * (2.0 / (1.0 - x)) ** (n / 2) * math.factorial(n)
    assert float(scaled) == pytest.approx(1.0, abs=1e-6)


def test_p_ode_residual_tiny():
    assert p_ode_residual(4, 1.0, 0.0, math.cos(0.1), CFG) < 1e-30


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
    for x in (-0.9, -0.5, 0.0, 0.5, 0.9, 0.995):
        assert legendre_wronskian_residual(n, gamma, xi, x, CFG) <= 1e-10


@pytest.mark.parametrize("n,gamma,xi,x", [(4, 1.0, 0.0, 0.5), (4, 2.0, 0.125, -0.3)])
def test_q_construction_routes_agree(n, gamma, xi, x):
    assert q_methods_gap(n, gamma, xi, x, CFG) <= 1e-25


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


def test_q_cross_validation_path():
    val = q_reference(4, 1.0, 0.0, 0.5, OracleConfig(dps=35), cross_validate=True)
    ref = q_reference(4, 1.0, 0.0, 0.5, CFG)
    assert float(abs(val.value - ref.value) / abs(ref.value)) < 1e-25


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


def test_besselK_positive():
    # At z = n lambda >= 128 the quadrature must have exp(-z) scaled out:
    # mp.quad's absolute error test passes an integrand that small at once.
    for n, z in ((1, 0.5), (4, 8.0), (16, 40.0), (16, 128.0), (32, 128.0),
                 (4, 200.0), (4, 1000.0)):
        val = besselK_reference(n, z, CFG).value
        assert val > 0
        with mp.workdps(CFG.dps):
            assert float(abs(val - mp.besselk(n, z)) / val) < 1e-35


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


def test_bessel_ode_residuals():
    assert besselI_ode_residual(4, 8.0, CFG) < 1e-25
    # K derivatives come from the order recurrence, so this residual is a
    # mutual-consistency certificate rather than an independent check.
    assert besselK_ode_residual(4, 8.0, CFG) < 1e-25


# -- limiting relation ---------------------------------------------------------------

def test_limit_gaps_shrink_with_theta():
    # Both gaps are O(theta^2): each step of 10 in theta cuts them by 100.
    # At theta = 1e-4 this needs cos theta beyond double precision.
    reports = [limit_check_bessel(4, 1.0, th, CFG) for th in (1e-2, 1e-3, 1e-4)]
    for wide, narrow in zip(reports, reports[1:]):
        assert wide.p_gap / narrow.p_gap == pytest.approx(100.0, rel=0.02)
        assert wide.q_gap / narrow.q_gap == pytest.approx(100.0, rel=0.02)
    assert reports[0].p_gap < 1e-3


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
