"""Uniform Legendre-pair evaluation, variable maps and limit relations."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uniasym import (
    DomainError,
    LegendreParams,
    OracleConfig,
    UsageError,
    cross_relation_check,
    eta,
    eta_tilde,
    eta_tilde_from_profile,
    eval_bessel_form,
    eval_legendre,
    exact_params,
    mu_of,
    p_reference,
    q_reference,
)
from uniasym.checks import bessel_form_gap, legendre_series_wronskian
from uniasym.legendre import S_minus1, v_of_x

CFG = OracleConfig(dps=40)


# -- variable maps ------------------------------------------------------------

def test_v_of_x_examples():
    assert v_of_x(0.0, 1.0) == 0.0
    assert v_of_x(0.5, 1.0) == pytest.approx(0.5 / math.sqrt(1.75), rel=1e-15)
    assert v_of_x(0.5, 1.0) == pytest.approx(0.3779645, abs=1e-7)
    assert v_of_x(0.999999, 2.0) > 0.999


@given(st.floats(-0.99, 0.99), st.floats(0.1, 10.0))
def test_v_of_x_is_odd_and_bounded(x, gamma):
    v = v_of_x(x, gamma)
    assert v == pytest.approx(-v_of_x(-x, gamma), abs=1e-15)
    assert abs(v) <= abs(x) + 1e-15


@given(st.floats(-0.95, 0.9), st.floats(0.1, 10.0))
def test_v_of_x_strictly_increasing(x, gamma):
    assert v_of_x(x + 0.01, gamma) > v_of_x(x, gamma)


def test_v_of_x_rejects_edge():
    with pytest.raises(DomainError):
        v_of_x(1.0, 1.0)
    with pytest.raises(DomainError):
        v_of_x(-1.2, 1.0)


def test_mu_of_examples():
    real_mu = mu_of(2, 0.1, 0.0)
    assert real_mu.imag == 0.0
    assert real_mu.real == pytest.approx(-0.5 + 0.5 * math.sqrt(0.84), rel=1e-12)
    assert real_mu.real == pytest.approx(-0.041742, abs=1e-6)

    cone_mu = mu_of(4, 1.0, 0.0)
    assert cone_mu.real == pytest.approx(-0.5, rel=1e-15)
    assert cone_mu.imag == pytest.approx(math.sqrt(63) / 2, rel=1e-12)

    assert mu_of(3, 1e-9, 0.125) == pytest.approx(-0.5 + 0j, abs=1e-6)


@given(
    st.integers(1, 40),
    st.floats(0.05, 20.0),
    st.floats(-0.5, 2.0),
)
def test_mu_magnitude_identity(n, gamma, xi):
    # |mu|^2 = mu*(mu+1) shifted: equals n^2 g + 2 xi whenever mu is complex,
    # and the imaginary part is never negative.
    mu = mu_of(n, gamma, xi)
    assert mu.imag >= 0.0
    if mu.imag > 0.0:
        strength = n * n * gamma * gamma + 2 * xi
        assert abs(mu) ** 2 == pytest.approx(strength, rel=1e-12)


def test_s_minus1_example():
    got = S_minus1(0.0, 1.0)
    assert got == pytest.approx(-0.5 * math.log(2) + math.pi / 4, rel=1e-15)
    assert got == pytest.approx(0.4388246, abs=1e-7)


def test_s_minus1_formula_and_monotonicity():
    gamma = 1.7
    vs = [-0.9, -0.3, 0.0, 0.4, 0.8, 0.999]
    vals = [S_minus1(v, gamma) for v in vs]
    for v, got in zip(vs, vals):
        direct = 0.5 * math.log(
            (1 - v) / ((1 + v) * (1 + gamma * gamma))
        ) - gamma * (math.atan(gamma * v) - math.atan(gamma))
        assert got == pytest.approx(direct, rel=1e-14)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert S_minus1(1 - 1e-12, gamma) < -10.0
    with pytest.raises(DomainError):
        S_minus1(1.0, gamma)


def test_exact_params_snaps_to_rationals():
    assert exact_params(2.0, 0.125) == (Fraction(4), Fraction(0))
    assert exact_params(0.5, 0.0) == (Fraction(1, 4), Fraction(-1, 8))
    for gamma, xi in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            exact_params(gamma, xi)


# -- parameter validation -----------------------------------------------------

def test_params_validation():
    with pytest.raises(DomainError):
        LegendreParams(0, 1.0, 0.0, 0.5, 3, "p")
    with pytest.raises(DomainError):
        LegendreParams(4, -1.0, 0.0, 0.5, 3, "p")
    with pytest.raises(DomainError):
        LegendreParams(4, 1.0, 0.0, 1.0, 3, "p")
    with pytest.raises(UsageError):
        LegendreParams(4, 1.0, 0.0, 0.5, 9, "p")
    with pytest.raises(UsageError):
        LegendreParams(4, 1.0, 0.0, 0.5, 3, "P")


# -- oracle agreement ---------------------------------------------------------

@pytest.mark.parametrize("kind,ref_fn", [("p", p_reference), ("q", q_reference)])
def test_expansion_matches_oracle(kind, ref_fn):
    ref = float(ref_fn(4, 1.0, 0.0, 0.5, CFG).value)
    errs = {
        m: abs(
            (ref - eval_legendre(LegendreParams(4, 1.0, 0.0, 0.5, m, kind)).value)
            / ref
        )
        for m in (0, 3)
    }
    assert errs[3] < 1e-4
    assert errs[3] < errs[0] / 50


def test_derivative_kinds_match_oracle():
    # dp/dq carry the 1/n scaling that makes the Wronskian combination
    # n [p dq - dp q] (1-x^2) tend to 1.
    n, gamma, xi, x = 8, 1.0, 0.0, 0.5
    pr = p_reference(n, gamma, xi, x, CFG)
    qr = q_reference(n, gamma, xi, x, CFG)
    dp = eval_legendre(LegendreParams(n, gamma, xi, x, 3, "dp")).value
    dq = eval_legendre(LegendreParams(n, gamma, xi, x, 3, "dq")).value
    assert dp == pytest.approx(float(pr.derivative) / n, rel=1e-4)
    assert dq == pytest.approx(float(qr.derivative) / n, rel=1e-4)


def test_endpoint_leading_behavior():
    # Near x = 1 the pair approaches the anchoring asymptotes
    # p ~ ((1-x)/2)^(n/2)/n! and q ~ (n-1)!/2 * ((1-x)/2)^(-n/2).
    n, gamma, x = 4, 1.0, 0.9999
    asym_p = ((1 - x) / 2) ** (n / 2) / math.factorial(n)
    asym_q = math.factorial(n - 1) / 2 * ((1 - x) / 2) ** (-n / 2)
    vp = eval_legendre(LegendreParams(n, gamma, 0.0, x, 3, "p")).value
    vq = eval_legendre(LegendreParams(n, gamma, 0.0, x, 3, "q")).value
    assert vp / asym_p == pytest.approx(1.0, abs=5e-4)
    assert vq / asym_q == pytest.approx(1.0, abs=5e-4)


def test_asymptotic_wronskian_residual_decreases():
    # W_3(n) = n [p dq - dp q] (1 - x^2) -> 1
    res = [legendre_series_wronskian(n, 1.0, 0.0, math.cos(0.1), 3) for n in (4, 8, 16)]
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-6


def test_scaled_output_for_large_order():
    ev = eval_legendre(LegendreParams(200, 1.0, 0.0, 0.5, 3, "p"))
    assert ev.scaled
    assert math.isfinite(ev.value)
    plain = eval_legendre(LegendreParams(6, 1.0, 0.0, 0.5, 3, "p"))
    scaled = eval_legendre(LegendreParams(6, 1.0, 0.0, 0.5, 3, "p"), scaled=True)
    assert plain.log_scale is None
    assert scaled.unscaled() == pytest.approx(plain.value, rel=1e-13)


def test_small_gamma_warns_once_per_call():
    # One warning per evaluator call, not one per coefficient (m + 1 = 4).
    for call in (
        lambda: eval_legendre(LegendreParams(4, 0.01, 0.0, 0.5, 3, "p")),
        lambda: eval_bessel_form(4, 0.01, 1.0, 0.0, 3, "q"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [str(w.message).endswith("expect cancellation loss") for w in caught] == [True]


# -- exponent profile and rewritten form ---------------------------------------

def test_eta_tilde_two_arrangements_agree():
    for lam in (0.5, 1.0, 2.0, 8.0):
        for theta in (0.05, 0.1, 0.7):
            a = eta_tilde(lam, theta)
            b = eta_tilde_from_profile(lam, theta)
            assert a == pytest.approx(b, rel=1e-13, abs=1e-13)


def test_eta_tilde_approaches_bessel_exponent():
    target = eta(1.0)
    gaps = [abs(eta_tilde(1.0, th) - target) for th in (1e-3, 5e-4)]
    assert gaps[1] < gaps[0]
    assert gaps[0] < 1e-5


def test_bessel_form_agrees_with_direct_expansion():
    for kind in ("p", "q", "dp", "dq"):
        assert abs(bessel_form_gap(8, 2.0, 0.1, 0.0, 3, kind)[0]) < 1e-5


def test_bessel_form_m0_gap_is_stirling_remainder():
    # At m=0 the two arrangements differ by the unexpanded factorial
    # correction, so ratio-1 ~ -1/(12n) and halves when n doubles.
    gaps = {n: bessel_form_gap(n, 2.0, 0.1, 0.0, 0, "p")[0] for n in (8, 16)}
    for n, gap in gaps.items():
        assert gap == pytest.approx(-1.0 / (12 * n), rel=0.1)
    assert gaps[8] / gaps[16] == pytest.approx(2.0, rel=0.05)


# -- endpoint cross relation ----------------------------------------------------

def test_cross_relation_magnitudes_and_observed_signs():
    for k, sign in ((1, -1), (2, 1)):
        rep = cross_relation_check(k, 1e4)
        assert rep.abs_gap <= 1e-3 * abs(rep.omega_at_one)
        assert rep.observed_sign == sign
    base = cross_relation_check(0, 1e4)
    assert base.psi_at_zero == 1.0
    assert base.omega_at_one == 1.0


def test_cross_relation_requires_large_gamma():
    with pytest.raises(UsageError):
        cross_relation_check(1, 50.0)
