"""Uniform Bessel evaluation against the high-precision oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uniasym import (
    BesselParams,
    DomainError,
    UsageError,
    besselI_reference,
    besselK_reference,
    eta,
    eval_bessel,
    OracleConfig,
    t_of_lambda,
)
from uniasym.checks import bessel_series_wronskian, decreasing

CFG = OracleConfig(dps=40)


def rel_errors(n: int, lam: float, kind: str, cfg=CFG) -> list[float]:
    fn = besselI_reference if kind == "I" else besselK_reference
    ref = float(fn(n, n * lam, cfg).value)
    return [
        (ref - eval_bessel(BesselParams(n, lam, m, kind)).value) / ref
        for m in range(4)
    ]


# -- variable maps ------------------------------------------------------------

def test_t_of_lambda_examples():
    assert t_of_lambda(0.0) == 1.0
    assert t_of_lambda(1.0) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert t_of_lambda(1e8) < 1e-7


@given(st.floats(0.0, 1e6), st.floats(1e-7, 1e6))
def test_t_of_lambda_strictly_decreasing(lam, step):
    # step floor keeps 1 + lam^2 resolvable in float64
    assert t_of_lambda(lam + step) < t_of_lambda(lam)


def test_t_of_lambda_rejects_negative():
    with pytest.raises(DomainError):
        t_of_lambda(-0.1)


def test_eta_examples():
    exact1 = math.sqrt(2) + math.log(1 / (1 + math.sqrt(2)))
    assert eta(1.0) == pytest.approx(exact1, rel=1e-15)
    assert abs(eta(1.0) - 0.5328399) < 1e-6
    root10 = math.hypot(1.0, 10.0)
    assert eta(10.0) == pytest.approx(root10 + math.log(10 / (1 + root10)), rel=1e-15)


def test_eta_rejects_nonpositive():
    with pytest.raises(DomainError):
        eta(0.0)
    with pytest.raises(DomainError):
        eta(-2.0)


def test_eta_approaches_lambda_from_below():
    gaps = [abs(eta(lam) - lam) for lam in (10.0, 100.0, 1000.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(eta(1e6) - 1e6) < 1e-5


# -- parameter validation -----------------------------------------------------

def test_params_validation():
    with pytest.raises(DomainError):
        BesselParams(0, 2.0)
    with pytest.raises(DomainError):
        BesselParams(4, 0.0)
    with pytest.raises(UsageError):
        BesselParams(4, 2.0, m=7)
    with pytest.raises(UsageError):
        BesselParams(4, 2.0, kind="J")


# -- oracle agreement ---------------------------------------------------------

def test_I_matches_oracle_and_improves():
    errs = [abs(e) for e in rel_errors(4, 2.0, "I")]
    assert errs[3] < 5e-5
    assert errs[3] < errs[0]


def test_K_matches_oracle_and_improves():
    errs = [abs(e) for e in rel_errors(4, 2.0, "K")]
    assert errs[3] < 5e-5
    assert errs[3] < errs[0]


def test_error_sequences_at_n8_lam2_regression():
    # Measured once at high precision and pinned.  K improves strictly with
    # each order here; I does not: between orders 1 and 2 the correction
    # term (~1.1e-5) overshoots the remaining error because omega_2 is
    # accidentally tiny at t = 1/sqrt(5), so the signed error crosses zero.
    i_errs = rel_errors(8, 2.0, "I")
    k_errs = rel_errors(8, 2.0, "K")
    i_pin = [4.640e-3, 2.985e-6, -7.815e-6, -9.734e-7]
    k_pin = [-4.663e-3, 1.699e-5, 6.090e-6, -8.160e-7]
    for got, pin in zip(i_errs + k_errs, i_pin + k_pin):
        assert got == pytest.approx(pin, rel=2e-3)
    assert abs(i_errs[2]) > abs(i_errs[1])
    assert abs(i_errs[3]) < abs(i_errs[0])
    k_abs = [abs(e) for e in k_errs]
    assert k_abs[0] > k_abs[1] > k_abs[2] > k_abs[3]


@pytest.mark.parametrize("kind", ["I", "K"])
def test_term_magnitudes_strictly_decreasing(kind):
    ev = eval_bessel(BesselParams(8, 2.0, 3, kind))
    mags = [abs(t) for t in ev.terms]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_n_scaling_window_for_I():
    errs = {n: abs(rel_errors(n, 2.0, "I")[3]) for n in (8, 16)}
    factor = errs[8] / errs[16]
    assert 8.0 <= factor <= 32.0


# -- structure of the assembled value -----------------------------------------

def test_prefactor_product_is_t_over_2n():
    for n, lam in ((4, 2.0), (7, 0.5), (12, 5.0)):
        vi = eval_bessel(BesselParams(n, lam, 0, "I")).value
        vk = eval_bessel(BesselParams(n, lam, 0, "K")).value
        assert vi * vk == pytest.approx(t_of_lambda(lam) / (2 * n), rel=1e-13)


def test_log_prefactors_cancel_exactly_in_product():
    evi = eval_bessel(BesselParams(200, 3.0, 0, "I"), scaled=True)
    evk = eval_bessel(BesselParams(200, 3.0, 0, "K"), scaled=True)
    assert evi.log_scale + evk.log_scale == pytest.approx(
        math.log(t_of_lambda(3.0) / 400.0), rel=1e-14
    )


def test_wronskian_residual_decreases_with_n():
    res = [bessel_series_wronskian(n, 2.0, 3) for n in (4, 8, 16, 32)]
    assert decreasing(res)
    assert res[-1] < 1e-8


def test_derivative_kinds_match_oracle():
    # dI/dK approximate the z-derivatives; compare with centered differences
    # of the oracle at z = n*lam.
    n, lam = 8, 2.0
    z, h = n * lam, 1e-5
    for kind, fn in (("dI", besselI_reference), ("dK", besselK_reference)):
        num = (float(fn(n, z + h, CFG).value) - float(fn(n, z - h, CFG).value)) / (
            2 * h
        )
        got = eval_bessel(BesselParams(n, lam, 3, kind)).value
        assert got == pytest.approx(num, rel=1e-5)


# -- scaling behavior ----------------------------------------------------------

def test_scaled_round_trip():
    plain = eval_bessel(BesselParams(6, 1.5, 3, "K"))
    scaled = eval_bessel(BesselParams(6, 1.5, 3, "K"), scaled=True)
    assert plain.log_scale is None
    assert scaled.scaled
    assert scaled.unscaled() == pytest.approx(plain.value, rel=1e-15)
    assert scaled.terms == plain.terms


def test_overflow_forces_scaled_output():
    ev = eval_bessel(BesselParams(600, 3.0, 3, "I"))
    assert ev.scaled
    assert math.isfinite(ev.value)
    assert ev.log_scale > 700.0


def test_value_is_signed_sum_of_terms_when_scaled():
    ev = eval_bessel(BesselParams(9, 2.5, 3, "dK"), scaled=True)
    assert ev.value == -math.fsum(ev.terms)
