"""Chebyshev-series recurrence fallback: cross-mode agreement and resolution."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev

from uniasym import (
    DomainError,
    ResolutionError,
    SpectralCoeff,
    UsageError,
    spectral_chain,
    spectral_step,
)
from uniasym.checks import mode_samples
from uniasym.legendre import exact_params
from uniasym.recurrences import K_MAX, omega, psi
from uniasym.spectral import DEFAULT_V_LO, MAX_DEGREE, lobatto_nodes

MODE_SETTINGS = [(1.0, 0.0), (2.0, 0.125), (0.5, -1.0)]


def symbolic_samples(k: int, gamma: float, xi: float, vv: np.ndarray) -> np.ndarray:
    g, zeta = exact_params(gamma, xi)
    e = psi(k, g, zeta)
    return np.array([e.eval(gamma, v) for v in vv])


def one(v_lo: float = DEFAULT_V_LO) -> Chebyshev:
    return Chebyshev([1.0], domain=[v_lo, 1.0])


# -- construction and evaluation -------------------------------------------------

def test_eval_between_nodes_matches_polynomial():
    series = Chebyshev.interpolate(lambda v: 2 * v**3 - v + 0.25, 3, domain=[DEFAULT_V_LO, 1.0])
    s = SpectralCoeff(series, 1.0, 0.0)
    for v in (-0.77, -0.2, 0.111, 0.93):
        assert s.eval(v) == pytest.approx(2 * v**3 - v + 0.25, abs=1e-14)


def test_eval_outside_domain_rejected():
    s = SpectralCoeff(one(), 1.0, 0.0)
    with pytest.raises(DomainError):
        s.eval(1.5)
    with pytest.raises(DomainError):
        s.eval(DEFAULT_V_LO - 0.1)


def test_construction_guards():
    with pytest.raises(DomainError):
        SpectralCoeff(one(), -1.0, 0.0)
    with pytest.raises(DomainError):
        SpectralCoeff(Chebyshev([np.nan], domain=[DEFAULT_V_LO, 1.0]), 1.0, 0.0)
    with pytest.raises(DomainError):
        SpectralCoeff(Chebyshev([1.0], domain=[1.0, 1.0]), 1.0, 0.0)
    with pytest.raises(DomainError):
        SpectralCoeff(Chebyshev([1.0], domain=[0.0, 2.0]), 1.0, 0.0)


def test_record_is_frozen():
    s = SpectralCoeff(one(), 1.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.gamma = 2.0


def test_step_input_validation():
    s = SpectralCoeff(one(), 1.0, 0.0)
    with pytest.raises(UsageError):
        spectral_step(s, "airy")
    with pytest.raises(UsageError):
        spectral_step(s, "bessel")  # bessel runs on [0, 1], not [v_lo, 1]
    with pytest.raises(UsageError):
        spectral_chain("legendre", 1.0, 0.0, -1)


# -- cross-mode agreement ----------------------------------------------------------

def test_bessel_step_matches_closed_form():
    chain = spectral_chain("bessel", 1.0, 0.0, 2)
    tt = lobatto_nodes(33, 0.0)
    w1 = (3 * tt - 5 * tt**3) / 24
    w2 = (81 * tt**2 - 462 * tt**4 + 385 * tt**6) / 1152
    assert np.max(np.abs(chain[1].eval(tt) - w1)) < 1e-15
    assert np.max(np.abs(chain[2].eval(tt) - w2)) < 1e-15


def test_bessel_chain_meets_omega_through_k_max():
    # No resampling: each step is exact polynomial arithmetic of degree 3k.
    chain = spectral_chain("bessel", 1.0, 0.0, K_MAX)
    tt = lobatto_nodes(33, 0.0)
    for k, s in enumerate(chain):
        assert s.series.degree() == 3 * k
        exact = np.array([omega(k).eval(1.0, t) for t in tt])
        assert np.max(np.abs(s.eval(tt) - exact)) <= 1e-12, k


def test_legendre_step_matches_symbolic_first_order():
    chain = spectral_chain("legendre", 1.0, 0.0, 1)
    vv = lobatto_nodes(33, DEFAULT_V_LO)
    assert np.max(np.abs(chain[1].eval(vv) - symbolic_samples(1, 1.0, 0.0, vv))) < 1e-12


@pytest.mark.parametrize("gamma,xi", MODE_SETTINGS)
def test_mode_agreement_through_third_order(gamma, xi):
    vv = lobatto_nodes(33, DEFAULT_V_LO)
    for sv, yv in mode_samples(gamma, xi, vv).values():
        assert np.max(np.abs(sv - yv)) <= 1e-12


# gamma log-uniform over the range the chain must resolve
@settings(deadline=None, max_examples=25)
@given(st.floats(math.log(0.3), math.log(30.0)).map(math.exp), st.floats(-1.0, 1.0))
@example(2.0, 0.0)
def test_mode_agreement_over_gamma_and_xi(gamma, xi):
    vv = lobatto_nodes(33, DEFAULT_V_LO)
    for sv, yv in mode_samples(gamma, xi, vv).values():
        assert np.max(np.abs(sv - yv)) <= 1e-12


def test_legendre_endpoint_is_exact_zero():
    # Both antiderivatives are anchored at v = 1 and the derivative term
    # carries 1 - v^2, so psi_k(1) vanishes up to rounding.
    chain = spectral_chain("legendre", 2.0, 0.125, 3)
    for k in (1, 2, 3):
        assert abs(chain[k].eval(1.0)) <= 1e-15


# -- resolution control ----------------------------------------------------------

def test_chain_resolves_reported_points():
    # Points where grid doubling with a tail test gave up: Bessel at k = 5,
    # Legendre at gamma = 2, k = 3 and at gamma = 1, k = 6.
    assert spectral_chain("bessel", 1.0, 0.0, 5)[-1].series.degree() == 15
    assert spectral_chain("legendre", 1.0, 0.0, 6)[-1].series.degree() == 65
    chain = spectral_chain("legendre", 2.0, 0.0, 3)
    assert chain[-1].series.degree() == 90
    vv = lobatto_nodes(33, DEFAULT_V_LO)
    assert np.max(np.abs(chain[3].eval(vv) - symbolic_samples(3, 2.0, 0.0, vv))) <= 1e-12


@pytest.mark.parametrize("gamma", [0.3, 3.0, 30.0])
@pytest.mark.parametrize("xi", [-1.0, 1.0])
def test_chain_reaches_k_max(gamma, xi):
    for family in ("bessel", "legendre"):
        chain = spectral_chain(family, gamma, xi, K_MAX)
        assert len(chain) == K_MAX + 1
        assert chain[-1].series.degree() <= MAX_DEGREE + 3 * K_MAX


def test_chain_respects_degree_ceiling():
    # The degree 1/(1 + g v^2) needs grows like gamma; near gamma = 110 it
    # passes MAX_DEGREE, and the step refuses before resampling.
    with pytest.raises(ResolutionError, match="MAX_DEGREE"):
        spectral_chain("legendre", 120.0, 0.0, 1)
