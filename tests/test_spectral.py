"""Grid-sampled recurrence fallback: cross-mode agreement and resolution control."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from uniasym import (
    DomainError,
    ResolutionError,
    SpectralCoeff,
    UsageError,
    spectral_chain,
    spectral_step,
)
from uniasym.checks import mode_samples
from uniasym.recurrences import psi
from uniasym.spectral import DEFAULT_V_LO, MIN_NODES, TAIL_TOL, lobatto_nodes

MODE_SETTINGS = [(1.0, 0.0), (2.0, 0.125), (0.5, -1.0)]


def symbolic_samples(k: int, gamma: float, xi: float, vv: np.ndarray) -> np.ndarray:
    g = Fraction(gamma).limit_denominator() ** 2
    zeta = Fraction(xi).limit_denominator() - Fraction(1, 8)
    e = psi(k, g, zeta)
    return np.array([e.eval(gamma, v) for v in vv])


# -- construction and evaluation -------------------------------------------------

def test_node_passthrough_is_exact():
    rng = np.random.default_rng(7)
    s = SpectralCoeff(rng.standard_normal(33), 1.0, 0.0)
    vv = s.nodes()
    assert all(s.eval(v) == x for v, x in zip(vv, s.values))
    assert vv[0] == 1.0


def test_eval_between_nodes_matches_polynomial():
    s = SpectralCoeff.from_function(lambda v: 2 * v**3 - v + 0.25, 1.0, 0.0)
    for v in (-0.77, -0.2, 0.111, 0.93):
        assert s.eval(v) == pytest.approx(2 * v**3 - v + 0.25, abs=1e-14)


def test_eval_outside_domain_rejected():
    s = SpectralCoeff.ones(1.0, 0.0)
    with pytest.raises(DomainError):
        s.eval(1.5)
    with pytest.raises(DomainError):
        s.eval(DEFAULT_V_LO - 0.1)


def test_construction_guards():
    with pytest.raises(UsageError):
        SpectralCoeff(np.ones(MIN_NODES - 1), 1.0, 0.0)
    with pytest.raises(DomainError):
        SpectralCoeff(np.ones(33), -1.0, 0.0)
    with pytest.raises(DomainError):
        SpectralCoeff(np.full(33, np.nan), 1.0, 0.0)
    with pytest.raises(DomainError):
        SpectralCoeff(np.ones(33), 1.0, 0.0, v_lo=1.0)


def test_samples_are_frozen():
    s = SpectralCoeff.ones(1.0, 0.0)
    with pytest.raises(ValueError):
        s.values[0] = 2.0


def test_step_input_validation():
    s = SpectralCoeff.ones(1.0, 0.0)
    with pytest.raises(UsageError):
        spectral_step(s, "airy")
    with pytest.raises(UsageError):
        spectral_step(s, "bessel")  # bessel runs on [0, 1], not [v_lo, 1]
    with pytest.raises(UsageError):
        spectral_chain("legendre", 1.0, 0.0, -1)


# -- cross-mode agreement ----------------------------------------------------------

def test_bessel_step_matches_closed_form():
    chain = spectral_chain("bessel", 1.0, 0.0, 2)
    tt = chain[0].nodes()
    w1 = (3 * tt - 5 * tt**3) / 24
    w2 = (81 * tt**2 - 462 * tt**4 + 385 * tt**6) / 1152
    assert np.max(np.abs(chain[1].values - w1)) < 1e-15
    assert np.max(np.abs(chain[2].values - w2)) < 1e-15


def test_legendre_step_matches_symbolic_first_order():
    chain = spectral_chain("legendre", 1.0, 0.0, 1)
    vv = chain[1].nodes()
    assert np.max(np.abs(chain[1].values - symbolic_samples(1, 1.0, 0.0, vv))) < 1e-12


@pytest.mark.parametrize("gamma,xi", MODE_SETTINGS)
def test_mode_agreement_through_third_order(gamma, xi):
    vv = lobatto_nodes(33, DEFAULT_V_LO)
    for sv, yv in mode_samples(gamma, xi, vv).values():
        assert np.max(np.abs(sv - yv)) <= 1e-12


def test_legendre_endpoint_is_exact_zero():
    chain = spectral_chain("legendre", 2.0, 0.125, 3)
    for k in (1, 2, 3):
        assert chain[k].values[0] == 0.0
        assert chain[k].eval(1.0) == 0.0


# -- resolution control ----------------------------------------------------------

def test_tail_flags_underresolved_input():
    sharp = SpectralCoeff.from_function(lambda v: 1 / (1.001 - v), 1.0, 0.0)
    assert sharp.tail_rel() > TAIL_TOL
    with pytest.raises(ResolutionError):
        spectral_step(sharp, "legendre")


def test_chain_doubles_grid_until_resolved():
    # arctan(12 v) needs far more than 33 nodes at the 1e-13 tail level.
    chain = spectral_chain("legendre", 12.0, 0.0, 2)
    assert chain[-1].n_nodes > 33
    assert chain[-1].tail_rel() <= TAIL_TOL
    vv = lobatto_nodes(21, 0.0, 1.0)
    gap = np.abs(chain[2].eval(vv) - symbolic_samples(2, 12.0, 0.0, vv))
    assert np.max(gap) <= 1e-11


def test_chain_respects_grid_ceiling():
    with pytest.raises(ResolutionError):
        spectral_chain("legendre", 12.0, 0.0, 2, n_max=65)
