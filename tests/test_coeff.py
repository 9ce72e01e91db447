"""CoeffExpr algebra, the scaled derivative, evaluation and serialization."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniasym import CoeffExpr, DomainError, ExactScalar, UsageError
from uniasym.recurrences import psi

G, Z = Fraction(2), Fraction(1, 3)


def mono(a, b, l, c=1, g=G, zeta=Z):
    return CoeffExpr.monomial(g, zeta, a, b, l, c)


small_exprs = st.builds(
    lambda entries: CoeffExpr(
        G,
        Z,
        {
            (a, b, l): ExactScalar(c, cb, G)
            for (a, b, l, c, cb) in entries
            if not ExactScalar(c, cb, G).is_zero
        },
    ),
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 2),
            st.integers(0, 1),
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
        ),
        max_size=5,
    ),
)


# -- algebra -------------------------------------------------------------

def test_product_of_monomials_adds_exponents():
    v = mono(1, 0, 0)
    d = mono(0, 1, 0)
    assert v * d == mono(1, 1, 0)


def test_difference_of_squares():
    one = CoeffExpr.one(G, Z)
    v = mono(1, 0, 0)
    assert (one + v) * (one - v) == one - v * v


@given(small_exprs)
def test_additive_inverse_gives_zero(e):
    assert (e + (-e)).is_zero


@given(small_exprs, small_exprs, small_exprs)
def test_expr_ring_axioms(e1, e2, e3):
    assert e1 + e2 == e2 + e1
    assert e1 * e2 == e2 * e1
    assert (e1 + e2) * e3 == e1 * e3 + e2 * e3


def test_parameter_mismatch_rejected():
    with pytest.raises(UsageError):
        mono(1, 0, 0, g=Fraction(2)) + mono(1, 0, 0, g=Fraction(3))
    with pytest.raises(UsageError):
        mono(1, 0, 0, zeta=Fraction(0)) * mono(1, 0, 0, zeta=Fraction(1, 8))


def test_negative_exponent_rejected():
    with pytest.raises(UsageError):
        CoeffExpr(G, Z, {(-1, 0, 0): ExactScalar(1, 0, G)})


# -- scaled derivative ----------------------------------------------------

def test_scaled_diff_of_v():
    # D[v] = 1 + g v^2
    out = mono(1, 0, 0).scaled_diff()
    assert out == CoeffExpr.poly_v(G, Z, {0: 1, 2: G})


def test_scaled_diff_of_d():
    # D[d] = -gamma
    out = mono(0, 1, 0).scaled_diff()
    assert out == CoeffExpr.monomial(G, Z, 0, 0, 0, ExactScalar(0, -1, G))


def test_scaled_diff_of_vd():
    # D[v d] = (1 + g v^2) d - gamma v
    out = mono(1, 1, 0).scaled_diff()
    gamma = ExactScalar.sqrt_g(G)
    expect = (
        mono(0, 1, 0)
        + mono(2, 1, 0, G)
        + CoeffExpr.monomial(G, Z, 1, 0, 0, -gamma)
    )
    assert out == expect


def test_scaled_diff_of_log_factor():
    # D[L] = 2 g v
    out = mono(0, 0, 1).scaled_diff()
    assert out == mono(1, 0, 0, 2 * G)


@given(small_exprs, small_exprs)
def test_scaled_diff_is_linear(e1, e2):
    assert (e1 + e2).scaled_diff() == e1.scaled_diff() + e2.scaled_diff()


@given(small_exprs, st.floats(-0.9, 0.9))
@settings(max_examples=60)
def test_scaled_diff_matches_finite_difference(e, v):
    gamma = math.sqrt(float(G))
    h = 1e-6
    num = (e.eval(gamma, v + h) - e.eval(gamma, v - h)) / (2 * h)
    num *= 1.0 + float(G) * v * v
    sym = e.scaled_diff().eval(gamma, v)
    assert sym == pytest.approx(num, rel=2e-6, abs=2e-6)


# -- evaluation -----------------------------------------------------------

def test_eval_constant_one():
    assert CoeffExpr.one(G, Z).eval(math.sqrt(2.0), 0.37) == 1.0


def test_eval_psi1_at_zero():
    # At g=1, zeta=-1/8, v=0: d = pi/4, so the value is -pi/32 + 5/48.
    e = psi(1, Fraction(1), Fraction(-1, 8))
    got = e.eval(1.0, 0.0)
    assert got == pytest.approx(-math.pi / 32 + Fraction(5, 48), rel=1e-14)
    assert got == pytest.approx(0.0059919, abs=1e-7)


def test_eval_psi1_at_one_is_zero():
    e = psi(1, Fraction(1), Fraction(-1, 8))
    assert e.eval(1.0, 1.0) == 0.0


def test_eval_rejects_mismatched_gamma():
    with pytest.raises(UsageError):
        CoeffExpr.one(G, Z).eval(1.0, 0.0)


def test_eval_rejects_nonpositive_gamma():
    with pytest.raises(DomainError):
        CoeffExpr.one(G, Z).eval(-math.sqrt(2.0), 0.0)


def test_eval_warns_for_tiny_gamma():
    e = CoeffExpr.one(Fraction(1, 10000), Z)
    with pytest.warns(UserWarning):
        e.eval(0.01, 0.0)


# -- structure queries ------------------------------------------------------

def test_degree_and_log_flags():
    e = mono(3, 1, 0) + mono(1, 0, 1)
    assert e.degree_v() == 3
    assert e.max_dpow() == 1
    assert e.has_log
    assert not e.is_polynomial
    assert mono(2, 0, 0).is_polynomial


def test_value_at_one_drops_d_terms():
    # d vanishes at v=1, so only the pure-v part contributes.
    e = mono(2, 1, 0) + CoeffExpr.poly_v(G, Z, {0: -3, 1: 3})
    assert e.value_at_one() == ExactScalar.rational(0, G)


def test_shift_v():
    assert mono(1, 1, 0).shift_v(2) == mono(3, 1, 0)


# -- serialization ----------------------------------------------------------

@given(small_exprs)
def test_json_round_trip(e):
    blob = json.dumps(e.to_json())
    back = CoeffExpr.from_json(json.loads(blob))
    assert back == e


def test_json_shape():
    e = mono(1, 2, 0, Fraction(-3, 4))
    obj = e.to_json()
    assert obj["g"] == "2/1"
    assert obj["zeta"] == "1/3"
    assert obj["terms"] == [
        {"a": 1, "b": 2, "l": 0, "coeff": {"a": "-3/4", "b": "0/1"}}
    ]


def test_render_text_uses_requested_variable():
    e = CoeffExpr.poly_v(Fraction(1), Fraction(0), {1: Fraction(3, 24), 3: Fraction(-5, 24)})
    assert "t" in e.render_text(var="t")
    assert "v" not in e.render_text(var="t")
