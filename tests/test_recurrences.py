"""Exact recurrence outputs against independently hand-worked forms."""

from __future__ import annotations

import ast
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import closed_forms
from closed_forms import closed_omega, closed_omega_bar, closed_psi, closed_psi_bar
from uniasym import (
    CoeffExpr,
    IntegrityError,
    K_MAX,
    UsageError,
    bernoulli_numbers,
    integrate_step_bessel,
    integrate_step_legendre,
    omega,
    omega_bar,
    psi,
    psi_bar,
    psi_bar_plus,
    psi_plus,
    stirling_exp_coefficients,
)
from uniasym import closed_forms as package_closed_forms
from uniasym import recurrences
from uniasym.checks import psi_defects

PAIRS = [
    (Fraction(1), Fraction(-1, 8)),
    (Fraction(7, 3), Fraction(2, 5)),
    (Fraction(4, 9), Fraction(0)),
    (Fraction(5, 2), Fraction(-3, 7)),
    (Fraction(16), Fraction(1, 16)),
]


def random_triples(count: int, seed: int = 20240815):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        zeta = Fraction(rng.randint(-20, 20), rng.randint(1, 16))
        v = Fraction(rng.randint(-15, 15), 16)
        out.append((g, zeta, v))
    return out


# -- hand-form agreement ----------------------------------------------------

def test_psi_equals_hand_forms_at_random_triples():
    start = time.process_time()
    for g, zeta, v in random_triples(10):
        for k in (1, 2, 3):
            gen, hand = psi(k, g, zeta), closed_psi(k, g, zeta)
            assert gen == hand
            assert gen.eval_exact_v(v) == hand.eval_exact_v(v)
    assert time.process_time() - start < 5.0


def test_psi_bar_equals_hand_forms_at_random_triples():
    for g, zeta, v in random_triples(10, seed=20240816):
        for k in (1, 2, 3):
            gen, hand = psi_bar(k, g, zeta), closed_psi_bar(k, g, zeta)
            assert gen == hand
            assert gen.eval_exact_v(v) == hand.eval_exact_v(v)


def test_closed_forms_do_not_import_the_recurrences():
    # The hand forms grade the recurrence engine, so neither file may use it.
    for module in (package_closed_forms, closed_forms):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rpartition(".")[2])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        assert "recurrences" not in imported, module.__file__


def test_omega_closed_forms():
    assert omega(0) == CoeffExpr.one(Fraction(1), Fraction(0))
    for k in (1, 2, 3):
        assert omega(k) == closed_omega(k)
    assert omega_bar(1) == closed_omega_bar(1)
    assert omega_bar(0) == omega(0)


def test_omega_degree_and_parity():
    for k in range(1, K_MAX + 1):
        w = omega(k)
        assert w.degree_v() == 3 * k
        assert all(a % 2 == k % 2 for (a, _, _), _ in w.items())
        assert w.is_polynomial


# -- factorial-correction combinations ---------------------------------------

def test_stirling_reciprocal_coefficients():
    assert stirling_exp_coefficients(3) == [
        Fraction(1),
        Fraction(-1, 12),
        Fraction(1, 288),
        Fraction(139, 51840),
    ]


def test_bernoulli_numbers():
    assert bernoulli_numbers(8) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
    ]


@pytest.mark.parametrize("g,zeta", PAIRS[:2])
def test_psi_plus_constants(g, zeta):
    # Removing the psi-carrying products must leave the bare rationals
    # -1/12, +1/288, +139/51840 exactly.
    one = CoeffExpr.one(g, zeta)
    p1, p2, p3 = (psi(k, g, zeta) for k in (1, 2, 3))
    assert psi_plus(0, g, zeta) == one
    assert psi_plus(1, g, zeta) - p1 == one.scale(Fraction(-1, 12))
    assert psi_plus(2, g, zeta) - (p2 - p1.scale(Fraction(1, 12))) == one.scale(
        Fraction(1, 288)
    )
    assert psi_plus(3, g, zeta) - (
        p3 - p2.scale(Fraction(1, 12)) + p1.scale(Fraction(1, 288))
    ) == one.scale(Fraction(139, 51840))


def test_psi_bar_plus_uses_same_combination():
    g, zeta = PAIRS[1]
    e = stirling_exp_coefficients(3)
    chain = [psi_bar(i, g, zeta) for i in range(4)]
    expect = CoeffExpr.zero(g, zeta)
    for i, c in enumerate(e):
        expect = expect + chain[3 - i].scale(c)
    assert psi_bar_plus(3, g, zeta) == expect


# -- structural invariants ----------------------------------------------------

@pytest.mark.parametrize("g,zeta", PAIRS)
def test_endpoint_zero_and_log_free_through_k6(g, zeta):
    assert psi_defects(g, zeta) == []


def test_psi_zero_is_one():
    g, zeta = PAIRS[0]
    assert psi(0, g, zeta) == CoeffExpr.one(g, zeta)
    assert psi_bar(0, g, zeta) == CoeffExpr.one(g, zeta)


def test_order_range_guard():
    g, zeta = PAIRS[0]
    with pytest.raises(UsageError):
        psi(K_MAX + 1, g, zeta)
    with pytest.raises(UsageError):
        psi(-1, g, zeta)
    with pytest.raises(UsageError):
        omega(K_MAX + 1)


# -- single steps -------------------------------------------------------------

def test_bessel_step_from_one():
    w0 = CoeffExpr.one(Fraction(1), Fraction(0))
    assert integrate_step_bessel(w0) == closed_omega(1)
    assert integrate_step_bessel(closed_omega(1)) == closed_omega(2)


def test_bessel_step_rejects_nonpolynomial():
    bad = CoeffExpr.monomial(Fraction(1), Fraction(0), 0, 1, 0, 1)
    with pytest.raises(UsageError):
        integrate_step_bessel(bad)


def test_legendre_step_from_one():
    g, zeta = PAIRS[1]
    out = integrate_step_legendre(CoeffExpr.one(g, zeta), g, zeta)
    assert out == closed_psi(1, g, zeta)


def test_legendre_step_endpoint_zero_for_even_polynomial():
    g, zeta = PAIRS[3]
    e = CoeffExpr.poly_v(g, zeta, {0: 2, 2: -1, 4: Fraction(1, 3)})
    out = integrate_step_legendre(e, g, zeta)
    assert out.value_at_one().is_zero
    assert not out.has_log


def test_legendre_step_surfaces_surviving_log():
    # A lone odd power feeds the rational-ratio rule an L term with no
    # partner to cancel it; that must surface, never be dropped.
    g, zeta = PAIRS[0]
    e = CoeffExpr.poly_v(g, zeta, {1: 1})
    with pytest.raises(IntegrityError):
        integrate_step_legendre(e, g, zeta)


def test_legendre_step_parameter_mismatch():
    g, zeta = PAIRS[0]
    e = CoeffExpr.one(g, zeta)
    with pytest.raises(UsageError):
        integrate_step_legendre(e, Fraction(3), zeta)


def test_antiderivative_rules_match_numeric_derivative():
    from uniasym.checks import _check_antiderivative_rules

    ok, detail = _check_antiderivative_rules()
    assert ok, detail


def test_fresh_pair_builds_one_chain_from_eight_threads():
    # The kernel caches are lru_caches over pure functions, so eight threads
    # racing to build a pair no other test uses must all get equal chains,
    # though some entries may be built more than once.
    g, zeta = Fraction(1234577, 2**20) ** 2, Fraction(-3, 17)

    def build(_):
        return ([psi(k, g, zeta) for k in range(K_MAX + 1)]
                + [psi_bar_plus(k, g, zeta) for k in range(K_MAX + 1)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            chains = list(pool.map(build, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(chain == chains[0] for chain in chains[1:])
    # a lost update in the cached chain would shift psi_k; step it serially
    ref = [CoeffExpr.one(g, zeta)]
    for _ in range(K_MAX):
        ref.append(integrate_step_legendre(ref[-1], g, zeta))
    assert chains[0][:K_MAX + 1] == ref


def test_pair_keyed_memo_is_bounded_and_rebuilds_equal_chains():
    for fn in (psi, psi_bar, psi_plus, psi_bar_plus,
               recurrences._anti_power, recurrences._anti_ratio):
        assert fn.cache_info().maxsize is not None
    g, zeta = Fraction(5, 8), Fraction(-7, 32)
    kept = [psi(k, g, zeta) for k in range(3)]
    maxsize = psi.cache_info().maxsize
    # fresh dyadic pairs at k <= 1 are cheap and push the first pair out
    for i in range(maxsize):
        psi(1, Fraction(2 * i + 1, 2**10), Fraction(-1, 2**12))
    info = psi.cache_info()
    assert info.currsize <= info.maxsize
    rebuilt = [psi(k, g, zeta) for k in range(3)]
    assert psi.cache_info().misses > info.misses
    assert rebuilt == kept
