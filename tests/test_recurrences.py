"""Exact recurrence outputs against independently hand-worked forms."""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import closed_forms
import pair_engine
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
from uniasym.exact import rational_sqrt

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


# gamma from a float, as the evaluators derive it, so g is a rational square;
# and non-square g, where the surd part of each coefficient is split off.
SQUARE_G = st.floats(0.05, 200.0).map(lambda gamma: Fraction(gamma) ** 2)
NON_SQUARE_G = st.one_of(
    st.sampled_from([Fraction(2), Fraction(7, 3)]),
    st.builds(Fraction, st.integers(1, 500), st.integers(1, 97)).filter(
        lambda g: rational_sqrt(g) is None),
)
ZETAS = st.one_of(
    st.floats(-20.0, 20.0).map(lambda xi: Fraction(xi) - Fraction(1, 8)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 64)),
)


def test_specialised_chains_equal_the_per_pair_engine():
    # Each family at k <= K_MAX, specialised from its generic order, equals
    # the chain the per-pair engine in tests/pair_engine.py builds at (g, zeta).
    @settings(deadline=None, max_examples=12, database=None)
    @given(st.one_of(SQUARE_G, NON_SQUARE_G), ZETAS)
    @example(Fraction(8.17) ** 2, Fraction(0.25) - Fraction(1, 8))
    @example(Fraction(40.1) ** 2, Fraction(-1, 8))
    @example(Fraction(3.7) ** 2, Fraction(0.5) - Fraction(1, 8))
    @example(Fraction(2), Fraction(1, 3))
    @example(Fraction(7, 3), Fraction(2, 5))
    @example(Fraction(5, 8), Fraction(-7, 32))
    def check(g, zeta):
        for name, ref in pair_engine.FAMILIES.items():
            fam = getattr(recurrences, name)
            for k in range(K_MAX + 1):
                assert fam(k, g, zeta) == ref(k, g, zeta), (name, k, g, zeta)

    start = time.process_time()
    check()
    assert time.process_time() - start < 60.0


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


# A fresh process, so that the threads also race the first build of every
# generic order and antiderivative table.
RACE = """
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pair_engine
from uniasym import recurrences as r

NAMES = ("psi", "psi_bar", "psi_plus", "psi_bar_plus")
GENERIC = (r._psi_generic, r._psi_bar_generic, r._psi_plus_generic,
           r._psi_bar_plus_generic, r._anti_power, r._anti_ratio)
assert all(f.cache_info().currsize == 0 for f in GENERIC)


def race(g, zeta):
    def build(_):
        return [getattr(r, nm)(k, g, zeta) for nm in NAMES for k in range(r.K_MAX + 1)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        chains = list(pool.map(build, range(8), timeout=120))
    assert all(chain == chains[0] for chain in chains[1:])
    assert chains[0] == [pair_engine.FAMILIES[nm](k, g, zeta)
                         for nm in NAMES for k in range(r.K_MAX + 1)]
    return chains[0]


def generic_values():
    return [(o.poly.den, o.poly.scale, dict(o.poly.terms), o.rows)
            for f in GENERIC[:4] for o in (f(k) for k in range(r.K_MAX + 1))]


sys.setswitchinterval(1e-5)
g, zeta = Fraction(1234577, 2**20) ** 2, Fraction(-3, 17)
chain = race(g, zeta)
# a lost update in a cached chain would shift psi_k; step it serially
ref = [r.CoeffExpr.one(g, zeta)]
for _ in range(r.K_MAX):
    ref.append(r.integrate_step_legendre(ref[-1], g, zeta))
assert chain[:r.K_MAX + 1] == ref
# the cached generic values stay as stored while a second pair races
stored = generic_values()
race(Fraction(7, 3), Fraction(2, 5))
assert generic_values() == stored
print("ok")
"""


def _run_fresh(code: str) -> str:
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def test_fresh_pair_builds_one_chain_from_eight_threads():
    # The caches are over pure functions whose values are never mutated, so
    # eight threads racing to build every family at a pair no other test
    # uses must all get equal chains, equal to the per-pair engine's, though
    # some entries may be built more than once.
    assert _run_fresh(RACE).split() == ["ok"]


LAZY = """
import uniasym, uniasym.cli
from uniasym import recurrences as r

GENERIC = (r._psi_generic, r._psi_bar_generic, r._psi_plus_generic,
           r._psi_bar_plus_generic)
print(*(f.cache_info().currsize for f in GENERIC))
uniasym.cli.main(["errtable", "--theta", "0.5", "--n", "4", "--lambda-min", "1",
                  "--lambda-max", "1", "--steps", "1", "--orders", "0,1,2,3"])
print(*(f.cache_info().currsize for f in GENERIC))
"""


def test_generic_orders_are_built_lazily():
    # Import builds nothing; one errtable row at orders 0..3 builds psi_0..psi_3
    # and no psibar or plus order.
    lines = _run_fresh(LAZY).splitlines()
    assert lines[0] == "0 0 0 0"
    assert lines[-1] == "4 0 0 0"


def test_pair_keyed_memo_is_bounded_and_rebuilds_equal_chains():
    generic = (recurrences._psi_generic, recurrences._psi_bar_generic,
               recurrences._psi_plus_generic, recurrences._psi_bar_plus_generic,
               recurrences._anti_power, recurrences._anti_ratio)
    for fn in (psi, psi_bar, psi_plus, psi_bar_plus) + generic:
        assert fn.cache_info().maxsize is not None
    g, zeta = Fraction(5, 8), Fraction(-7, 32)
    kept = [psi(k, g, zeta) for k in range(3)]
    built = [fn.cache_info().currsize for fn in generic]
    maxsize = psi.cache_info().maxsize
    # fresh dyadic pairs push the first pair out
    for i in range(maxsize):
        psi(1, Fraction(2 * i + 1, 2**10), Fraction(-1, 2**12))
    info = psi.cache_info()
    assert info.currsize <= info.maxsize
    # the generic orders and tables are keyed by k or (a, b), not by the pair
    assert [fn.cache_info().currsize for fn in generic] == built
    rebuilt = [psi(k, g, zeta) for k in range(3)]
    assert psi.cache_info().misses > info.misses
    assert rebuilt == kept
