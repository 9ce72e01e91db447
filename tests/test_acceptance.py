"""Acceptance gate: every shipped claim re-measured at its stated tolerance.

Each criterion prints exactly one `criterion NN [...]: pass|FAIL` line
(run `pytest -s tests/test_acceptance.py` to stream them).  Criterion 05
gates the error-table shape the uniform expansion promises: a relative
error of O(n^-(m+1)) uniformly in lambda.  Its uniform error (the largest
over the lambda grid) must fall strictly with the order m at n = 4 and
n = 8, and the observed order log2(E_m(4)/E_m(8)) must round to m + 1.
Single cells are not gated: at n = 4 the table is not monotone cell by
cell (an error hump near lambda = 2, an order inversion for q at
lambda = 0.5), a property of a truncated series at small n that the
printed table shows next to the verdict.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from uniasym import (
    CoeffExpr,
    LegendreParams,
    OracleConfig,
    eta,
    eta_tilde,
    eval_legendre,
    p_reference,
    q_reference,
)
from uniasym.checks import (
    bessel_form_gap,
    decreasing,
    legendre_series_wronskian,
    limit_gaps,
    mode_samples,
    oracle_wronskian_worst,
    psi_defects,
)
from uniasym.recurrences import omega, omega_bar, psi, psi_bar, psi_plus
from uniasym.spectral import lobatto_nodes

from closed_forms import closed_omega, closed_omega_bar, closed_psi, closed_psi_bar


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {'pass' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d} [{name}] failed {tail}"


def random_pairs(count: int, seed: int) -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(seed)
    return [
        (
            Fraction(rng.randint(1, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 16)),
        )
        for _ in range(count)
    ]


def test_criterion_01_exact_coefficient_reproduction():
    t0 = time.process_time()
    rng = random.Random(20260815)
    for _ in range(10):
        g = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        zeta = Fraction(rng.randint(-20, 20), rng.randint(1, 16))
        v = Fraction(rng.randint(-15, 15), 16)
        for k in (1, 2, 3):
            assert psi(k, g, zeta) == closed_psi(k, g, zeta)
            assert psi_bar(k, g, zeta) == closed_psi_bar(k, g, zeta)
            assert psi(k, g, zeta).eval_exact_v(v) == closed_psi(k, g, zeta).eval_exact_v(v)
    elapsed = time.process_time() - t0
    report(1, "exact-coefficient-reproduction", elapsed <= 5.0,
           f"30 exact equalities at 10 random rational points, {elapsed:.2f} s CPU")


def test_criterion_02_corrected_coefficient_constants():
    shifts = {
        1: [Fraction(-1, 12)],
        2: [Fraction(-1, 12), Fraction(1, 288)],
        3: [Fraction(-1, 12), Fraction(1, 288), Fraction(139, 51840)],
    }
    for g, zeta in random_pairs(2, seed=31):
        chain = {k: psi(k, g, zeta) for k in (0, 1, 2, 3)}
        one = CoeffExpr.one(g, zeta)
        for k, coeffs in shifts.items():
            expected = chain[k]
            for j, c in enumerate(coeffs, start=1):
                expected = expected + chain[k - j].scale(c)
            assert psi_plus(k, g, zeta) == expected
    report(2, "corrected-coefficient-constants", True,
           "-1/12, +1/288, +139/51840 ladder exact at 2 rational pairs")


def test_criterion_03_turning_point_polynomials():
    ok = (
        omega(1) == closed_omega(1)
        and omega(2) == closed_omega(2)
        and omega_bar(1) == closed_omega_bar(1)
    )
    report(3, "turning-point-polynomials", ok,
           "orders 1-2 plus first derivative-side polynomial, exact")


def test_criterion_04_endpoint_and_log_invariants():
    bad = [
        f"{tag} k={k} {what} for g={g}"
        for g, zeta in random_pairs(5, seed=57)
        for tag, k, what in psi_defects(g, zeta)
    ]
    report(4, "endpoint-and-log-invariants", not bad, "; ".join(bad[:3]))


def test_criterion_05_error_table_shape():
    t0 = time.process_time()
    theta, xi = 0.1, 0.0
    ns = (4, 8)
    lams = (0.5, 1.0, 2.0, 4.0, 8.0)
    orders = range(4)
    x = math.cos(theta)
    cfg = OracleConfig(dps=60)
    table: dict[int, dict[float, dict[str, list[float]]]] = {}
    for n in ns:
        table[n] = {}
        for lam in lams:
            gamma = lam / math.sin(theta)
            refs = {
                "p": p_reference(n, gamma, xi, x, cfg).value,
                # x > 0.9, so this is the connection series about x = 1;
                # test_q_connection_vs_reflection checks it against the
                # Gauss series at -x to 1e-30 at this x.
                "q": q_reference(n, gamma, xi, x, cfg).value,
            }
            table[n][lam] = {
                kind: [
                    abs(float((refs[kind] - eval_legendre(
                        LegendreParams(n, gamma, xi, x, m, kind)).value) / refs[kind]))
                    for m in orders
                ]
                for kind in ("p", "q")
            }
    print("criterion 05 measurement (|relative error| vs 60-digit oracle):")
    for n in ns:
        print(f"  n={n:<3} lambda  " + "  ".join(f"{'m=' + str(m):>9}" for m in orders))
        for lam in lams:
            for kind in ("p", "q"):
                row = "  ".join(f"{e:9.3e}" for e in table[n][lam][kind])
                print(f"  {lam:<6g} {kind:>5}  {row}")

    # Uniform error E_m(n): the largest relative error over the lambda grid.
    uniform = {
        (n, kind): [max(table[n][lam][kind][m] for lam in lams) for m in orders]
        for n in ns
        for kind in ("p", "q")
    }
    violations = []
    observed = {}
    for kind in ("p", "q"):
        for n in ns:
            errs = uniform[n, kind]
            for m in orders[:-1]:
                if not errs[m + 1] < errs[m]:
                    violations.append(
                        f"{kind}: uniform error grows m={m}->{m + 1} at n={n}")
        coarse, fine = uniform[ns[0], kind], uniform[ns[1], kind]
        observed[kind] = [math.log2(coarse[m] / fine[m]) for m in orders]
        for m in orders:
            if round(observed[kind][m]) != m + 1:
                violations.append(
                    f"{kind}: m={m} observed order {observed[kind][m]:.2f}, "
                    f"expected {m + 1}")
    elapsed = time.process_time() - t0
    if elapsed > 120.0:
        violations.append(f"runtime {elapsed:.1f} s CPU above 120 s")
    if violations:
        detail = (f"{len(violations)} violations: " + "; ".join(violations[:4])
                  + ("; ..." if len(violations) > 4 else ""))
    else:
        detail = "uniform error decreasing in m at n=4, 8; " + "; ".join(
            f"{kind} orders " + "/".join(f"{o:.2f}" for o in observed[kind])
            for kind in ("p", "q")
        ) + f"; {elapsed:.1f} s CPU"
    report(5, "error-table-shape", not violations, detail)


def test_criterion_06_convergence_rate_in_n():
    theta, xi, lam, m = 0.1, 0.0, 2.0, 3
    gamma = lam / math.sin(theta)
    x = math.cos(theta)
    cfg = OracleConfig(dps=40)
    gaps = {}
    for n in (8, 16):
        ref = p_reference(n, gamma, xi, x, cfg).value
        val = eval_legendre(LegendreParams(n, gamma, xi, x, m, "p")).value
        gaps[n] = abs(float((ref - val) / ref))
    factor = gaps[8] / gaps[16]
    report(6, "convergence-rate-in-n", 8.0 <= factor <= 32.0,
           f"error reduction factor {factor:.2f} for n 8->16, window [8, 32]")


def test_criterion_07_wronskian_suite():
    worst = oracle_wronskian_worst(
        [(4, gamma, xi, x) for gamma, xi in ((1.0, 0.0), (2.0, 0.125)) for x in (-0.5, 0.5, 0.9)],
        OracleConfig(dps=40),
    )
    residuals = [legendre_series_wronskian(n, 1.0, 0.0, math.cos(0.1), 3) for n in (4, 8, 16)]
    report(7, "wronskian-suite", worst <= 1e-10 and decreasing(residuals),
           f"oracle residual <= {worst:.1e}; truncated-series residuals "
           + ", ".join(f"{r:.2e}" for r in residuals))


def test_criterion_08_bessel_limit():
    thetas = (1e-2, 1e-3, 1e-4)
    eta_one = eta(1.0)
    eta_ok = abs(eta_one - 0.5328399) <= 1e-6
    eta_gaps = [abs(eta_tilde(1.0, th) - eta_one) for th in thetas]
    p_gaps, q_gaps = limit_gaps(4, 1.0, thetas, OracleConfig(dps=60))
    mono = all(decreasing(seq) for seq in (eta_gaps, p_gaps, q_gaps))
    report(8, "bessel-limit", eta_ok and mono,
           f"eta(1)={eta_one:.7f}; gaps eta {eta_gaps[0]:.1e}->{eta_gaps[-1]:.1e}, "
           f"p {p_gaps[0]:.1e}->{p_gaps[-1]:.1e}, q {q_gaps[0]:.1e}->{q_gaps[-1]:.1e}")


def test_criterion_09_mode_agreement():
    vv = lobatto_nodes(33, -0.999)
    worst = max(
        float(max(abs(sv - yv)))
        for gamma, xi in ((1.0, 0.0), (2.0, 0.125), (0.5, -1.0))
        for sv, yv in mode_samples(gamma, xi, vv).values()
    )
    report(9, "mode-agreement", worst <= 1e-12,
           f"grid-sampled vs symbolic worst gap {worst:.2e} on 33 nodes")


def test_criterion_10_rearranged_form_consistency():
    m = 3
    gaps = []
    for kind in ("p", "q", "dp", "dq"):
        gap, a = bessel_form_gap(8, 2.0, 0.1, 0.0, m, kind)
        bound = 10.0 * abs(a.terms[m]) / abs(math.fsum(a.terms))
        gaps.append((kind, abs(gap), bound))
    ok = all(gap < bound for _, gap, bound in gaps)
    report(10, "rearranged-form-consistency", ok,
           "; ".join(f"{k}: {gap:.1e} < {bound:.1e}" for k, gap, bound in gaps))
