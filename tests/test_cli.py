"""Command surface: flags, exit codes, schemas and CSV determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniasym import BesselParams, LegendreParams, eval_bessel, eval_legendre
from uniasym.bessel import BESSEL_KINDS
from uniasym.cli import main
from uniasym.legendre import LEGENDRE_KINDS
from uniasym.coeff import CoeffExpr
from uniasym.recurrences import psi


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# -- eval ------------------------------------------------------------------------

def test_eval_bessel_json_schema(capsys):
    rc, out, _ = run_cli(
        capsys, "eval", "--family", "bessel", "--kind", "I",
        "--n", "4", "--lambda", "2", "--order", "3", "--json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "log_scale", "terms", "t", "eta"}
    ev = eval_bessel(BesselParams(4, 2.0, 3, "I"))
    assert payload["value"] == ev.value
    assert payload["terms"] == list(ev.terms)
    assert len(payload["terms"]) == 4
    assert payload["t"] == pytest.approx(1 / math.sqrt(5), rel=1e-15)
    assert payload["log_scale"] is None


def test_eval_legendre_json_schema(capsys):
    rc, out, _ = run_cli(
        capsys, "eval", "--family", "legendre", "--kind", "p", "--n", "4",
        "--gamma", "1", "--xi", "0", "--x", "0.995", "--order", "0", "--json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "log_scale", "terms", "v", "S", "mu"}
    ev = eval_legendre(LegendreParams(4, 1.0, 0.0, 0.995, 0, "p"))
    assert payload["value"] == ev.value
    assert payload["terms"] == [1.0]
    assert payload["mu"]["re"] == pytest.approx(-0.5)
    assert payload["mu"]["im"] == pytest.approx(math.sqrt(63) / 2)


def test_eval_gamma_and_lambda_flags_agree(capsys):
    x = 0.5
    lam = 2.0 * math.sqrt(1 - x * x)
    rc1, out1, _ = run_cli(
        capsys, "eval", "--family", "legendre", "--kind", "q", "--n", "6",
        "--gamma", "2", "--x", str(x), "--json",
    )
    rc2, out2, _ = run_cli(
        capsys, "eval", "--family", "legendre", "--kind", "q", "--n", "6",
        "--lambda", str(lam), "--x", str(x), "--json",
    )
    assert rc1 == rc2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["value"] == pytest.approx(b["value"], rel=1e-12)


def test_eval_plain_text_mode(capsys):
    rc, out, _ = run_cli(
        capsys, "eval", "--family", "bessel", "--kind", "K",
        "--n", "4", "--lambda", "2",
    )
    assert rc == 0
    assert "value = " in out and "terms = [" in out


def test_eval_order_cap(capsys):
    rc, _, err = run_cli(
        capsys, "eval", "--family", "bessel", "--kind", "I",
        "--n", "4", "--lambda", "2", "--order", "99",
    )
    assert rc == 1
    assert "order exceeds K_max" in err


def test_eval_flag_misuse_is_usage_error(capsys):
    bad = [
        ["eval", "--family", "bessel", "--kind", "I", "--n", "4",
         "--lambda", "2", "--x", "0.5"],
        ["eval", "--family", "bessel", "--kind", "Z", "--n", "4", "--lambda", "2"],
        ["eval", "--family", "legendre", "--kind", "p", "--n", "4", "--x", "0.5"],
        ["eval", "--family", "legendre", "--kind", "p", "--n", "4",
         "--gamma", "1", "--lambda", "1", "--x", "0.5"],
    ]
    for argv in bad:
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2, argv
        assert err


@pytest.mark.parametrize("argv,env,code", [
    (["eval", "--family", "bessel", "--kind", "I", "--n", "4", "--lambda", "nan"], {}, 1),
    (["eval", "--family", "legendre", "--kind", "q", "--n", "4",
      "--lambda", "nan", "--x", "0.5"], {}, 1),
    (["eval", "--family", "legendre", "--kind", "p", "--n", "4",
      "--gamma", "nan", "--x", "0.5"], {}, 1),
    (["eval", "--family", "legendre", "--kind", "p", "--n", "4",
      "--gamma", "inf", "--x", "0.5"], {}, 1),
    (["eval", "--family", "legendre", "--kind", "p", "--n", "4",
      "--gamma", "1", "--xi", "nan", "--x", "0.5"], {}, 1),
    (["errtable", "--theta", "nan", "--n", "4",
      "--lambda-min", "1", "--lambda-max", "2", "--steps", "2"], {}, 1),
    (["errtable", "--theta", "0.3", "--n", "4",
      "--lambda-min", "1", "--lambda-max", "2", "--steps", "2"],
     {"UNIASYM_ORACLE_DPS": "4.5"}, 2),
    (["eval", "--family", "legendre", "--kind", "p", "--n", "4", "--x", "0.5",
      "--gamma", "3.3e250"], {}, 1),
    (["eval", "--family", "legendre", "--kind", "p", "--n", "4", "--x", "0.5",
      "--gamma", "1e154"], {}, 1),
    (["eval", "--family", "legendre", "--kind", "p", "--n", "4", "--x", "0.5",
      "--gamma", "9.9e-200"], {}, 1),
    (["eval", "--family", "legendre", "--kind", "p", "--n", "4", "--x", "0.5",
      "--gamma", "1e-80", "--order", "6"], {}, 1),
    (["eval", "--family", "bessel", "--kind", "I", "--n", "1000000",
      "--lambda", "1e303", "--json"], {}, 1),
    (["eval", "--family", "bessel", "--kind", "I", "--n", "1" + "0" * 400,
      "--lambda", "2"], {}, 1),
], ids=["bessel-lambda-nan", "legendre-lambda-nan", "gamma-nan", "gamma-inf",
        "xi-nan", "theta-nan", "dps-env-not-int", "S-overflow", "mu-overflow",
        "coeff-overflow", "coeff-overflow-m6", "log-scale-overflow", "order-too-large"])
def test_non_finite_input_is_one_line_error(argv, env, code):
    proc = subprocess.run(
        [sys.executable, "-m", "uniasym", *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, **env},
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


# Magnitudes over the whole range: uniform in the exponent, plus the
# edge-heavy float draws hypothesis makes by itself.
MAGNITUDES = st.one_of(
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
    st.floats(1e-300, 1e300),
)
OPEN_UNIT = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def eval_argvs(draw):
    family = draw(st.sampled_from(("bessel", "legendre")))
    kinds = BESSEL_KINDS if family == "bessel" else LEGENDRE_KINDS
    argv = ["eval", "--family", family, "--kind", draw(st.sampled_from(kinds)),
            "--n", str(draw(st.integers(1, 10**6))),
            "--order", str(draw(st.integers(0, 6))), "--json"]
    if family == "bessel":
        argv += ["--lambda", repr(draw(MAGNITUDES))]
    else:
        argv += [draw(st.sampled_from(("--gamma", "--lambda"))), repr(draw(MAGNITUDES)),
                 "--xi", repr(draw(OPEN_UNIT)), "--x", repr(draw(OPEN_UNIT))]
    if draw(st.booleans()):
        argv.append("--scaled")
    return argv


def run_captured(argv):
    """main(argv) with stdout and stderr captured; no pytest fixture, so
    hypothesis can call it once per example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_one_line_error(rc, err):
    assert rc in (1, 2, 3)
    assert "Traceback" not in err
    assert "error: " in err
    assert len(err.splitlines()) == 1


@settings(deadline=None, max_examples=60)
@given(eval_argvs())
def test_eval_gives_finite_json_or_one_line_error(argv):
    rc, out, err = run_captured(argv)
    if rc == 0:
        payload = json.loads(out)
        assert math.isfinite(payload["value"])
        assert payload["log_scale"] is None or math.isfinite(payload["log_scale"])
    else:
        assert_one_line_error(rc, err)
        assert out == ""


RATIONAL_TEXT = st.one_of(
    st.fractions(-100, 100, max_denominator=1000).map(str),
    st.sampled_from(("0", "-1", "1/0", "x", "1e300", "1e-300", "-1/8")),
)


@st.composite
def coeffs_argvs(draw):
    family = draw(st.sampled_from(("bessel", "legendre")))
    argv = ["coeffs", "--family", family, "--k", str(draw(st.integers(-1, 7))),
            "--format", draw(st.sampled_from(("json", "text")))]
    for flag in ("--g", "--zeta"):
        if draw(st.booleans()) or family == "legendre":
            argv += [flag, draw(RATIONAL_TEXT)]
    variant = draw(st.sampled_from(((), ("--plus",), ("--bar",))))
    return argv + list(variant)


@settings(deadline=None, max_examples=40)
@given(coeffs_argvs())
def test_coeffs_gives_output_or_one_line_error(argv):
    rc, out, err = run_captured(argv)
    if rc == 0:
        assert out.strip()
        if "json" in argv:
            json.loads(out)
    else:
        assert_one_line_error(rc, err)
        assert out == ""


def mostly(draw, valid, *invalid):
    """A draw from `valid`, or one time in ten one of the `invalid` values."""
    return draw(st.sampled_from(invalid)) if draw(st.integers(0, 9)) == 0 else draw(valid)


# The oracle's cost grows with n gamma, gamma = lambda/sin(theta), so n lambda
# stays <= 40 and theta <= 2.5; past that, near theta = pi, one row takes
# seconds to minutes.  Now and then a flag is out of range, to reach the checks.
@st.composite
def errtable_argvs(draw):
    n = mostly(draw, st.integers(1, 8), 0, -3)
    lam_hi = draw(st.floats(1e-3, 40.0 / max(n, 1)))
    orders = ",".join(map(str, draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))))
    return ["errtable",
            "--theta", repr(mostly(draw, st.floats(1e-3, 2.5), 0.0, math.pi, 4.0)),
            "--xi", repr(draw(st.floats(-1.0, 1.0))), "--n", str(n),
            "--lambda-min", repr(mostly(draw, st.floats(1e-3, lam_hi), -1.0, 2 * lam_hi)),
            "--lambda-max", repr(lam_hi),
            "--steps", str(mostly(draw, st.integers(1, 2), 0)),
            "--orders", mostly(draw, st.just(orders), "7", "-1,0", "x")]


TABLE_HEAD = "errtable --theta 0.3 --n 4 --steps 1 --lambda-min".split()


@settings(deadline=None, max_examples=20)
@given(errtable_argvs())
@example(TABLE_HEAD + ["1e300", "--lambda-max", "1e300"])
@example(TABLE_HEAD + ["1", "--lambda-max", "1", "--xi", "-1e300"])
def test_errtable_gives_finite_csv_or_one_line_error(argv):
    rc, out, err = run_captured(argv)
    if rc == 0:
        lines = out.splitlines()
        assert lines[0] == "lambda,m,rel_err_p,rel_err_q"
        assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))
        return
    assert_one_line_error(rc, err)
    if out:
        # an oracle failure: exit 1, the rows it hit flagged nan, the others finite
        assert rc == 1
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert any(row[2:] == ["nan", "nan"] for row in rows)
        for row in rows:
            assert row[2:] == ["nan", "nan"] or all(math.isfinite(float(x)) for x in row)


def test_eval_domain_error_exit(capsys):
    rc, _, err = run_cli(
        capsys, "eval", "--family", "bessel", "--kind", "I",
        "--n", "0", "--lambda", "2",
    )
    assert rc == 1
    assert "error" in err


# -- coeffs -----------------------------------------------------------------------

def test_coeffs_bessel_text(capsys):
    rc, out, _ = run_cli(
        capsys, "coeffs", "--family", "bessel", "--k", "2", "--format", "text",
    )
    assert rc == 0
    assert out.strip() == "(9/128)*t^2 + (-77/192)*t^4 + (385/1152)*t^6"


def test_coeffs_legendre_text(capsys):
    rc, out, _ = run_cli(
        capsys, "coeffs", "--family", "legendre", "--k", "1",
        "--g", "1", "--zeta", "-1/8", "--format", "text",
    )
    assert rc == 0
    assert out.strip() == "(5/48) + (-5/48)*v^3 + (-1/8)*d"


def test_coeffs_json_roundtrip(capsys):
    rc, out, _ = run_cli(
        capsys, "coeffs", "--family", "legendre", "--k", "2",
        "--g", "7/3", "--zeta", "2/5",
    )
    assert rc == 0
    assert CoeffExpr.from_json(json.loads(out)) == psi(2, Fraction(7, 3), Fraction(2, 5))


def test_coeffs_bar_variant_differs(capsys):
    _, plain, _ = run_cli(
        capsys, "coeffs", "--family", "bessel", "--k", "1", "--format", "text",
    )
    _, barred, _ = run_cli(
        capsys, "coeffs", "--family", "bessel", "--k", "1", "--bar", "--format", "text",
    )
    assert plain.strip() == "(1/8)*t + (-5/24)*t^3"
    assert barred.strip() == "(-3/8)*t + (7/24)*t^3"


def test_coeffs_flag_misuse(capsys):
    rc, _, _ = run_cli(capsys, "coeffs", "--family", "bessel", "--k", "1", "--plus")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "coeffs", "--family", "legendre", "--k", "1")
    assert rc == 2
    rc, _, _ = run_cli(
        capsys, "coeffs", "--family", "legendre", "--k", "1", "--g", "1",
        "--zeta", "1/0",
    )
    assert rc == 2
    rc, _, _ = run_cli(capsys, "coeffs", "--family", "bessel", "--k", "99")
    assert rc == 1


# -- errtable ----------------------------------------------------------------------

TABLE_ARGS = [
    "errtable", "--theta", "0.3", "--xi", "0", "--n", "4",
    "--lambda-min", "1", "--lambda-max", "2", "--steps", "2", "--orders", "0,3",
]


def test_errtable_csv_schema_and_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNIASYM_ORACLE_DPS", "40")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(capsys, *TABLE_ARGS, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *TABLE_ARGS, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    lines = out_a.read_text().splitlines()
    assert lines[0] == "lambda,m,rel_err_p,rel_err_q"
    assert len(lines) == 1 + 2 * 2
    by_key = {}
    for line in lines[1:]:
        lam, m, rp, rq = line.split(",")
        by_key[(float(lam), int(m))] = (float(rp), float(rq))
    for lam in (1.0, 2.0):
        assert abs(by_key[(lam, 3)][0]) < abs(by_key[(lam, 0)][0])
        assert abs(by_key[(lam, 3)][1]) < abs(by_key[(lam, 0)][1])


def test_errtable_stdout_matches_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNIASYM_ORACLE_DPS", "40")
    out = tmp_path / "t.csv"
    assert run_cli(capsys, *TABLE_ARGS, "--out", str(out))[0] == 0
    rc, stdout, _ = run_cli(capsys, *TABLE_ARGS)
    assert rc == 0
    assert stdout == out.read_text()


# Recorded before p took the connection series below x = -0.9.  At theta
# = 0.1 q takes the connection series (x > 0.9); at theta = 2.7 p does.
ERRTABLE_BYTES = {
    "0.1": (
        "lambda,m,rel_err_p,rel_err_q\n"
        "0.5,0,0.0097202942919809195,-0.013445604175786965\n"
        "0.5,1,-0.0016277789034183422,-0.0018320622346039588\n"
        "0.5,2,0.00013313091081279635,-2.9958949747733245e-05\n"
        "0.5,3,3.8394307670300436e-05,6.6993854046751519e-05\n"
        "2,0,0.029477410352349687,-0.030375535635561668\n"
        "2,1,0.00034072043963929315,0.00055803849830322828\n"
        "2,2,-0.00010873646767095239,8.0863204750058747e-05\n"
        "2,3,-1.8347782582056933e-05,-1.5099826721177067e-05\n"
    ),
    "2.7": (
        "lambda,m,rel_err_p,rel_err_q\n"
        "0.5,0,-0.0073697797780741996,0.004855934583673358\n"
        "0.5,1,-0.0012303238393166092,-0.0012090112435536591\n"
        "0.5,2,6.4786920791656911e-05,7.0381699187581248e-05\n"
        "0.5,3,7.52700647480898e-05,6.0025781524866377e-05\n"
        "2,0,-0.0030623340716186237,0.0034831987674283651\n"
        "2,1,0.00022508479575563512,0.0002172321143592043\n"
        "2,2,-9.3184039768162031e-06,-1.5641475707606649e-05\n"
        "2,3,-9.3577930345455421e-06,-1.5602343685293509e-05\n"
    ),
}


@pytest.mark.parametrize("theta", sorted(ERRTABLE_BYTES))
def test_errtable_bytes_are_pinned(theta, capsys, monkeypatch):
    monkeypatch.delenv("UNIASYM_ORACLE_DPS", raising=False)
    rc, out, _ = run_cli(
        capsys, "errtable", "--theta", theta, "--n", "4",
        "--lambda-min", "0.5", "--lambda-max", "2", "--steps", "2",
    )
    assert rc == 0
    assert out == ERRTABLE_BYTES[theta]


def test_errtable_oracle_failure_flags_nan(capsys, monkeypatch):
    import uniasym.cli as cli_mod

    def boom(*a, **kw):
        from uniasym.errors import PrecisionError
        raise PrecisionError("forced")

    monkeypatch.setattr(cli_mod.orc, "p_reference", boom)
    rc, out, err = run_cli(
        capsys, "errtable", "--theta", "0.3", "--n", "4",
        "--lambda-min", "1", "--lambda-max", "1", "--steps", "1",
        "--orders", "0,1",
    )
    assert rc == 1
    assert out.splitlines()[1:] == ["1,0,nan,nan", "1,1,nan,nan"]
    assert "nan" in err


def test_errtable_flag_validation(capsys):
    rc, _, _ = run_cli(
        capsys, "errtable", "--theta", "0.3", "--n", "4",
        "--lambda-min", "1", "--lambda-max", "2", "--steps", "2",
        "--orders", "0,9",
    )
    assert rc == 2
    rc, _, _ = run_cli(
        capsys, "errtable", "--theta", "0.3", "--n", "4",
        "--lambda-min", "-1", "--lambda-max", "2", "--steps", "2",
    )
    assert rc == 1


# -- check -------------------------------------------------------------------------

def test_check_kernel_suite(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "kernel")
    assert rc == 0
    assert "log_cancellation_k<=6: pass" in out


def test_check_legendre_suite(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "legendre")
    assert rc == 0
    assert "psi_endpoint_zero: pass" in out


def test_check_oracle_suite(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "oracle")
    assert rc == 0
    assert "wronskian_residual<=1e-10: pass" in out


ALL_CHECKS = [
    "field_axioms_sample", "antiderivative_rules", "log_cancellation_k<=6",
    "mode_agreement_spectral", "omega_closed_forms", "omega_degree_parity",
    "prefactor_product", "wronskian_residual_decreasing", "order_improvement_oracle",
    "n_scaling_window", "psi_endpoint_zero", "psi1_closed_form",
    "eta_profile_consistency", "expansion_wronskian_decreasing", "bessel_form_agreement",
    "cross_relation_magnitudes", "wronskian_residual<=1e-10", "ferrers_gap",
    "bessel_cross_wronskian", "p_routes_agree", "limit_gap_shrinks",
]


def test_check_all_prints_every_check_in_order(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "all")
    assert rc == 0
    assert out.splitlines() == [f"{name}: pass" for name in ALL_CHECKS]


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "everything"])
    assert exc.value.code == 2


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "uniasym", "check", "--suite", "bessel"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "prefactor_product: pass" in proc.stdout
