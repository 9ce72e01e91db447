"""Command surface: flags, exit codes, schemas and CSV determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from uniasym import BesselParams, LegendreParams, eval_bessel, eval_legendre
from uniasym.cli import main
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
], ids=["bessel-lambda-nan", "legendre-lambda-nan", "gamma-nan", "gamma-inf",
        "xi-nan", "theta-nan", "dps-env-not-int"])
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
