"""Command-line surface: eval, coeffs, errtable, check.

Exit codes: 0 success, 1 domain error or failing invariant, 2 usage
error, 3 kernel integrity error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction

from . import oracle as orc
from .bessel import BESSEL_KINDS, BesselParams, eval_bessel
from .errors import DomainError, IntegrityError, PrecisionError, ResolutionError, UsageError
from .legendre import LEGENDRE_KINDS, LegendreParams, eval_legendre, mu_of
from .recurrences import (
    K_MAX,
    omega,
    omega_bar,
    psi,
    psi_bar,
    psi_plus,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniasym",
        description="Large-order uniform expansions of a Legendre-type pair "
        "and the matching modified Bessel pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("--family", required=True, choices=("bessel", "legendre"))
    p_eval.add_argument("--kind", required=True)
    p_eval.add_argument("--n", required=True, type=int)
    p_eval.add_argument("--lambda", dest="lam", type=float)
    p_eval.add_argument("--gamma", type=float)
    p_eval.add_argument("--xi", type=float, default=0.0)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--order", type=int, default=3)
    p_eval.add_argument("--scaled", action="store_true",
                        help="report a log-scaled value unconditionally")
    p_eval.add_argument("--json", action="store_true", dest="as_json")

    p_coeffs = sub.add_parser("coeffs", help="dump expansion coefficients exactly")
    p_coeffs.add_argument("--family", required=True, choices=("bessel", "legendre"))
    p_coeffs.add_argument("--k", required=True, type=int)
    p_coeffs.add_argument("--g", type=str, help="rational p/q (legendre only)")
    p_coeffs.add_argument("--zeta", type=str, help="rational p/q (legendre only)")
    p_coeffs.add_argument("--format", choices=("json", "text"), default="json")
    variant = p_coeffs.add_mutually_exclusive_group()
    variant.add_argument("--plus", action="store_true",
                         help="factorial-normalized variant (legendre only)")
    variant.add_argument("--bar", action="store_true",
                         help="derivative-series variant")

    p_table = sub.add_parser("errtable", help="CSV of oracle-relative errors over lambda")
    p_table.add_argument("--theta", required=True, type=float)
    p_table.add_argument("--xi", type=float, default=0.0)
    p_table.add_argument("--n", required=True, type=int)
    p_table.add_argument("--lambda-min", required=True, type=float, dest="lam_min")
    p_table.add_argument("--lambda-max", required=True, type=float, dest="lam_max")
    p_table.add_argument("--steps", required=True, type=int)
    p_table.add_argument("--orders", type=str, default="0,1,2,3")
    p_table.add_argument("--out", type=str, help="output CSV path (default stdout)")

    p_check = sub.add_parser("check", help="run invariant suites")
    p_check.add_argument(
        "--suite",
        required=True,
        choices=("kernel", "bessel", "legendre", "oracle", "all"),
    )
    return parser


def _reject(parser_msg: str) -> int:
    print(f"error: {parser_msg}", file=sys.stderr)
    return 2


def _cmd_eval(args) -> int:
    if args.order > K_MAX:
        print(f"error: order exceeds K_max ({K_MAX})", file=sys.stderr)
        return 1
    if args.order < 0:
        print("error: order must be nonnegative", file=sys.stderr)
        return 1

    if args.family == "bessel":
        if args.kind not in BESSEL_KINDS:
            return _reject(f"--kind must be one of {BESSEL_KINDS} for bessel")
        if args.lam is None:
            return _reject("--lambda is required for the bessel family")
        if args.gamma is not None or args.x is not None:
            return _reject("--gamma/--x are not valid for the bessel family")
        ev = eval_bessel(
            BesselParams(args.n, args.lam, args.order, args.kind), scaled=args.scaled
        )
        names, extra = ("t", "eta"), {}
    else:
        if args.kind not in LEGENDRE_KINDS:
            return _reject(f"--kind must be one of {LEGENDRE_KINDS} for legendre")
        if args.x is None:
            return _reject("--x is required for the legendre family")
        if (args.gamma is None) == (args.lam is None):
            return _reject("give exactly one of --gamma or --lambda")
        if args.gamma is not None:
            gamma = args.gamma
        else:
            sin2 = 1.0 - args.x * args.x
            if sin2 <= 0:
                raise DomainError("|x| must be < 1 to derive gamma from lambda")
            gamma = args.lam / math.sqrt(sin2)
        ev = eval_legendre(
            LegendreParams(args.n, gamma, args.xi, args.x, args.order, args.kind),
            scaled=args.scaled,
        )
        mu = mu_of(args.n, gamma, args.xi)
        names, extra = ("v", "S"), {"mu": {"re": mu.real, "im": mu.imag}}
    payload = {
        "value": ev.value,
        "log_scale": ev.log_scale,
        "terms": list(ev.terms),
        names[0]: ev.arg,
        names[1]: ev.profile,
        **extra,
    }
    if args.as_json:
        print(json.dumps(payload))
    else:
        _print_plain(payload)
    return 0


def _print_plain(payload: dict) -> None:
    for key, val in payload.items():
        if key == "terms":
            rendered = ", ".join(f"{t:.17g}" for t in val)
            print(f"terms = [{rendered}]")
        elif isinstance(val, dict):
            inner = ", ".join(f"{k}={v:.17g}" for k, v in val.items())
            print(f"{key} = ({inner})")
        elif isinstance(val, float):
            print(f"{key} = {val:.17g}")
        else:
            print(f"{key} = {val}")


def _cmd_coeffs(args) -> int:
    if args.k < 0 or args.k > K_MAX:
        print(f"error: k must be in 0..{K_MAX}", file=sys.stderr)
        return 1
    if args.family == "bessel":
        if args.g is not None or args.zeta is not None:
            return _reject("--g/--zeta are not valid for the bessel family")
        if args.plus:
            return _reject("--plus is not defined for the bessel family")
        expr = omega_bar(args.k) if args.bar else omega(args.k)
        var = "t"
    else:
        if args.g is None or args.zeta is None:
            return _reject("--g and --zeta are required for the legendre family")
        try:
            g = Fraction(args.g)
            zeta = Fraction(args.zeta)
        except (ValueError, ZeroDivisionError) as exc:
            return _reject(f"bad rational: {exc}")
        if args.plus:
            expr = psi_plus(args.k, g, zeta)
        elif args.bar:
            expr = psi_bar(args.k, g, zeta)
        else:
            expr = psi(args.k, g, zeta)
        var = "v"
    if args.format == "json":
        print(json.dumps(expr.to_json()))
    else:
        print(expr.render_text(var=var))
    return 0


def _float_ref(value) -> float:
    """An oracle value as a float that a relative error can divide by."""
    out = float(value)
    if out == 0.0 or not math.isfinite(out):
        raise DomainError(f"reference value {out} is outside the float range")
    return out


def _errtable_rows(args, orders: list[int]) -> tuple[list[str], bool]:
    """All CSV data rows in deterministic order; flag whether any oracle failed."""
    x = math.cos(args.theta)
    sin_t = math.sin(args.theta)
    cfg = orc.default_config()
    rows = []
    any_nan = False
    for i in range(args.steps):
        if args.steps == 1:
            lam = args.lam_min
        else:
            lam = args.lam_min + (args.lam_max - args.lam_min) * i / (args.steps - 1)
        gamma = lam / sin_t
        try:
            p_ref = _float_ref(orc.p_reference(args.n, gamma, args.xi, x, cfg).value)
            q_ref = _float_ref(orc.q_reference(args.n, gamma, args.xi, x, cfg).value)
        except (PrecisionError, DomainError):
            for m in orders:
                rows.append(f"{lam:.17g},{m},nan,nan")
            any_nan = True
            continue
        for m in orders:
            p_m = eval_legendre(LegendreParams(args.n, gamma, args.xi, x, m, "p")).value
            q_m = eval_legendre(LegendreParams(args.n, gamma, args.xi, x, m, "q")).value
            rel_p = (p_ref - p_m) / p_ref
            rel_q = (q_ref - q_m) / q_ref
            rows.append(f"{lam:.17g},{m},{rel_p:.17g},{rel_q:.17g}")
    return rows, any_nan


def _cmd_errtable(args) -> int:
    if args.steps < 1:
        return _reject("--steps must be >= 1")
    if not 0 < args.theta < math.pi:
        print(f"error: need 0 < theta < pi, got {args.theta}", file=sys.stderr)
        return 1
    if not math.isfinite(args.xi):
        print(f"error: xi must be finite, got {args.xi}", file=sys.stderr)
        return 1
    if not 0 < args.lam_min <= args.lam_max < math.inf:
        print("error: need 0 < lambda-min <= lambda-max < inf", file=sys.stderr)
        return 1
    try:
        orders = [int(s) for s in args.orders.split(",") if s != ""]
    except ValueError:
        return _reject(f"bad --orders list: {args.orders!r}")
    if not orders or any(m < 0 or m > K_MAX for m in orders):
        return _reject(f"orders must be within 0..{K_MAX}")

    rows, any_nan = _errtable_rows(args, orders)
    text = "lambda,m,rel_err_p,rel_err_q\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any_nan:
        print("error: oracle failed on some rows (flagged nan)", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args) -> int:
    from .checks import run_suite

    results = run_suite(args.suite)
    all_ok = True
    for res in results:
        status = "pass" if res.passed else "fail"
        print(f"{res.name}: {status}")
        if not res.passed:
            print(f"  {res.detail}")
            all_ok = False
    return 0 if all_ok else 1


# Flags whose value may start with "-": argparse would read "-1e-05",
# "-inf", "-1/8" or "-1,0" after them as an option.
_VALUE_FLAGS = (
    "--g", "--zeta", "--lambda", "--gamma", "--xi", "--x",
    "--theta", "--lambda-min", "--lambda-max", "--orders",
)


def _join_value_flags(argv: list[str]) -> list[str]:
    """Fold `--x -1e-05` into `--x=-1e-05` so argparse accepts negative values."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _run(args) -> int:
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "coeffs":
            return _cmd_coeffs(args)
        if args.command == "errtable":
            return _cmd_errtable(args)
        return _cmd_check(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PrecisionError, ResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_value_flags(list(argv)))
    # Warnings are held back and printed one line each after a success, so
    # that a failing command prints its error line alone.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run(args)
    if rc == 0:
        for msg in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {msg}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
