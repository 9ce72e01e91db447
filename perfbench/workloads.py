"""Seeded inputs, operations and output checks of the four workloads.

Every workload turns (seed, seconds) into a fixed list of operations.
The list length depends only on `seconds` and a per-workload nominal
cost, never on how fast the program runs, so two commits measured with
the same settings do the same work (this matters for `peak_rss_mb`,
which grows with every fresh parameter pair).

Checks run after the timed region.  Each compares with a computation
made apart from the code under test (mpmath's Ferrers and Bessel
functions, the oracle's second route, a Wronskian) or with a property
the method must have; none replays a stored output.
"""

from __future__ import annotations

import csv
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp

import uniasym
from uniasym import BesselParams, LegendreParams
from uniasym import oracle as orc
from uniasym.recurrences import K_MAX, psi

# Reference working precision of the mpmath checks.
CHECK_DPS = 30
# Relative truncation error bound of an order-m expansion at order n:
# TOL * n^-(m+1), floored at the float rounding level.  Over 700 random
# inputs of these workloads the largest error times n^(m+1) was 0.06
# (I at n = 11, m = 6) and the largest error at n^(m+1) > 1e8, where
# rounding dominates, 1.9e-11; TOL and TOL_FLOOR leave a margin of 5 or more.
TOL = 1.0
TOL_FLOOR = 1e-10
# Agreement of an errtable cell with the same cell recomputed from an
# independent reference: both are doubles formed from references that
# agree to far more than 17 digits.
CELL_TOL = 1e-13
# The oracle Wronskian p q' - p' q = 1/(1-x^2) at 40 digits.
ORACLE_TOL = 1e-25

LEGENDRE_KINDS = ("p", "q", "dp", "dq")
BESSEL_KINDS = ("I", "K", "dI", "dK")


def trunc_tol(n: int, m: int) -> float:
    return max(TOL * float(n) ** -(m + 1), TOL_FLOOR)


def _mp_value(ev) -> mp.mpf:
    """Function value of a LegendreEval/BesselEval, log scale applied."""
    v = mp.mpf(ev.value)
    return v if ev.log_scale is None else v * mp.exp(ev.log_scale)


def ferrers_p(n: int, gamma: float, xi: float, x: float) -> mp.mpf:
    """p = P^{-n}_mu(x) from mpmath's Ferrers function, with
    mu = -1/2 + sqrt(1 - 8 xi - 4 n^2 gamma^2)/2 computed here."""
    g = mp.mpf(gamma)
    mu = -mp.mpf(1) / 2 + mp.sqrt(1 - 8 * mp.mpf(xi) - 4 * (n * g) ** 2) / 2
    return mp.re(mp.legenp(mu, -n, mp.mpf(x), type=2))


def ferrers_ok(n: int, gamma: float, x: float) -> bool:
    """Where mpmath's Ferrers function converges in milliseconds.  At
    x < 0 or large (1-x) n gamma its hypergeometric sums cancel so badly
    that it takes seconds or fails; there only the Wronskian checks p."""
    return x >= 0.0 and (1.0 - x) * n * gamma <= 400.0


def _rel(a, b) -> float:
    return float(abs(a - b) / abs(b))


def legendre_wronskian(evs: dict, n: int, x: float) -> float:
    """|n (1-x^2)(p dq - dp q) - 1| of one evaluated quadruple."""
    p, q, dp, dq = (_mp_value(evs[k]) for k in LEGENDRE_KINDS)
    return float(abs(n * (1 - mp.mpf(x) ** 2) * (p * dq - dp * q) - 1))


def bessel_wronskian(evs: dict, z: float) -> float:
    """|z (I dK - dI K) + 1| of one evaluated quadruple."""
    i, k, di, dk = (_mp_value(evs[kd]) for kd in BESSEL_KINDS)
    return float(abs(mp.mpf(z) * (i * dk - di * k) + 1))


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of `count` equal cells of [lo, hi), shuffled."""
    cells = list(range(count))
    rng.shuffle(cells)
    return [lo + (hi - lo) * (c + rng.random()) / count for c in cells]


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _count(seconds: float, nominal_s: float) -> int:
    return max(1, round(seconds / nominal_s))


class Result:
    """What one workload run hands back: per-op failed-check names."""

    def __init__(self, n_ops: int):
        self.failed = [set() for _ in range(n_ops)]

    def fail(self, i: int, check: str) -> None:
        self.failed[i].add(check)

    def fail_all(self, idx, check: str) -> None:
        for i in idx:
            self.failed[i].add(check)

    def counts(self) -> Counter:
        return Counter(c for s in self.failed for c in s)


# -- kernel_cold -------------------------------------------------------------

@dataclass(frozen=True)
class ColdPair:
    n: int
    lam: float
    theta: float
    xi: float

    @property
    def gamma(self) -> float:
        # the same float eval_bessel_form derives, so both evaluators
        # build one chain
        return self.lam / math.sin(self.theta)

    @property
    def x(self) -> float:
        return math.cos(self.theta)


class KernelCold:
    """First evaluation at (gamma, xi) pairs never seen before."""

    name = "kernel_cold"
    nominal_s = 0.45
    XI = (0.0, 0.25, -0.25, 0.5)

    def __init__(self, seed: int, seconds: float, small: bool):
        rng = random.Random(f"{self.name}:{seed}")
        count = 3 if small else _count(seconds, self.nominal_s)
        lams = _stratified(rng, count, 0.5, 10.0)
        thetas = _stratified(rng, count, 0.05, 1.2)
        seen = set()
        self.ops = []
        for i in range(count):
            xi = self.XI[(i // 4) % 4]
            while True:
                theta = thetas[i]
                lam = self._dyadic_lam(rng, theta) if i % 4 == 3 else lams[i]
                if lam is not None:
                    pair = ColdPair(rng.randint(8, 32), lam, theta, xi)
                    if (pair.gamma, xi) not in seen:
                        break
                thetas[i] = rng.uniform(0.05, 1.2)
            seen.add((pair.gamma, xi))
            self.ops.append(pair)

    @staticmethod
    def _dyadic_lam(rng: random.Random, theta: float) -> float | None:
        """lam with lam/sin(theta) a short dyadic k/8, so g is the square
        of a small rational; None if no float lam near gamma sin(theta)
        gives back gamma exactly."""
        gamma = rng.randint(4, 160) / 8
        s = math.sin(theta)
        lam = gamma * s
        for _ in range(64):
            got = lam / s
            if got == gamma:
                return lam
            lam = math.nextafter(lam, math.inf if got < gamma else -math.inf)
        return None

    def setup(self, api) -> None:
        pass

    def run(self, api, op: ColdPair):
        leg = {
            kd: api.eval_legendre(LegendreParams(op.n, op.gamma, op.xi, op.x, K_MAX, kd))
            for kd in LEGENDRE_KINDS
        }
        form = {
            kd: api.eval_bessel_form(op.n, op.lam, op.theta, op.xi, K_MAX, kd)
            for kd in LEGENDRE_KINDS
        }
        return leg, form

    def check(self, items) -> Result:
        res = Result(len(items))
        m = K_MAX
        for i, (op, (leg, form)) in enumerate(items):
            g, zeta = uniasym.exact_params(op.gamma, op.xi)
            for k in range(1, m + 1):
                if psi(k, g, zeta).value_at_one() != 0:
                    res.fail(i, "endpoint")
            tol = trunc_tol(op.n, m)
            with mp.workdps(CHECK_DPS):
                if ferrers_ok(op.n, op.gamma, op.x):
                    ref = ferrers_p(op.n, op.gamma, op.xi, op.x)
                    if _rel(_mp_value(leg["p"]), ref) > tol:
                        res.fail(i, "legenp")
                    if _rel(_mp_value(form["p"]), ref) > tol:
                        res.fail(i, "legenp_form")
                if legendre_wronskian(leg, op.n, op.x) > tol:
                    res.fail(i, "wronskian")
                if legendre_wronskian(form, op.n, op.x) > tol:
                    res.fail(i, "wronskian_form")
                if any(_rel(_mp_value(form[kd]), _mp_value(leg[kd])) > tol
                       for kd in LEGENDRE_KINDS):
                    res.fail(i, "rearranged")
        return res


# -- eval_warm ---------------------------------------------------------------

class Val(NamedTuple):
    value: float
    log_scale: float | None


@dataclass(frozen=True)
class WarmCall:
    family: str  # "legendre", "form" or "bessel"
    group: int  # index of the (point, m) quadruple the call belongs to
    args: tuple


class EvalWarm:
    """Warm evaluator calls on pairs whose chains set-up built.

    Per pair: Legendre and Bessel-form quadruples (all four kinds) at
    m = 3 (two points each) and m = 6 (one each), and Bessel I, K, dI, dK
    quadruples at m = 3 and 6: 32 single calls.  One operation is a
    sweep of all pairs' calls in one seeded order.  Single calls cost
    50-1000 us, and the top ten of some 50 000 in a run measure the
    machine, not the program; a sweep of one pair makes the tail the
    dearest pair, which the seed picks.  Every whole sweep does the
    same work.
    """

    name = "eval_warm"
    PAIRS = 12
    nominal_sweep_s = 0.13
    XI = 0.0
    PLAN = (("legendre", 3), ("legendre", 3), ("legendre", 6),
            ("form", 3), ("form", 3), ("form", 6),
            ("bessel", 3), ("bessel", 6))

    def __init__(self, seed: int, seconds: float, small: bool):
        rng = random.Random(f"{self.name}:{seed}")
        n_pairs = 2 if small else self.PAIRS
        self.theta = rng.uniform(0.3, 0.5)
        self.xi = self.XI
        lam_min, lam_max = rng.uniform(0.5, 0.6), rng.uniform(9.5, 10.5)
        self.lams = [
            lam_min + (lam_max - lam_min) * j / (n_pairs - 1) for j in range(n_pairs)
        ]
        self.groups = []  # (family, n, m, point) per quadruple
        calls = []
        for lam in self.lams:
            gamma = lam / math.sin(self.theta)
            for family, m in self.PLAN:
                n = _log_uniform_int(rng, 4, 128)
                if family == "legendre":
                    point = (gamma, rng.uniform(-0.95, 0.95))
                elif family == "form":
                    point = (lam,)
                else:
                    point = (rng.uniform(0.1, 20.0),)
                gi = len(self.groups)
                self.groups.append((family, n, m, point))
                kinds = BESSEL_KINDS if family == "bessel" else LEGENDRE_KINDS
                calls += [WarmCall(family, gi, (n, m, kd) + point) for kd in kinds]
        rng.shuffle(calls)
        sweeps = 1 if small else _count(seconds, self.nominal_sweep_s)
        self.ops = [tuple(calls)] * sweeps

    def _call(self, api, c: WarmCall):
        n, m, kd = c.args[:3]
        if c.family == "legendre":
            gamma, x = c.args[3:]
            return api.eval_legendre(LegendreParams(n, gamma, self.xi, x, m, kd))
        if c.family == "form":
            return api.eval_bessel_form(n, c.args[3], self.theta, self.xi, m, kd)
        return api.eval_bessel(BesselParams(n, c.args[3], m, kd))

    def setup(self, api) -> None:
        """Build every pair's chains to K_MAX, and the Bessel chain."""
        x = math.cos(self.theta)
        for lam in self.lams:
            gamma = lam / math.sin(self.theta)
            for kd in LEGENDRE_KINDS:
                api.eval_legendre(LegendreParams(4, gamma, self.xi, x, K_MAX, kd))
                api.eval_bessel_form(4, lam, self.theta, self.xi, K_MAX, kd)
        for kd in BESSEL_KINDS:
            api.eval_bessel(BesselParams(4, 1.0, K_MAX, kd))

    def run(self, api, sweep: tuple):
        out = []
        for c in sweep:
            ev = self._call(api, c)
            out.append(Val(ev.value, ev.log_scale))
        return out

    def check(self, items) -> Result:
        res = Result(len(items))
        first = {}
        by_group = {}
        for i, (sweep, vals) in enumerate(items):
            for c, v in zip(sweep, vals):
                if first.setdefault(c, v) != v:
                    res.fail(i, "repeatable")
                by_group.setdefault(c.group, set()).add(i)
        quads = {}
        for c, v in first.items():
            quads.setdefault(c.group, {})[c.args[2]] = v
        for gi, idx in by_group.items():
            family, n, m, point = self.groups[gi]
            for check in self._check_group(family, n, m, point, quads[gi]):
                res.fail_all(idx, check)
        return res

    def _check_group(self, family, n, m, point, evs) -> list[str]:
        """Check one quadruple of values the timed calls returned."""
        bad = []
        with mp.workdps(CHECK_DPS):
            if family == "bessel":
                (lam,) = point
                z = mp.mpf(n) * mp.mpf(lam)
                tol = trunc_tol(n, m)
                if _rel(_mp_value(evs["I"]), mp.besseli(n, z)) > tol:
                    bad.append("besseli")
                if _rel(_mp_value(evs["K"]), mp.besselk(n, z)) > tol:
                    bad.append("besselk")
                if bessel_wronskian(evs, z) > tol:
                    bad.append("wronskian_bessel")
                return bad
            if family == "legendre":
                gamma, x = point
            else:
                (lam,) = point
                gamma, x = lam / math.sin(self.theta), math.cos(self.theta)
                tol = trunc_tol(n, m)
                for kd in LEGENDRE_KINDS:
                    plain = uniasym.eval_legendre(LegendreParams(n, gamma, self.xi, x, m, kd))
                    if _rel(_mp_value(evs[kd]), _mp_value(plain)) > tol:
                        bad.append("rearranged")
                        break
            if ferrers_ok(n, gamma, x) and _rel(
                _mp_value(evs["p"]), ferrers_p(n, gamma, self.xi, x)
            ) > trunc_tol(n, m):
                bad.append("legenp")
            if legendre_wronskian(evs, n, x) > trunc_tol(n, m):
                bad.append("wronskian")
        return bad


# -- errtable_axis / errtable_wide -------------------------------------------

ORDERS = (0, 1, 2, 3)


def read_errtable(path: str) -> dict[int, tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["m"]): (float(r["rel_err_p"]), float(r["rel_err_q"])) for r in rows}


def _cell_ok(csv_rel: float, ref, approx: float) -> bool:
    """The CSV cell against (ref - approx)/ref recomputed from `ref`."""
    r = float(ref)
    return abs(csv_rel - (r - approx) / r) <= CELL_TOL * max(1.0, abs(csv_rel))


def _falls_in_m(errs: list[float]) -> bool:
    return all(a > b for a, b in zip(errs, errs[1:]))


@dataclass(frozen=True)
class TableRow:
    n: int
    lam: float


class _ErrTable:
    """`errtable` called in-process through `uniasym.cli.main`, one
    operation per (n, lambda) row."""

    theta: float
    xi = 0.0

    def __init__(self, seed: int, out_dir: str):
        self.csv_path = os.path.join(out_dir, f"{self.name}-s{seed}.csv")

    def setup(self, api) -> None:
        pass

    def _table(self, api, row: TableRow):
        argv = ["errtable", "--theta", repr(self.theta), "--xi", repr(self.xi),
                "--n", str(row.n), "--lambda-min", repr(row.lam),
                "--lambda-max", repr(row.lam), "--steps", "1",
                "--orders", ",".join(map(str, ORDERS)), "--out", self.csv_path]
        code = api.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"errtable exited {code}")

    def collect(self, row: TableRow):
        """Untimed: read back the CSV the operation wrote."""
        return read_errtable(self.csv_path)

    def _point(self, row: TableRow):
        # the same floats uniasym.cli derives
        return row.lam / math.sin(self.theta), math.cos(self.theta)

    def _approx(self, row: TableRow, m: int, kind: str) -> float:
        gamma, x = self._point(row)
        return uniasym.eval_legendre(LegendreParams(row.n, gamma, self.xi, x, m, kind)).value

    def _check_p(self, res: Result, i: int, row: TableRow, table) -> None:
        gamma, x = self._point(row)
        with mp.workdps(CHECK_DPS):
            ref = ferrers_p(row.n, gamma, self.xi, x)
        if not all(_cell_ok(table[m][0], ref, self._approx(row, m, "p")) for m in ORDERS):
            res.fail(i, "p_column")

    @staticmethod
    def _check_shape(res: Result, items, pick, checks) -> None:
        """The uniform error over each n's table falls strictly in m.
        pick(output) gives {m: (error, ...)}, one column per check name."""
        by_n = {}
        for i, (row, out) in enumerate(items):
            by_n.setdefault(row.n, []).append((i, pick(out)))
        for entries in by_n.values():
            idx = [i for i, _ in entries]
            for col, check in enumerate(checks):
                errs = [max(abs(t[m][col]) for _, t in entries) for m in ORDERS]
                if not _falls_in_m(errs):
                    res.fail_all(idx, check)


class ErrtableAxis(_ErrTable):
    """Headline near-axis table: theta = 0.1 (x = 0.995), n = 4, where
    `q_reference` takes the reduction-of-order integral."""

    name = "errtable_axis"
    nominal_s = 25.0
    theta = 0.1
    N = 4
    LAM = 4.0
    # Relative jitter of lambda.  The integral route's cost is not smooth
    # in lambda (25.7 s at 3.8, 21.2 s at 4.2), so with one operation per
    # run a wider draw would measure the input, not the program.
    JITTER = 1e-4

    def __init__(self, seed: int, seconds: float, small: bool, out_dir: str):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}:{seed}")
        count = 1 if small else _count(seconds, self.nominal_s)
        self.ops = [
            TableRow(self.N, self.LAM * (1 + self.JITTER * rng.uniform(-1, 1)))
            for _ in range(count)
        ]

    def run(self, api, row: TableRow):
        self._table(api, row)

    def check(self, items) -> Result:
        res = Result(len(items))
        for i, (row, (table, _)) in enumerate(items):
            self._check_p(res, i, row, table)
            gamma, x = self._point(row)
            ref = orc.q_reference(row.n, gamma, self.xi, x, method="reflection").value
            if not all(_cell_ok(table[m][1], ref, self._approx(row, m, "q")) for m in ORDERS):
                res.fail(i, "q_column")
        self._check_shape(res, items, lambda out: out[0], ("shape_p", "shape_q"))
        return res


class ErrtableWide(_ErrTable):
    """Wide-angle tables (theta = 0.5, x = 0.878) for n = 4 and 8, each
    row also grading the Bessel I and K expansions against the oracle at
    z = n lambda <= 80."""

    name = "errtable_wide"
    nominal_s = 0.45
    theta = 0.5
    NS = (4, 8)
    LAM_RANGE = (0.5, 10.0)

    def __init__(self, seed: int, seconds: float, small: bool, out_dir: str):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}:{seed}")
        per_n = 1 if small else max(1, _count(seconds, self.nominal_s) // len(self.NS))
        cols = [[TableRow(n, lam) for lam in _stratified(rng, per_n, *self.LAM_RANGE)]
                for n in self.NS]
        self.ops = [row for pair in zip(*cols) for row in pair]

    def run(self, api, row: TableRow):
        self._table(api, row)
        z = row.n * row.lam
        i_ref = api.besselI_reference(row.n, z)
        k_ref = api.besselK_reference(row.n, z)
        grades = {}
        for m in ORDERS:
            i_m = api.eval_bessel(BesselParams(row.n, row.lam, m, "I")).unscaled()
            k_m = api.eval_bessel(BesselParams(row.n, row.lam, m, "K")).unscaled()
            grades[m] = (float((i_ref.value - i_m) / i_ref.value),
                         float((k_ref.value - k_m) / k_ref.value))
        return i_ref.value, k_ref.value, grades

    def check(self, items) -> Result:
        """items: (row, (table, (I_ref, K_ref, grades))) per operation."""
        res = Result(len(items))
        cfg = orc.OracleConfig(dps=40)
        for i, (row, (table, (i_ref, k_ref, grades))) in enumerate(items):
            self._check_p(res, i, row, table)
            gamma, x = self._point(row)
            pv = orc.p_reference(row.n, gamma, self.xi, x, cfg)
            qv = orc.q_reference(row.n, gamma, self.xi, x, cfg)
            with mp.workdps(cfg.dps):
                w = (pv.value * qv.derivative - pv.derivative * qv.value) * (1 - mp.mpf(x) ** 2)
                if abs(w - 1) > ORACLE_TOL:
                    res.fail(i, "oracle_wronskian")
            if not all(_cell_ok(table[m][1], qv.value, self._approx(row, m, "q")) for m in ORDERS):
                res.fail(i, "q_column")
            with mp.workdps(CHECK_DPS + 10):
                z = mp.mpf(row.n * row.lam)
                i_mp, k_mp = mp.besseli(row.n, z), mp.besselk(row.n, z)
                # the K quadrature promises half the working digits
                tol = 10.0 ** -(orc.default_config().dps // 2)
                if _rel(i_ref, i_mp) > tol or _rel(k_ref, k_mp) > tol:
                    res.fail(i, "bessel_oracle")
                for m in ORDERS:
                    i_m = uniasym.eval_bessel(BesselParams(row.n, row.lam, m, "I")).unscaled()
                    k_m = uniasym.eval_bessel(BesselParams(row.n, row.lam, m, "K")).unscaled()
                    if not (_cell_ok(grades[m][0], i_mp, i_m) and _cell_ok(grades[m][1], k_mp, k_m)):
                        res.fail(i, "bessel_grade")
                        break
        self._check_shape(res, items, lambda out: out[0], ("shape_p", "shape_q"))
        self._check_shape(res, items, lambda out: out[1][2], ("shape_I", "shape_K"))
        return res


def make(name: str, seed: int, seconds: float, small: bool, out_dir: str):
    if name == "kernel_cold":
        return KernelCold(seed, seconds, small)
    if name == "eval_warm":
        return EvalWarm(seed, seconds, small)
    if name == "errtable_axis":
        return ErrtableAxis(seed, seconds, small, out_dir)
    if name == "errtable_wide":
        return ErrtableWide(seed, seconds, small, out_dir)
    raise ValueError(f"unknown workload {name!r}")

