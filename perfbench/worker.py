"""One workload run in its own single-threaded process.

Started by run.py; not meant to be called by hand.  Prints one JSON line
as its last line of standard output.

Times are CPU time of this process (`time.process_time`), not wall
time.  The worker is single-threaded and CPU-bound, so on an idle
machine the two agree; on a shared machine wall time also counts other
processes' work.  Set-up is the CPU time from process start to the
first timed operation: interpreter start, `import uniasym`, input
generation and, for eval_warm, building the chains.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import uniasym from this checkout's source tree and nowhere else."""
    sys.path.insert(0, SRC)
    import uniasym

    if not os.path.abspath(uniasym.__file__).startswith(SRC + os.sep):
        raise ImportError(f"uniasym imported from {uniasym.__file__}, not {SRC}")


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Api:
    """The calls a workload makes into the program, optionally traced."""

    def __init__(self, tracer=None):
        import uniasym
        import uniasym.cli

        wrap = tracer.wrap if tracer else (lambda name, fn: fn)
        self.eval_legendre = wrap("eval.legendre", uniasym.eval_legendre)
        self.eval_bessel = wrap("eval.bessel", uniasym.eval_bessel)
        self.eval_bessel_form = wrap("eval.bessel_form", uniasym.eval_bessel_form)
        self.cli_main = wrap("cli", uniasym.cli.main)
        self.besselI_reference = wrap("oracle.besselI", uniasym.besselI_reference)
        self.besselK_reference = wrap("oracle.besselK", uniasym.besselK_reference)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; below forty samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 40:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer, fresh_during_ops: int, rss_growth_mb: float) -> dict:
    from spans import TAG_BUILD, TAG_LOOKUP

    stats = {}
    build_s = lookup_s = 0.0
    lookups = 0
    for name, tag, dur, self_t in tracer.durations():
        s = stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += dur
        s[2] += self_t
        if tag == TAG_BUILD:
            build_s += dur
        elif tag == TAG_LOOKUP:
            lookup_s += dur
            lookups += 1

    def mean(name: str, scale: float, self_time: bool = False) -> float:
        c, tot, slf = stats.get(name, (0, 0.0, 0.0))
        return (slf if self_time else tot) * scale / c if c else 0.0

    def count(prefix: str) -> int:
        return sum(v[0] for k, v in stats.items() if k.startswith(prefix))

    pairs = len(tracer.pairs)
    return {
        "kernel.build_ms": build_s * 1e3 / pairs if pairs else 0.0,
        "kernel.lookup_us": lookup_s * 1e6 / lookups if lookups else 0.0,
        "kernel.rss_per_pair_mb": rss_growth_mb / fresh_during_ops if fresh_during_ops else 0.0,
        "kernel.fresh_pairs": pairs,
        "legendre.self_us": mean("eval.legendre", 1e6, True),
        "bessel.self_us": mean("eval.bessel", 1e6, True),
        "bessel_form.self_us": mean("eval.bessel_form", 1e6, True),
        "evaluators.calls": count("eval."),
        "oracle.q_ms": mean("oracle.q", 1e3),
        "oracle.p_ms": mean("oracle.p", 1e3),
        "oracle.besselI_ms": mean("oracle.besselI", 1e3),
        "oracle.besselK_ms": mean("oracle.besselK", 1e3),
        "oracle.calls": count("oracle."),
        "cli.self_ms": mean("cli", 1e3, True),
        "trace.op_ms": mean("op", 1e3),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-check", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    _import_program()
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.on = True
    api = Api(tracer)
    wl = workloads.make(args.workload, args.seed, args.seconds, args.small, args.out_dir)
    if tracer:
        idx = tracer.open("setup")
    wl.setup(api)
    if tracer:
        tracer.close(idx)
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    collect = getattr(wl, "collect", None)
    pairs_before = len(tracer.pairs) if tracer else 0
    rss_before = current_rss_mb()
    latencies, outputs, errors = [], [], {}
    for i, op in enumerate(wl.ops):
        if tracer:
            idx = tracer.open("op")
        t0 = time.process_time()
        try:
            out = wl.run(api, op)
        except Exception as exc:  # an operation the program failed: count it
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.process_time() - t0)
        if tracer:
            tracer.close(idx)
        if collect and i not in errors:
            out = (collect(op), out)
        outputs.append(out)
    peak = peak_rss_mb()
    rss_growth = current_rss_mb() - rss_before
    if tracer:
        tracer.on = False

    attempted = len(wl.ops)
    failures = {}
    if args.no_check:
        failed_ops = set(errors)
    else:
        ok = [i for i in range(attempted) if i not in errors]
        res = wl.check([(wl.ops[i], outputs[i]) for i in ok])
        failed_ops = set(errors) | {ok[j] for j, s in enumerate(res.failed) if s}
        failures = dict(res.counts())

    tail_ms, tail_pct = tail(latencies)
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(failed_ops),
        "check_failures": failures,
        "errors": sorted(set(errors.values()))[:5],
        "ops_per_s": attempted / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "tail_percentile": tail_pct,
        "peak_rss_mb": peak,
    }
    if tracer:
        fresh = len(tracer.pairs) - pairs_before
        result["layers"] = layer_metrics(tracer, fresh, rss_growth)
        tracer.write(os.path.join(args.out_dir, f"trace-{args.workload}-s{args.seed}.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
