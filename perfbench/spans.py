"""In-memory span recorder for the traced benchmark run.

Spans are recorded only by wrappers that the benchmark installs over the
module attributes one layer uses to call the next; nothing inside the
package is edited.  Each span keeps (name, start, end, parent, tag) in
flat arrays and is written out once, when the run ends.  Times are
process CPU time, the clock the worker times operations with.
"""

from __future__ import annotations

import time
from array import array

import uniasym.bessel as _bessel
import uniasym.cli as _cli
import uniasym.legendre as _legendre
import uniasym.oracle as _oracle

# Coefficient functions looked up by the float evaluators, per module.
KERNEL_NAMES = {
    _legendre: ("psi", "psi_bar", "psi_plus", "psi_bar_plus"),
    _bessel: ("omega", "omega_bar"),
}

TAG_NONE, TAG_BUILD, TAG_LOOKUP = 0, 1, 2


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag = array("b")
        self._stack: list[int] = []
        self._seen_coeffs: set = set()
        self.pairs: set = set()

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str, tag: int = TAG_NONE) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.process_time())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.process_time()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_kernel(self, name: str, fn):
        """Coefficient call: the first call per (function, k, g, zeta) is
        tagged a build, every repeat a lookup of a built chain."""

        def traced(k, *args, **kwargs):
            if not self.on:
                return fn(k, *args, **kwargs)
            key = (name, k) + tuple(args)
            if args:
                self.pairs.add(tuple(args))
            if key in self._seen_coeffs:
                tag = TAG_LOOKUP
            else:
                self._seen_coeffs.add(key)
                tag = TAG_BUILD
            idx = self.open(name, tag)
            try:
                return fn(k, *args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind the kernel names the evaluators use and the names the
        CLI uses to reach the oracle and the evaluator."""
        for module, names in KERNEL_NAMES.items():
            for nm in names:
                setattr(module, nm, self.wrap_kernel(f"kernel.{nm}", getattr(module, nm)))
        _cli.eval_legendre = self.wrap("eval.legendre", _cli.eval_legendre)
        _cli.orc = _OracleProxy(self)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,tag\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.tag[i]}\n"
                )

    # -- summaries ---------------------------------------------------------

    def durations(self):
        """(name, tag, duration, self_time) per span; self time excludes
        the part of the span its direct children cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            d = self.end[i] - self.start[i]
            yield self.names[self.name[i]], self.tag[i], d, d - child[i]


class _OracleProxy:
    """Stands in for the oracle module inside `uniasym.cli`, recording a
    span around each reference call."""

    def __init__(self, tracer: Tracer):
        self.p_reference = tracer.wrap("oracle.p", _oracle.p_reference)
        self.q_reference = tracer.wrap("oracle.q", _oracle.q_reference)

    def __getattr__(self, name):
        return getattr(_oracle, name)
