"""Spans around the benchmark's own calls into the package.

The package has no hooks, so every layer is measured from outside: the
workload code calls a layer's public function through `Tracer.call`, and
hands the solver a `TracedOracle` where it would hand the plain oracle.
`NullTracer` is the untraced twin: it calls straight through and passes the
program's own oracle object untouched, so untraced runs time the program
as shipped.

A span is (name, start, end, parent, item): parent is the index of the
enclosing span, or -1 at item level.  Spans stay in memory and are reduced
to per-layer metrics when the run ends.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from pliablecover.setfam import FamilyOracle


class NullTracer:
    """Calls straight through; records nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def oracle(self, inner, layer):
        return inner

    def count(self, name, amount=1):
        pass

    def solved(self, trace):
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.item)

    def oracle(self, inner, layer):
        return TracedOracle(inner, layer, self)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def solved(self, trace):
        """Solver counters, read from the trace the program returned."""
        self.counts["wgmv.iterations"] += len(trace.iterations)
        self.counts["wgmv.zero_eps_iters"] += sum(1 for it in trace.iterations if it.eps == 0)
        self.counts["wgmv.ties"] += sum(len(it.ties) for it in trace.iterations)
        self.counts["wgmv.deleted"] += len(trace.deleted)


class TracedOracle(FamilyOracle):
    """Delegating oracle that times `cores` and `is_covered` separately.

    `is_covered` goes to the inner oracle's own `is_covered`, whose inner
    `cores` call is therefore not seen (and not counted) a second time.
    Small-cut calls also count the subsets one full scan enumerates.
    """

    def __init__(self, inner: FamilyOracle, layer: str, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.cores_name = f"{layer}.cores"
        self.covered_name = f"{layer}.covered"
        self.scan_name = "smallcuts.subsets_scanned" if layer == "smallcuts.oracle" else None

    def universe_size(self) -> int:
        return self.inner.universe_size()

    def _scanned(self) -> None:
        if self.scan_name:
            self.tracer.count(self.scan_name, 2 ** self.inner.universe_size() - 2)

    def cores(self, edges):
        self._scanned()
        return self.tracer.call(self.cores_name, self.inner.cores, edges)

    def is_covered(self, edges):
        self._scanned()
        return self.tracer.call(self.covered_name, self.inner.is_covered, edges)


# Span names whose total time and call count are reported as <layer>_s and
# <layer>_calls (or the metric names given here).
_BUSY = {
    "exact.opt": "exact.opt_s",
    "exact.certify": "exact.certify_s",
    "wgmv.solve": "wgmv.solve_s",
    "treeanal.build_tree": "treeanal.build_tree_s",
    "treeanal.verify": "treeanal.verify_s",
    "treeanal.analyze": "treeanal.analyze_s",
    "witness.laminar": "witness.laminar_s",
    "gens": "gens.busy_s",
    "jsonio": "jsonio.busy_s",
    "setfam.check": "setfam.check_s",
    "smallcuts.connectivity": "smallcuts.connectivity_s",
    "setfam.oracle.cores": "setfam.oracle.cores_s",
    "setfam.oracle.covered": "setfam.oracle.covered_s",
    "smallcuts.oracle.cores": "smallcuts.oracle.cores_s",
    "smallcuts.oracle.covered": "smallcuts.oracle.covered_s",
}
_CALLS = {
    "witness.laminar": "witness.calls",
    "gens": "gens.calls",
    "setfam.oracle.cores": "setfam.oracle.cores_calls",
    "setfam.oracle.covered": "setfam.oracle.covered_calls",
    "smallcuts.oracle.cores": "smallcuts.oracle.cores_calls",
    "smallcuts.oracle.covered": "smallcuts.oracle.covered_calls",
}
# Benchmark spans that hand an oracle to the program: their oracle children
# give <layer>_oracle_calls, and their self time excludes the oracle.
_ORACLE_PARENTS = {
    "exact.opt": ("exact.opt_oracle_calls", "exact.opt_self_s"),
    "exact.certify": ("exact.certify_oracle_calls", "exact.certify_self_s"),
    "wgmv.solve": (None, "wgmv.solve_self_s"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce the recorded spans and counters to per-layer metrics.

    A layer that the workload never calls reports 0.
    """
    out: dict[str, float] = {m: 0.0 for m in _BUSY.values()}
    out.update({m: 0 for m in _CALLS.values()})
    for calls_name, self_name in _ORACLE_PARENTS.values():
        if calls_name:
            out[calls_name] = 0
        out[self_name] = 0.0
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
            pname = tracer.spans[parent][0]
            calls_name = _ORACLE_PARENTS.get(pname, (None, None))[0]
            if calls_name and name.endswith(("oracle.cores", "oracle.covered")):
                out[calls_name] += 1
        out[_BUSY[name]] += end - start
        if name in _CALLS:
            out[_CALLS[name]] += 1
    for idx, (name, start, end, _, _) in enumerate(tracer.spans):
        if name in _ORACLE_PARENTS:
            out[_ORACLE_PARENTS[name][1]] += end - start - child_time[idx]
    counts = tracer.counts
    for name in (
        "wgmv.iterations",
        "wgmv.zero_eps_iters",
        "wgmv.ties",
        "wgmv.deleted",
        "smallcuts.subsets_scanned",
        "treeanal.tree_nodes",
        "jsonio.bytes",
    ):
        out[name] = counts[name]
    picked = counts["wgmv.iterations"]
    out["wgmv.delete_ratio"] = counts["wgmv.deleted"] / picked if picked else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
