"""Wire formats: canonical JSON for every object the tools exchange.

Rationals travel as ``[numerator, denominator]`` pairs (always in lowest
terms, denominator positive), node sets as sorted vertex lists, and every
document carries a schema version.  `dumps_canonical` fixes key order and
separators, so equal objects serialize to identical bytes; instance digests
are sha256 over that canonical form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .exact import Certificate
from .setfam import CheckResult, ExplicitFamily, FamilyOracle, ExplicitFamilyOracle, NodeSet
from .smallcuts import CapGraph, SmallCutsOracle, materialize_family
from .treeanal import AnalysisReport, BoundReport
from .wgmv import CostedGraph, DualState, IterationRecord, RunTrace

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    """The JSON parsed, but does not match the expected document shape."""


def dumps_canonical(obj: Any) -> str:
    # Every document is built fresh by a `*_to_json` function, so none is
    # cyclic and the encoder's cycle check is skipped; a cyclic one would
    # still fail, with RecursionError.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def frac_to_json(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _is_int(v: Any) -> bool:
    """True for a JSON integer; booleans, though Python ints, are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def frac_from_json(v: Any, where: str) -> Fraction:
    if not isinstance(v, list) or len(v) != 2 or not all(map(_is_int, v)):
        raise SchemaError(f"{where}: expected [numerator, denominator], got {v!r}")
    if v[1] <= 0:
        raise SchemaError(f"{where}: denominator must be positive")
    return Fraction(v[0], v[1])


def nodeset_to_json(s: NodeSet) -> list[int]:
    return list(s.members())


def _list(v: Any, where: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"{where}: expected a list")
    return v


def _each(v: Any, where: str, read: Callable[..., Any], *args: Any) -> list:
    """`read(x, f"{where}[{i}]", *args)` for each element x of the list `v`."""
    return [read(x, f"{where}[{i}]", *args) for i, x in enumerate(_list(v, where))]


def _int_list(v: Any, where: str) -> list[int]:
    # The element types, collected in one pass, settle the common case; an
    # int subclass other than bool is tested element by element.
    if not isinstance(v, list) or not ({*map(type, v)} <= {int} or all(map(_is_int, v))):
        raise SchemaError(f"{where}: expected a list of integers")
    return v


def _nodeset(v: Any, where: str, n: int, known: dict[tuple[int, ...], NodeSet]) -> NodeSet:
    """A node-set list over universe size n; a bad node names `where`.

    `known` holds the sets read so far by member list, so every list is
    checked but each distinct one becomes one NodeSet, shared by every
    place that lists it."""
    key = tuple(_int_list(v, where))
    s = known.get(key)
    if s is None:
        try:
            s = known[key] = NodeSet.from_members(n, key)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return s


def _get(d: Any, key: str, where: str) -> Any:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in d:
        raise SchemaError(f"{where}: missing key {key!r}")
    return d[key]


def _check_version(doc: Any, where: str) -> None:
    """Refuse a document whose `version` is missing or not this schema's."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if doc.get("version") != SCHEMA_VERSION:
        got = repr(doc["version"]) if "version" in doc else "no version"
        raise SchemaError(f"{where}.version: expected {SCHEMA_VERSION!r}, got {got}")


def _size(doc: Any, where: str) -> int:
    n = _get(doc, "n", where)
    if not _is_int(n) or n < 0:
        raise SchemaError(f"{where}.n: expected a nonnegative integer")
    return n


def _rational_edge(row: Any, where: str, value: str) -> tuple[int, int, Fraction]:
    """One ``[u, v, rational]`` row; `value` names the third field."""
    if not isinstance(row, list) or len(row) != 3:
        raise SchemaError(f"{where}: expected [u, v, {value}]")
    u, v = row[0], row[1]
    if not _is_int(u) or not _is_int(v):
        raise SchemaError(f"{where}: endpoints must be integers")
    return u, v, frac_from_json(row[2], f"{where}.{value}")


# ---------------------------------------------------------------------------
# Families and graphs


def family_to_json(f: ExplicitFamily) -> dict:
    return {
        "kind": "explicit",
        "n": f.n,
        "members": [nodeset_to_json(s) for s in f.members],
    }


def capgraph_to_json(h: CapGraph) -> dict:
    return {
        "kind": "small-cuts",
        "n": h.n,
        "capacities": [[u, v, frac_to_json(c)] for u, v, c in h.edges],
        "threshold": frac_to_json(h.k),
    }


def family_spec_from_json(doc: Any, where: str = "family") -> ExplicitFamily | CapGraph:
    kind = _get(doc, "kind", where)
    n = _size(doc, where)
    if kind == "explicit":
        members = _each(_get(doc, "members", where), f"{where}.members", _int_list)
        try:  # a set that from_sets refuses is reported under `where`
            return ExplicitFamily.from_sets(n, members)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if kind == "small-cuts":
        edges = _each(_get(doc, "capacities", where), f"{where}.capacities", _rational_edge, "cap")
        k = frac_from_json(_get(doc, "threshold", where), f"{where}.threshold")
        try:
            return CapGraph(n, tuple(edges), k)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}.kind: unknown family kind {kind!r}")


def as_explicit_family(spec: ExplicitFamily | CapGraph) -> ExplicitFamily:
    """The family itself, or the member list of a small-cut family."""
    return spec if isinstance(spec, ExplicitFamily) else materialize_family(spec)


def graph_to_json(g: CostedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [[u, v, frac_to_json(c)] for u, v, c in g.edges],
    }


def graph_from_json(doc: Any) -> CostedGraph:
    n = _size(doc, "graph")
    edges = _each(_get(doc, "edges", "graph"), "graph.edges", _rational_edge, "cost")
    try:
        return CostedGraph(n, tuple(edges))
    except ValueError as exc:
        raise SchemaError(f"graph: {exc}") from exc


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class Instance:
    """A covering problem: candidate edges plus the family to cover."""

    graph: CostedGraph
    family: ExplicitFamily | CapGraph

    def oracle(self) -> FamilyOracle:
        if isinstance(self.family, ExplicitFamily):
            return ExplicitFamilyOracle(self.family)
        return SmallCutsOracle(self.family)

    def explicit_family(self) -> ExplicitFamily:
        return as_explicit_family(self.family)


def instance_to_json(inst: Instance) -> dict:
    fam = (
        family_to_json(inst.family)
        if isinstance(inst.family, ExplicitFamily)
        else capgraph_to_json(inst.family)
    )
    return {
        "version": SCHEMA_VERSION,
        "graph": graph_to_json(inst.graph),
        "family": fam,
    }


def instance_from_json(doc: Any) -> Instance:
    _check_version(doc, "instance")
    graph = graph_from_json(_get(doc, "graph", "instance"))
    family = family_spec_from_json(_get(doc, "family", "instance"))
    fam_n = family.n
    if fam_n != graph.n:
        raise SchemaError(
            f"instance: graph universe {graph.n} differs from family universe {fam_n}"
        )
    return Instance(graph, family)


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(dumps_canonical(instance_to_json(inst)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Traces, certificates, reports


def _iteration_to_json(it: IterationRecord) -> dict:
    return {
        "cores": [nodeset_to_json(c) for c in it.cores],
        "eps": frac_to_json(it.eps),
        "added": it.added,
        "ties": list(it.ties),
    }


def _dual_to_json(d: DualState) -> dict:
    return {
        "values": [[nodeset_to_json(s), frac_to_json(y)] for s, y in d.values],
        "loads": [frac_to_json(x) for x in d.loads],
    }


def trace_to_json(g: CostedGraph, trace: RunTrace, digest: str = "") -> dict:
    return {
        "version": SCHEMA_VERSION,
        "instance_digest": digest,
        "iterations": [_iteration_to_json(it) for it in trace.iterations],
        "deleted": list(trace.deleted),
        "solution": list(trace.solution),
        "dual": _dual_to_json(trace.dual),
        "cost": frac_to_json(trace.solution_cost(g)),
        "dual_objective": frac_to_json(trace.dual.objective()),
    }


def _edge_id(v: Any, where: str, m: int) -> int:
    if not _is_int(v) or not 0 <= v < m:
        raise SchemaError(f"{where}: {v!r} is not an edge id of a graph with {m} edges")
    return v


def _edge_ids(v: Any, where: str, m: int) -> tuple[int, ...]:
    """A list of edge ids; the first bad one is reported as `_edge_id`
    reports it."""
    ids = _int_list(v, where)
    if ids and (min(ids) < 0 or max(ids) >= m):
        for x in ids:
            _edge_id(x, where, m)
    return tuple(ids)


def _iteration(row: Any, where: str, n: int, m: int, known: dict[tuple[int, ...], NodeSet]) -> IterationRecord:
    return IterationRecord(
        cores=tuple(_each(_get(row, "cores", where), f"{where}.cores", _nodeset, n, known)),
        eps=frac_from_json(_get(row, "eps", where), f"{where}.eps"),
        added=_edge_id(_get(row, "added", where), f"{where}.added", m),
        ties=_edge_ids(_get(row, "ties", where), f"{where}.ties", m),
    )


def _dual_value(row: Any, where: str, n: int, known: dict[tuple[int, ...], NodeSet]) -> tuple[NodeSet, Fraction]:
    if not isinstance(row, list) or len(row) != 2:
        raise SchemaError(f"{where}: expected [members, value]")
    return _nodeset(row[0], f"{where}[0]", n, known), frac_from_json(row[1], where)


def trace_from_json(doc: Any, g: CostedGraph, digest: str | None = None) -> RunTrace:
    """Parse a trace of a run on `g`; every edge id must index `g.edges`.

    When `digest` is given, the trace's `instance_digest` must be it or
    empty (as `trace_to_json` writes by default).  Each distinct member
    list becomes one NodeSet, shared by the iterations and the dual values
    that list it, as in a solved trace.
    """
    _check_version(doc, "trace")
    n, m = g.n, len(g.edges)
    if digest is not None:
        claimed = doc.get("instance_digest", "")
        if not isinstance(claimed, str):
            raise SchemaError("trace.instance_digest: expected a string")
        if claimed and claimed != digest:
            raise SchemaError(
                f"trace.instance_digest: the trace is of instance {claimed}, not of this one ({digest})"
            )
    known: dict[tuple[int, ...], NodeSet] = {}
    iters = _each(_get(doc, "iterations", "trace"), "trace.iterations", _iteration, n, m, known)
    dual = _get(doc, "dual", "trace")
    values = _each(_get(dual, "values", "trace.dual"), "trace.dual.values", _dual_value, n, known)
    loads = _each(_get(dual, "loads", "trace.dual"), "trace.dual.loads", frac_from_json)
    deleted, solution = (
        _edge_ids(_get(doc, key, "trace"), f"trace.{key}", m)
        for key in ("deleted", "solution")
    )
    if any(a >= b for a, b in zip(solution, solution[1:])):
        raise SchemaError(f"trace.solution: expected strictly ascending edge ids, got {list(solution)}")
    return RunTrace(
        iterations=tuple(iters),
        deleted=deleted,
        solution=solution,
        dual=DualState(values=tuple(values), loads=tuple(loads)),
    )


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "instance_digest": cert.instance_digest,
        "family_class": cert.family_class,
        "beta": cert.beta,
        "factor": frac_to_json(cert.factor),
        "primal_cost": frac_to_json(cert.primal_cost),
        "dual_objective": frac_to_json(cert.dual_objective),
        "opt_cost": None if cert.opt_cost is None else frac_to_json(cert.opt_cost),
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in cert.checks
        ],
        "iterations": [
            {
                "index": r.index,
                "num_cores": r.num_cores,
                "load": r.load,
                "bound": frac_to_json(r.bound),
                "ok": r.ok,
            }
            for r in cert.iteration_rows
        ],
        "verdict": cert.verdict,
    }


def bound_report_to_json(rep: BoundReport) -> dict:
    return {
        "family_class": rep.family_class,
        "beta": rep.beta,
        "total_weight": rep.total_weight,
        "counts": {
            "black": rep.num_black,
            "white": rep.num_white_all,
            "white_surviving": rep.num_white_surviving,
            "leaves": rep.num_leaves,
            "cores": rep.num_cores,
            "tree_edges": rep.num_tree_edges,
        },
        "classifications": [[i, shape] for i, shape in rep.classifications],
        "bad_pairs": [[p.lower, p.upper] for p in rep.bad_pairs],
        "reassignment": {
            "chosen": [[hi, lo] for hi, lo in rep.reassignment.chosen],
            "weights_after": list(rep.reassignment.weights_after),
            "max_before": rep.reassignment.max_before,
            "max_after": rep.reassignment.max_after,
        },
        "bounds": [
            {"name": b.name, "lhs": frac_to_json(b.lhs), "rhs": frac_to_json(b.rhs), "ok": b.ok}
            for b in rep.bounds
        ],
        "violations": list(rep.violations),
        "info": list(rep.info),
        "ok": rep.ok,
    }


def analysis_to_json(report: AnalysisReport) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "family_class": report.family_class,
        "beta": report.beta,
        "ok": report.ok,
        "iterations": [
            {
                "index": it.index,
                "cores": [nodeset_to_json(c) for c in it.cores],
                "cover_edges": list(it.cover_edge_ids),
                "violations": list(it.violations),
                "report": None if it.report is None else bound_report_to_json(it.report),
                "ok": it.ok,
            }
            for it in report.iterations
        ],
    }


def check_result_to_json(result: CheckResult) -> dict:
    # Every class check is exact, so "mode" is a constant that keeps the
    # bytes of earlier outputs.
    return {
        "property": result.property_name,
        "holds": result.holds,
        "counterexample": result.counterexample,
        "mode": "exhaustive",
        "version": SCHEMA_VERSION,
    }


# ---------------------------------------------------------------------------
# Generator bundles


def bundle_to_json(bundle) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "kind": bundle.kind,
        "leaves": bundle.leaves,
        "beta": bundle.beta,
        "n": bundle.n,
        "graph": graph_to_json(bundle.graph),
        "family": family_to_json(bundle.family),
        "witness": [nodeset_to_json(w) for w in bundle.witness],
        "cores": [nodeset_to_json(c) for c in bundle.cores],
        "total_cost": frac_to_json(bundle.total_cost),
        "dual_objective": frac_to_json(bundle.dual_objective),
        "ratio": frac_to_json(bundle.ratio),
    }
    return doc


def bundle_parts_from_json(doc: Any) -> tuple[CostedGraph, ExplicitFamily, list[NodeSet], list[NodeSet]]:
    """Graph, family, witness list, core list of a serialized bundle; a
    witness or core set that is listed as a family member is that member's
    NodeSet."""
    _check_version(doc, "bundle")
    graph = graph_from_json(_get(doc, "graph", "bundle"))
    fam = family_spec_from_json(_get(doc, "family", "bundle"), "bundle.family")
    if not isinstance(fam, ExplicitFamily):
        raise SchemaError("bundle.family: expected an explicit family")
    known = {s.members(): s for s in fam.members}
    witness = _each(_get(doc, "witness", "bundle"), "bundle.witness", _nodeset, graph.n, known)
    cores = _each(_get(doc, "cores", "bundle"), "bundle.cores", _nodeset, graph.n, known)
    return graph, fam, witness, cores
