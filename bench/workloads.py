"""The benchmark's workloads: item streams, per-item pipelines and checks.

An item is one instance taken from generation to a checked verdict.  Items
come in rounds that hold one item of every stratum, and a run only stops
between rounds, so every run has the same mix of strata however long it
is.  The seed reaches the program only through the generated inputs.

Each item function returns the digests that the default seed pins (see
pins.json) and raises on any check that fails.  Certificates and reports
are checked by meaning, not by bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from pliablecover import gens, smallcuts
from pliablecover.errors import InfeasibleError
from pliablecover.exact import brute_force_opt, certify
from pliablecover.jsonio import (
    SCHEMA_VERSION,
    Instance,
    analysis_to_json,
    bound_report_to_json,
    bundle_to_json,
    certificate_to_json,
    dumps_canonical,
    instance_digest,
    instance_from_json,
    instance_to_json,
    trace_to_json,
)
from pliablecover.setfam import ExplicitFamilyOracle, all_pairs, crossing_number
from pliablecover.smallcuts import SmallCutsOracle
from pliablecover.treeanal import analyze_trace, build_tree, verify_bounds
from pliablecover.wgmv import CostedGraph, solve
from pliablecover.witness import laminar_witness


class CheckFailed(Exception):
    """An output of the program is wrong."""


class Item(NamedTuple):
    key: str  # the item's name in pins.json
    run: Callable  # run(tracer) -> pinned digest string


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _crosses(mask: int, u: int, v: int) -> bool:
    return ((mask >> u) ^ (mask >> v)) & 1 == 1


def _dump(tr, docs: Callable[[], list]) -> list[str]:
    """Canonical bytes of the documents the CLI would print."""
    texts = tr.call("jsonio", lambda: [dumps_canonical(d) for d in docs()])
    tr.count("jsonio.bytes", sum(len(t) for t in texts))
    return texts


# ---------------------------------------------------------------------------
# sweep: the acceptance-sweep chain on small verified random instances

KINDS = ("gamma", "sparse", "uncrossable")
SWEEP_STRATA = tuple((kind, n) for n in range(4, 8) for kind in KINDS)


def _is_witness(f, pairs, wit) -> bool:
    """One member of f per cover edge, crossed by that edge alone, laminar."""
    if len(wit) != len(pairs):
        return False
    for i, w in enumerate(wit):
        if w not in f or [j for j, (u, v) in enumerate(pairs) if _crosses(w.mask, u, v)] != [i]:
            return False
    for i, a in enumerate(wit):
        for b in wit[i + 1 :]:
            inter = a.mask & b.mask
            if inter and inter != a.mask and inter != b.mask:
                return False
    return True


def sweep_item(seed: int, index: int, kind: str, n: int, tr) -> str:
    g, f = tr.call("gens", gens.random_instance, kind, gens.instance_rng(seed, index), n)
    inst = Instance(g, f)

    def round_trip():
        text = dumps_canonical(instance_to_json(inst))
        return text, instance_from_json(json.loads(text))

    text, back = tr.call("jsonio", round_trip)
    tr.count("jsonio.bytes", len(text))
    _check(back == inst, "instance changed in the JSON round trip")
    g, f = back.graph, back.family

    oracle = tr.oracle(ExplicitFamilyOracle(f), "setfam.oracle")
    trace = tr.call("wgmv.solve", solve, g, oracle)
    tr.solved(trace)
    opt, argmin = tr.call("exact.opt", brute_force_opt, g, oracle)
    _check(sum((g.cost(e) for e in argmin), Fraction(0)) == opt, "argmin does not cost opt")
    digest = tr.call("jsonio", instance_digest, back)
    cert = tr.call("exact.certify", certify, g, oracle, trace, kind, opt=opt, instance_digest=digest)
    cost = trace.solution_cost(g)
    _check(cert.verdict, f"{kind} certificate refused")
    _check(opt <= cost <= cert.factor * opt, "cost outside [opt, factor * opt]")
    _check(trace.dual.objective() <= opt, "dual objective above opt")

    pairs = [g.pair(e) for e in trace.solution]
    wit = tr.call("witness.laminar", laminar_witness, f, pairs)
    _check(_is_witness(f, pairs, wit), "laminar witness is not a witness family")
    report = tr.call("treeanal.analyze", analyze_trace, g, f, trace, kind)
    _check(report.ok, "analysis report not ok")

    certs = [cert]
    if kind == "sparse":
        beta = tr.call("setfam.check", crossing_number, f)
        bcert = tr.call(
            "exact.certify", certify, g, oracle, trace, "beta", beta=beta, opt=opt, instance_digest=digest
        )
        _check(bcert.verdict, "beta certificate refused")
        _check(bcert.factor == 6 - Fraction(1, beta + 1), "beta factor wrong")
        certs.append(bcert)

    texts = _dump(
        tr,
        lambda: [trace_to_json(g, trace, digest), analysis_to_json(report)]
        + [certificate_to_json(c) for c in certs],
    )
    opt_text = f"{opt.numerator}/{opt.denominator}:{list(argmin)}"
    return f"{_sha(text)}:{_sha(texts[0])}:{_sha(opt_text)}"


# ---------------------------------------------------------------------------
# tight: the extremal constructions, too large for brute force

TIGHT_ITEMS = (
    # name, mode, builder, builder args, family class, beta
    ("tight6-32", "solve", gens.tight_six, (32,), "sparse", None),
    ("tight7-32", "solve", gens.tight_seven, (32,), "gamma", None),
    ("tightbeta-32-4", "solve", gens.tight_beta, (32, 4), "beta", 4),
    ("tight6-128", "tree", gens.tight_six, (128,), "sparse", None),
    ("tight7-128", "tree", gens.tight_seven, (128,), "gamma", None),
)


def tight_item(mode: str, builder, args: tuple, cls: str, beta: int | None, tr) -> str:
    bundle = tr.call("gens", builder, *args)
    (bundle_text,) = _dump(tr, lambda: [bundle_to_json(bundle)])
    graph = bundle.graph
    if mode == "solve":
        oracle = tr.oracle(ExplicitFamilyOracle(bundle.family), "setfam.oracle")
        trace = tr.call("wgmv.solve", solve, graph, oracle)
        tr.solved(trace)
        cert = tr.call("exact.certify", certify, graph, oracle, trace, cls, beta=beta)
        _check(cert.verdict, f"{cls} certificate refused")
        _check(cert.primal_cost == bundle.total_cost, "cost differs from the bundle's total cost")
        _check(cert.dual_objective == bundle.dual_objective, "dual differs from the bundle's dual")
        trace_text, _ = _dump(tr, lambda: [trace_to_json(graph, trace), certificate_to_json(cert)])
        return f"{_sha(bundle_text)}:{_sha(trace_text)}"
    cover = [(i, graph.pair(i)) for i in range(len(graph.edges))]
    tree = tr.call("treeanal.build_tree", build_tree, bundle.n, cover, list(bundle.witness), list(bundle.cores))
    tr.count("treeanal.tree_nodes", len(tree.nodes))
    report = tr.call("treeanal.verify", verify_bounds, tree, cls, beta)
    _check(report.ok, "bound report not ok")
    _check(report.total_weight == bundle.total_cost, "tree weight differs from the bundle's total cost")
    _dump(tr, lambda: [bound_report_to_json(report)])
    return _sha(bundle_text)


# ---------------------------------------------------------------------------
# smallcut: the cut-enumeration oracle on random capacitated graphs

SMALLCUT_STRATA = ((10,), (11,), (12,))


def smallcut_item(seed: int, index: int, n: int, tr) -> str:
    rng = gens.instance_rng(seed, index)
    h = tr.call("gens", gens.random_cap_graph, rng, n)
    g = CostedGraph.build(n, [(u, v, rng.randint(1, 9)) for u, v in sorted(rng.sample(all_pairs(n), 3 * n))])
    inst = Instance(g, h)
    (inst_text,) = _dump(tr, lambda: [instance_to_json(inst)])
    oracle = tr.oracle(SmallCutsOracle(h), "smallcuts.oracle")
    try:
        trace = tr.call("wgmv.solve", solve, g, oracle)
    except InfeasibleError as exc:
        core = exc.core
        _check(smallcuts.cut_value(h, core) < h.k, "infeasible core is not a small cut")
        _check(not any(_crosses(core.mask, u, v) for u, v, _ in g.edges), "a candidate edge crosses the core")
        nonempty = True
        (out_text,) = _dump(
            tr, lambda: [{"version": SCHEMA_VERSION, "error": "infeasible", "core": sorted(core.members())}]
        )
    else:
        tr.solved(trace)
        cert = tr.call("exact.certify", certify, g, oracle, trace, "sparse")
        _check(cert.verdict, "sparse certificate refused")
        nonempty = bool(trace.iterations)
        digest = tr.call("jsonio", instance_digest, inst)
        out_text, _ = _dump(tr, lambda: [trace_to_json(g, trace, digest), certificate_to_json(cert)])
    lam = tr.call("smallcuts.connectivity", smallcuts.edge_connectivity, h)
    beta = tr.call("smallcuts.connectivity", smallcuts.beta_bound, h)
    _check((lam < h.k) == nonempty, "edge connectivity disagrees with the family being empty")
    _check(beta >= 1, "beta bound below 1")
    return f"{_sha(inst_text)}:{_sha(out_text)}"


# ---------------------------------------------------------------------------


def _stratified(seed: int, strata: tuple, item_fn) -> Callable[[int], list[Item]]:
    def round_items(r: int) -> list[Item]:
        base = r * len(strata)
        return [
            Item(str(base + j), partial(item_fn, seed, base + j, *stratum))
            for j, stratum in enumerate(strata)
        ]

    return round_items


def plan(name: str, seed: int) -> Callable[[int], list[Item]]:
    """The workload's inputs that are not items: a map from round number to
    that round's items, fixed by the seed."""
    if name == "sweep":
        return _stratified(seed, SWEEP_STRATA, sweep_item)
    if name == "smallcut":
        return _stratified(seed, SMALLCUT_STRATA, smallcut_item)
    if name == "tight":

        def tight_round(r: int) -> list[Item]:
            order = list(TIGHT_ITEMS)
            random.Random(f"tight:{seed}:{r}").shuffle(order)
            return [Item(key, partial(tight_item, *rest)) for key, *rest in order]

        return tight_round
    raise ValueError(f"unknown workload {name!r}")
