"""Brute-force optimum and certificate checker tests."""

import dataclasses
import gc
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import pliablecover.errors as errors
import pliablecover.setfam as setfam
from pliablecover.errors import GuardError, InfeasibleError
from pliablecover.exact import (
    FAMILY_CLASSES,
    brute_force_opt,
    certify,
    guarantee_factor,
    iteration_load_bound,
)
from pliablecover.gens import instance_rng, random_cap_graph, random_instance, tight_seven, tight_six
from pliablecover.setfam import (
    ExplicitFamily,
    ExplicitFamilyOracle,
    NodeSet,
    all_pairs,
    bits,
    coverage,
    edge_crosses_mask,
    member_incidence,
)
from pliablecover.smallcuts import CapGraph, SmallCutsOracle
from pliablecover.wgmv import CostedGraph, solve

from oracles import CountingOracle


def ref_opt(g: CostedGraph, members):
    """Plain 2^m scan; returns (cost, all sorted argmin tuples)."""
    m = len(g.edges)
    best = None
    argmins = []
    for picks in range(1 << m):
        chosen = tuple(e for e in range(m) if picks >> e & 1)
        pairs = [g.pair(e) for e in chosen]
        covered = all(
            any((u in s) != (v in s) for u, v in pairs) for s in members
        )
        if not covered:
            continue
        cost = sum(g.cost(e) for e in chosen)
        if best is None or cost < best:
            best, argmins = cost, [chosen]
        elif cost == best:
            argmins.append(chosen)
    return best, argmins


def family_sets(f: ExplicitFamily):
    return [set(s.members()) for s in f]


def test_oracle_universe_mismatch_is_rejected():
    g = CostedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError, match="oracle universe does not match the graph"):
        brute_force_opt(g, ExplicitFamilyOracle(ExplicitFamily.from_sets(3, [[0]])))
    trace = solve(g, ExplicitFamilyOracle(ExplicitFamily.from_sets(4, [[0]])))
    with pytest.raises(ValueError, match="oracle universe does not match the graph"):
        certify(g, ExplicitFamilyOracle(ExplicitFamily.from_sets(5, [[0]])), trace, "sparse")


def test_single_edge_instance():
    g = CostedGraph.build(2, [(0, 1, 5)])
    f = ExplicitFamily.from_sets(2, [[0]])
    assert brute_force_opt(g, ExplicitFamilyOracle(f)) == (Fraction(5), (0,))


def test_triangle_small_cuts_instance():
    h = CapGraph.build(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], 3)
    g = CostedGraph.build(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    oracle = SmallCutsOracle(h)
    opt, sel = brute_force_opt(g, oracle)
    assert opt == 2 and sel == (0, 1)
    trace = solve(g, oracle)
    assert trace.solution_cost(g) == 2


def test_empty_family_costs_nothing():
    g = CostedGraph.build(3, [(0, 1, 4)])
    assert brute_force_opt(g, ExplicitFamilyOracle(ExplicitFamily(3, ()))) == (
        Fraction(0),
        (),
    )


def test_brute_force_guard_and_infeasibility(monkeypatch):
    # 30 edges: the search counts its nodes, not the edges.  The empty
    # family is covered at the root, one node.
    g = CostedGraph.build(6, [(u, v, 1) for u, v in combinations(range(6), 2)] * 2)
    assert len(g.edges) == 30
    empty = ExplicitFamilyOracle(ExplicitFamily(6, ()))
    assert brute_force_opt(g, empty) == (Fraction(0), ())
    monkeypatch.setitem(errors.BUDGETS, "optimum", ("search nodes", 0))
    with pytest.raises(GuardError, match=r"^instance too large for exhaustive optimum: search nodes = 1 > 0$"):
        brute_force_opt(g, empty)
    tiny = CostedGraph.build(3, [(1, 2, 1)])
    with pytest.raises(InfeasibleError):
        brute_force_opt(tiny, ExplicitFamilyOracle(ExplicitFamily.from_sets(3, [[0]])))


def _tie_heavy_copies(g: CostedGraph):
    """The instance, a unit-cost copy (many ties) and a copy with a zero-cost
    edge inserted at id 1."""
    yield g
    yield CostedGraph(g.n, tuple((u, v, Fraction(1)) for u, v, _ in g.edges))
    yield CostedGraph(g.n, g.edges[:1] + ((0, g.n - 1, Fraction(0)),) + g.edges[1:])


@pytest.mark.parametrize("make,leaves,opt,nodes", [(tight_six, 8, 46, 408), (tight_seven, 16, 110, 608)])
def test_optimum_of_a_tight_bundle_is_the_runs_cost(monkeypatch, make, leaves, opt, nodes):
    # Past any edge-count limit (38 and 63 edges), and cheap in nodes.  At
    # exactly its node count the search finishes; one node less refuses.
    b = make(leaves)
    oracle = ExplicitFamilyOracle(b.family)
    cost = solve(b.graph, oracle).solution_cost(b.graph)
    monkeypatch.setitem(errors.BUDGETS, "optimum", ("search nodes", nodes))
    assert brute_force_opt(b.graph, oracle) == (cost, tuple(range(len(b.graph.edges))))
    assert cost == b.total_cost == opt
    monkeypatch.setitem(errors.BUDGETS, "optimum", ("search nodes", nodes - 1))
    with pytest.raises(GuardError, match=rf"exhaustive optimum: search nodes = {nodes} > {nodes - 1}$"):
        brute_force_opt(b.graph, oracle)


def test_optimum_search_deeper_than_the_recursion_limit_refuses_by_its_budget(monkeypatch):
    # tight_six(256) has 1278 edges, and its first cover found is all of
    # them: a path of 1279 nodes, past Python's recursion limit.
    b = tight_six(256)
    assert len(b.graph.edges) > sys.getrecursionlimit()
    monkeypatch.setitem(errors.BUDGETS, "optimum", ("search nodes", 2000))
    with pytest.raises(GuardError, match=r"exhaustive optimum: search nodes = 2001 > 2000$"):
        brute_force_opt(b.graph, ExplicitFamilyOracle(b.family))


def test_matches_reference_scan_including_tie_breaks():
    checked = 0
    for kind in ("gamma", "sparse", "uncrossable"):
        for n in (4, 5, 6):
            for i in range(25):
                g, f = random_instance(kind, instance_rng(200, i), n=n)
                if len(g.edges) > 12:
                    continue
                oracle = ExplicitFamilyOracle(f)
                for h in _tie_heavy_copies(g):
                    cost, argmins = ref_opt(h, family_sets(f))
                    assert brute_force_opt(h, oracle) == (cost, min(argmins))
                    checked += 1
    assert checked == 600


def ref_search(n, oracle, pairs, costs, chosen, cost, best):
    """The search as it stood before integer costs, suffix minima and reused
    cores: Fraction costs, one oracle call per node, and a min over each
    core's crosser list for every child."""
    cores = oracle.cores([pairs[e] for e in chosen])
    if not cores:
        return (cost, tuple(chosen))
    inc = member_incidence(n, cores)
    crossers = [[] for _ in cores]
    for e, (u, v) in enumerate(pairs):
        for i in bits(inc[u] ^ inc[v]):
            crossers[i].append(e)
    for e in range(chosen[-1] + 1 if chosen else 0, len(pairs)):
        need = Fraction(0)
        for ids in crossers:
            if e not in ids:
                later = [costs[x] for x in ids if x > e]
                if not later:
                    return best
                need = max(need, min(later))
        if best is None or cost + costs[e] + need < best[0]:
            chosen.append(e)
            best = ref_search(n, oracle, pairs, costs, chosen, cost + costs[e], best)
            chosen.pop()
    return best


def ref_brute_force(g: CostedGraph, oracle):
    pairs = [g.pair(e) for e in range(len(g.edges))]
    assert not oracle.cores(pairs)
    return ref_search(g.n, oracle, pairs, [g.cost(e) for e in range(len(g.edges))], [], Fraction(0), None)


def _cost_copies(g: CostedGraph):
    """The tie-heavy copies plus one with costs over mixed denominators."""
    yield from _tie_heavy_copies(g)
    yield CostedGraph(
        g.n, tuple((u, v, c * Fraction(e % 4 + 1, e % 5 + 2)) for e, (u, v, c) in enumerate(g.edges))
    )


def _matches_reference_search(g: CostedGraph, oracle, adds: Counter) -> None:
    """The same optimum as the reference, whose every search node is one
    `cores` call, with no more queries: one `cores` call and one residual
    `add` per node below the root."""
    ref, new = CountingOracle(oracle), CountingOracle(oracle)
    adds.clear()
    assert brute_force_opt(g, new) == ref_brute_force(g, ref)
    assert new.calls["cores"] + adds["add"] <= ref.calls["cores"]


def test_search_matches_the_reference_search_with_no_more_oracle_calls(monkeypatch):
    adds = Counter()
    add = setfam._Residual.add

    def counted_add(self, u, v):
        adds["add"] += 1
        return add(self, u, v)

    monkeypatch.setattr(setfam._Residual, "add", counted_add)
    for kind in ("gamma", "sparse", "uncrossable"):
        for n in (4, 5, 6, 7):
            for i in range(3):
                g, f = random_instance(kind, instance_rng(213, i), n=n)
                for h in _cost_copies(g):
                    _matches_reference_search(h, ExplicitFamilyOracle(f), adds)
    rng = random.Random(214)
    cut_instances = 0
    while cut_instances < 20:
        n = rng.randint(4, 7)
        oracle = SmallCutsOracle(random_cap_graph(rng, n))
        pairs = rng.sample(all_pairs(n), min(n * (n - 1) // 2, 2 * n))
        g = CostedGraph.build(n, [(u, v, rng.randint(0, 9)) for u, v in sorted(pairs)])
        if oracle.cores([]) and oracle.is_covered(pairs):
            for h in _cost_copies(g):
                _matches_reference_search(h, oracle, adds)
            cut_instances += 1


# (kind, seed, index, n, edge count, optimum, least optimal edge set) for
# random_instance(kind, instance_rng(seed, index), n); several have more
# edges than ref_opt can scan.
GOLDEN_ARGMINS = [
    ("gamma", 310, 0, 4, 4, "25/4", (0, 3)),
    ("gamma", 310, 1, 4, 5, "5", (3, 4)),
    ("gamma", 310, 2, 4, 6, "3", (2,)),
    ("gamma", 310, 3, 4, 6, "9/4", (0, 5)),
    ("gamma", 310, 4, 4, 5, "4", (1, 2)),
    ("gamma", 310, 0, 5, 7, "5/4", (1, 3)),
    ("gamma", 310, 1, 5, 10, "11/2", (0, 1, 3)),
    ("gamma", 310, 2, 5, 6, "1/2", (0, 4)),
    ("gamma", 310, 3, 5, 10, "9/2", (0, 4, 5)),
    ("gamma", 310, 4, 5, 5, "9/2", (0, 4)),
    ("gamma", 310, 0, 6, 12, "3", (1, 10, 11)),
    ("gamma", 310, 1, 6, 12, "21/2", (0, 1, 6)),
    ("gamma", 310, 2, 6, 9, "9", (0, 3, 4)),
    ("gamma", 310, 3, 6, 8, "9/4", (1, 3)),
    ("gamma", 310, 4, 6, 9, "19/2", (1, 2, 6)),
    ("gamma", 310, 0, 7, 13, "31/4", (4, 5, 12)),
    ("gamma", 310, 1, 7, 10, "15/2", (0, 7, 9)),
    ("gamma", 310, 2, 7, 8, "7", (0, 1, 4)),
    ("gamma", 310, 3, 7, 12, "4", (0, 3, 9)),
    ("gamma", 310, 4, 7, 9, "4", (1, 5)),
    ("sparse", 311, 0, 4, 5, "13/2", (0, 3)),
    ("sparse", 311, 1, 4, 3, "19/2", (0, 2)),
    ("sparse", 311, 2, 4, 5, "11/2", (1, 2)),
    ("sparse", 311, 3, 4, 5, "11/2", (1, 2)),
    ("sparse", 311, 4, 4, 5, "2", (3,)),
    ("sparse", 311, 0, 5, 8, "7/2", (1, 6)),
    ("sparse", 311, 1, 5, 4, "41/4", (2, 3)),
    ("sparse", 311, 2, 5, 6, "13/2", (0, 5)),
    ("sparse", 311, 3, 5, 5, "7", (0, 4)),
    ("sparse", 311, 4, 5, 6, "1", (1,)),
    ("sparse", 311, 0, 6, 8, "45/4", (0, 2, 5, 6)),
    ("sparse", 311, 1, 6, 11, "7/4", (1, 3, 10)),
    ("sparse", 311, 2, 6, 8, "10", (0, 3, 4)),
    ("sparse", 311, 3, 6, 9, "2", (3, 7)),
    ("sparse", 311, 4, 6, 6, "25/4", (1, 5)),
    ("sparse", 311, 0, 7, 9, "9", (0, 3, 4)),
    ("sparse", 311, 1, 7, 9, "6", (0, 3, 4)),
    ("sparse", 311, 2, 7, 14, "29/4", (2, 5, 7, 8)),
    ("sparse", 311, 3, 7, 9, "8", (0, 4, 6)),
    ("sparse", 311, 4, 7, 6, "25/4", (1, 5)),
    ("uncrossable", 312, 0, 4, 6, "3", (3, 4)),
    ("uncrossable", 312, 1, 4, 6, "11/4", (2, 3)),
    ("uncrossable", 312, 2, 4, 6, "5/2", (2, 3)),
    ("uncrossable", 312, 3, 4, 6, "11/2", (1, 4)),
    ("uncrossable", 312, 4, 4, 6, "6", (2, 4)),
    ("uncrossable", 312, 0, 5, 10, "15/4", (6, 8)),
    ("uncrossable", 312, 1, 5, 10, "3/2", (0, 1, 2)),
    ("uncrossable", 312, 2, 5, 10, "12", (0, 8, 9)),
    ("uncrossable", 312, 3, 5, 8, "8", (4, 7)),
    ("uncrossable", 312, 4, 5, 10, "9", (4, 5, 6)),
    ("uncrossable", 312, 0, 6, 13, "7/4", (6, 7, 9)),
    ("uncrossable", 312, 1, 6, 15, "17/2", (0, 2, 7, 8, 9)),
    ("uncrossable", 312, 2, 6, 15, "17/4", (6, 9, 13, 14)),
    ("uncrossable", 312, 3, 6, 15, "17/4", (11, 13, 14)),
    ("uncrossable", 312, 4, 6, 15, "7/2", (4, 8, 13)),
    ("uncrossable", 312, 0, 7, 21, "9/4", (0, 1, 4)),
    ("uncrossable", 312, 1, 7, 21, "7", (1, 2, 4, 6, 12, 19)),
    ("uncrossable", 312, 2, 7, 21, "6", (4, 8, 15, 16)),
    ("uncrossable", 312, 3, 7, 21, "7/2", (13, 14, 15)),
    ("uncrossable", 312, 4, 7, 21, "19/4", (7, 19)),
]


def test_golden_optima_and_argmins():
    assert any(m > 12 for _, _, _, _, m, _, _ in GOLDEN_ARGMINS)
    for kind, seed, index, n, m, opt, argmin in GOLDEN_ARGMINS:
        g, f = random_instance(kind, instance_rng(seed, index), n=n)
        assert len(g.edges) == m
        assert brute_force_opt(g, ExplicitFamilyOracle(f)) == (Fraction(opt), argmin)


def test_zero_cost_edge_never_hurts():
    for i in range(10):
        g, f = random_instance("gamma", instance_rng(201, i), n=5)
        oracle = ExplicitFamilyOracle(f)
        base, _ = brute_force_opt(g, oracle)
        extended = CostedGraph(g.n, g.edges + ((0, 1, Fraction(0)),))
        more, _ = brute_force_opt(extended, oracle)
        assert more <= base


# --- ratio bookkeeping ------------------------------------------------------


def test_guarantee_factors():
    assert guarantee_factor("gamma") == 7
    assert guarantee_factor("sparse") == 6
    assert guarantee_factor("beta", 1) == Fraction(11, 2)
    assert guarantee_factor("beta", 2) == Fraction(17, 3)
    assert guarantee_factor("uncrossable") == 2
    with pytest.raises(ValueError):
        guarantee_factor("beta")
    with pytest.raises(ValueError):
        guarantee_factor("magic")
    for bad in (0, -2, True, "3"):
        with pytest.raises(ValueError, match="needs a crossing number"):
            guarantee_factor("beta", bad)
    for cls in ("gamma", "sparse", "uncrossable"):
        with pytest.raises(ValueError, match="takes no crossing number"):
            guarantee_factor(cls, 3)
        with pytest.raises(ValueError, match="takes no crossing number"):
            iteration_load_bound(cls, 3, 2)
    assert FAMILY_CLASSES == ("gamma", "sparse", "beta", "uncrossable")


def test_iteration_load_bounds():
    assert iteration_load_bound("gamma", 3) == 21
    assert iteration_load_bound("sparse", 3) == 16
    assert iteration_load_bound("beta", 3, 2) == Fraction(17, 3) * 3
    assert iteration_load_bound("uncrossable", 3) == 6


# --- certificates --------------------------------------------------------------


def solved(kind, seed, index, n=None):
    g, f = random_instance(kind, instance_rng(seed, index), n=n)
    oracle = ExplicitFamilyOracle(f)
    return g, f, oracle, solve(g, oracle)


def test_certificates_hold_on_random_instances():
    for kind, cls in (("gamma", "gamma"), ("sparse", "sparse"), ("uncrossable", "uncrossable")):
        for i in range(8):
            g, f, oracle, trace = solved(kind, 202, i, n=5)
            opt, _ = brute_force_opt(g, oracle)
            cert = certify(g, oracle, trace, cls, opt=opt, instance_digest="x")
            assert cert.verdict, [c for c in cert.checks if not c.ok]
            assert cert.primal_cost == trace.solution_cost(g)
            assert cert.dual_objective == trace.dual.objective()
            assert cert.opt_cost == opt
            assert cert.factor == guarantee_factor(cls)
            assert cert.instance_digest == "x"
            names = [c.name for c in cert.checks]
            assert names == [
                "dual-nonnegative",
                "dual-feasible",
                "solution-tight",
                "solution-covers-family",
                "solution-minimal",
                "iteration-load-bounds",
                "cost-vs-dual",
                "cost-vs-opt",
                "dual-below-opt",
            ]
            for row in cert.iteration_rows:
                assert row.ok
                assert row.load <= row.bound


def test_certificate_without_opt_skips_opt_checks():
    g, f, oracle, trace = solved("gamma", 203, 0)
    cert = certify(g, oracle, trace, "gamma")
    assert cert.opt_cost is None
    names = [c.name for c in cert.checks]
    assert "cost-vs-opt" not in names and "dual-below-opt" not in names
    assert cert.verdict


def test_certificate_beta_class_carries_beta():
    g, f, oracle, trace = solved("sparse", 204, 0)
    cert = certify(g, oracle, trace, "beta", beta=2)
    assert cert.beta == 2
    assert cert.factor == Fraction(17, 3)


def test_tampered_solution_fails_certification():
    # a run that keeps an edge reverse delete dropped has a removable edge
    for i in range(20):
        g, f, oracle, trace = solved("gamma", 205, i, n=5)
        if not trace.deleted:
            continue
        fat = dataclasses.replace(trace, deleted=trace.deleted[1:])
        assert fat.solution == tuple(sorted(trace.solution + trace.deleted[:1]))
        cert = certify(g, oracle, fat, "gamma")
        assert not cert.verdict
        failed = {c.name for c in cert.checks if not c.ok}
        assert "solution-minimal" in failed
        return
    raise AssertionError("no instance with a deleted edge found")


def raised(trace, index, scale=1, delta=0):
    """The trace with the raise of iteration `index` scaled by `scale` and
    moved by `delta`; every raise with the default index None."""
    return dataclasses.replace(
        trace,
        iterations=tuple(
            dataclasses.replace(it, eps=it.eps * scale + delta) if index in (None, t) else it
            for t, it in enumerate(trace.iterations)
        ),
    )


def test_inflated_dual_fails_certification():
    for i in range(20):
        g, f, oracle, trace = solved("gamma", 206, i, n=5)
        if trace.dual.objective() == 0:
            continue
        doubled = raised(trace, None, scale=2)
        assert doubled.dual.values == tuple((s, 2 * y) for s, y in trace.dual.values)
        cert = certify(g, oracle, doubled, "gamma")
        assert not cert.verdict
        assert "dual-feasible" in {c.name for c in cert.checks if not c.ok}
        return
    raise AssertionError("no instance with a positive dual found")


def test_certify_sees_a_dual_change_of_one_part_in_ten_to_the_forty():
    tiny = Fraction(1, 10**40)
    checked = 0
    for i in range(20):
        g, f, oracle, trace = solved("gamma", 206, i, n=5)
        assert certify(g, oracle, trace, "gamma").verdict
        for index, it in enumerate(trace.iterations):
            crossing = [e for e in trace.solution if any(edge_crosses_mask(c.mask, *g.pair(e)) for c in it.cores)]
            if it.eps <= tiny or not crossing:
                continue
            # a solution edge is tight, so one more 1/10^40 on the sets of one
            # raise that it crosses puts it over its cost
            rows = {c.name: c for c in certify(g, oracle, raised(trace, index, delta=tiny), "gamma").checks}
            assert not rows["dual-feasible"].ok
            assert str(crossing[0]) in rows["dual-feasible"].detail
            # and 1/10^40 less leaves it short of its cost, while still feasible
            rows = {c.name: c for c in certify(g, oracle, raised(trace, index, delta=-tiny), "gamma").checks}
            assert rows["dual-feasible"].ok
            assert (rows["solution-tight"].ok, rows["solution-tight"].detail) == (
                False,
                f"non-tight solution edges: {crossing}",
            )
            checked += 1
            break
    assert checked > 10


def test_opt_below_dual_fails_certification():
    for i in range(20):
        g, f, oracle, trace = solved("gamma", 207, i, n=5)
        dual = trace.dual.objective()
        if dual == 0:
            continue
        cert = certify(g, oracle, trace, "gamma", opt=dual / 2)
        assert not cert.verdict
        assert "dual-below-opt" in {c.name for c in cert.checks if not c.ok}
        return
    raise AssertionError("no instance with a positive dual found")


def test_certify_is_deterministic():
    g, f, oracle, trace = solved("gamma", 208, 0)
    a = certify(g, oracle, trace, "gamma")
    b = certify(g, oracle, trace, "gamma")
    assert a == b


def test_certify_on_fresh_core_copies_matches_the_solved_trace():
    """certify tells cores apart by object first; a trace whose every core
    entry is a fresh copy certifies to the same certificate."""
    cases = [(b.graph, ExplicitFamilyOracle(b.family), "sparse") for b in (tight_six(8), tight_six(16))]
    cases += [solved("gamma", 210, i)[::2] + ("gamma",) for i in range(6)]
    for g, oracle, cls in cases:
        trace = solve(g, oracle)

        def copy(s):
            return NodeSet(s.n, s.mask)

        fresh = dataclasses.replace(
            trace,
            iterations=tuple(dataclasses.replace(it, cores=tuple(map(copy, it.cores))) for it in trace.iterations),
        )
        assert not any(a is b for it, jt in zip(trace.iterations, fresh.iterations) for a, b in zip(it.cores, jt.cores))
        assert certify(g, oracle, fresh, cls) == certify(g, oracle, trace, cls)


def test_iteration_loads_stay_exact_on_overlapping_forged_cores():
    # A forged trace may list cores that overlap or repeat; each row's load
    # is still the summed d(C) over the solution of the cores it lists.
    rng = random.Random(19)
    total = 0
    for i in range(10):
        g, f, oracle, trace = solved("gamma", 209, i, n=5)
        iterations = []
        for it in trace.iterations:
            first = it.cores[0]
            grown = NodeSet(g.n, first.mask | 1 << rng.randrange(g.n))
            iterations.append(dataclasses.replace(it, cores=it.cores + (grown, first)))
        forged = dataclasses.replace(trace, iterations=tuple(iterations))
        cert = certify(g, oracle, forged, "gamma")
        sol_pairs = [g.pair(e) for e in trace.solution]
        assert len(cert.iteration_rows) == len(iterations)
        for row, it in zip(cert.iteration_rows, iterations):
            assert row.num_cores == len(it.cores)
            assert row.load == sum(coverage(c, sol_pairs) for c in it.cores)
            total += row.load
    assert total > 0


def test_search_leaves_no_reference_cycle():
    # The search must not keep the oracle alive through a cycle that only
    # the cyclic collector could free.
    g, f = random_instance("gamma", instance_rng(207, 0), n=5)
    oracle = ExplicitFamilyOracle(f)
    ref = weakref.ref(oracle)
    gc.disable()
    try:
        opt = brute_force_opt(g, oracle)
        del oracle
        assert ref() is None
    finally:
        gc.enable()
    assert opt == brute_force_opt(g, ExplicitFamilyOracle(f))
