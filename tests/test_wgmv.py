"""Solver tests: pinned hand-checked traces plus a reference implementation.

ref_run below is a deliberately naive re-statement of the algorithm (dense
recomputation, frozensets, no incremental loads); the solver must reproduce
its traces exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pliablecover.errors import InfeasibleError
from pliablecover.gens import instance_rng, random_instance, tight_beta, tight_seven, tight_six
from pliablecover.setfam import (
    ExplicitFamily,
    ExplicitFamilyOracle,
    NodeSet,
    all_pairs,
    bits,
    edge_crosses_mask,
    member_incidence,
)
from pliablecover.wgmv import (
    CostedGraph,
    DualState,
    IterationRecord,
    RunTrace,
    edge_loads,
    phase1,
    phase2,
    solve,
)


def ref_cores(members, edge_pairs):
    alive = [s for s in members if all((u in s) == (v in s) for u, v in edge_pairs)]
    mins = [s for s in alive if not any(t < s for t in alive)]
    return sorted(mins, key=sorted)


def ref_run(n, edges, members):
    """(iterations, deleted, solution, dual) computed the slow way."""
    j = []
    y = {}
    iterations = []
    while True:
        cores = ref_cores(members, [(edges[i][0], edges[i][1]) for i in j])
        if not cores:
            break
        cand = {}
        for eid, (u, v, c) in enumerate(edges):
            if eid in j:
                continue
            cov = sum(1 for core in cores if (u in core) != (v in core))
            if cov:
                cand[eid] = cov
        for core in cores:
            if not any(
                (edges[e][0] in core) != (edges[e][1] in core) for e in cand
            ):
                raise RuntimeError(("infeasible", sorted(core)))

        def load(eid):
            u, v, _ = edges[eid]
            return sum(val for s, val in y.items() if (u in s) != (v in s))

        eps = min((edges[e][2] - load(e)) / cand[e] for e in cand)
        for core in cores:
            y[frozenset(core)] = y.get(frozenset(core), Fraction(0)) + eps
        tight = sorted(e for e in cand if load(e) == edges[e][2])
        added = tight[0]
        j.append(added)
        iterations.append((cores, eps, added, tight))
    deleted = []
    keep = list(j)
    for e in reversed(j):
        rest = [x for x in keep if x != e]
        if not ref_cores(members, [(edges[i][0], edges[i][1]) for i in rest]):
            keep = rest
            deleted.append(e)
    return iterations, deleted, sorted(keep), y


def as_frozensets(f: ExplicitFamily):
    return [frozenset(s.members()) for s in f]


def assert_trace_matches_reference(g: CostedGraph, f: ExplicitFamily):
    trace = solve(g, ExplicitFamilyOracle(f))
    edges = [(u, v, c) for u, v, c in g.edges]
    iters, deleted, solution, y = ref_run(g.n, edges, as_frozensets(f))
    assert len(trace.iterations) == len(iters)
    for rec, (cores, eps, added, tight) in zip(trace.iterations, iters):
        assert [set(s.members()) for s in rec.cores] == [set(c) for c in cores]
        assert rec.eps == eps
        assert rec.added == added
        assert list(rec.ties) == tight
    assert list(trace.deleted) == deleted
    assert list(trace.solution) == solution
    got_dual = {frozenset(s.members()): v for s, v in trace.dual.values}
    want_dual = {s: v for s, v in y.items() if v != 0}
    assert {s: v for s, v in got_dual.items() if v != 0} == want_dual
    ref_values = [(NodeSet.from_members(g.n, s), v) for s, v in y.items()]
    assert loads_as_fractions(g, trace.dual.values) == ref_edge_loads(g, ref_values)
    return trace


# --- pinned single-step examples ------------------------------------------


def test_single_core_single_edge():
    g = CostedGraph.build(2, [(0, 1, 5)])
    f = ExplicitFamily.from_sets(2, [[0]])
    trace = solve(g, ExplicitFamilyOracle(f))
    assert len(trace.iterations) == 1
    assert trace.iterations[0].eps == 5
    assert trace.solution == (0,)
    assert trace.dual.values == ((NodeSet.from_members(2, [0]), Fraction(5)),)


def test_shared_edge_splits_slack():
    g = CostedGraph.build(2, [(0, 1, 4)])
    f = ExplicitFamily.from_sets(2, [[0], [1]])
    trace = solve(g, ExplicitFamilyOracle(f))
    assert trace.iterations[0].eps == 2
    assert trace.solution == (0,)
    assert trace.dual.objective() == 4


def test_zero_eps_and_tie_recording():
    g = CostedGraph.build(3, [(0, 2, 1), (1, 2, 1), (0, 1, 2)])
    f = ExplicitFamily.from_sets(3, [[0], [1], [0, 1]])
    trace = assert_trace_matches_reference(g, f)
    assert trace.additions() == (0, 1)
    assert [it.eps for it in trace.iterations] == [1, 0]
    assert [list(it.ties) for it in trace.iterations] == [[0, 1, 2], [1, 2]]
    assert trace.solution_cost(g) == 2


def test_empty_family_solves_to_nothing():
    g = CostedGraph.build(3, [(0, 1, 1)])
    f = ExplicitFamily(3, ())
    trace = solve(g, ExplicitFamilyOracle(f))
    assert trace.iterations == ()
    assert trace.solution == ()
    assert trace.dual.objective() == 0


# --- golden trace ------------------------------------------------------------
#
# Two terminal pairs {0,1} and {2,3} plus a hub node 4; the family contains
# every set separating a pair.  Hand-checked against ref_run; exercises a
# four-way tie, two zero-eps iterations, and one reverse-delete removal.

GOLDEN_EDGES = [
    (0, 1, Fraction(3)),
    (0, 4, Fraction(1)),
    (1, 4, Fraction(2)),
    (2, 3, Fraction(4)),
    (2, 4, Fraction(2)),
    (3, 4, Fraction(2)),
    (0, 2, Fraction(5)),
]


def golden_family() -> ExplicitFamily:
    members = []
    for mask in range(1, (1 << 5) - 1):
        s = {v for v in range(5) if mask >> v & 1}
        if len(s & {0, 1}) == 1 or len(s & {2, 3}) == 1:
            members.append(s)
    return ExplicitFamily.from_sets(5, members)


def test_golden_trace():
    g = CostedGraph.build(5, GOLDEN_EDGES)
    trace = assert_trace_matches_reference(g, golden_family())

    got = [
        ([sorted(s.members()) for s in it.cores], it.eps, it.added, list(it.ties))
        for it in trace.iterations
    ]
    assert got == [
        ([[0], [1], [2], [3]], Fraction(1), 1, [1]),
        ([[0, 4], [1], [2], [3]], Fraction(1, 2), 0, [0, 2, 4, 5]),
        ([[2], [3]], Fraction(0), 4, [4, 5]),
        ([[0, 1, 2, 4], [3]], Fraction(0), 5, [5]),
    ]
    assert trace.deleted == (1,)
    assert trace.solution == (0, 4, 5)
    assert trace.solution_cost(g) == 7
    assert trace.dual.objective() == 6
    dual = {tuple(s.members()): y for s, y in trace.dual.values}
    assert dual == {
        (0,): Fraction(1),
        (0, 4): Fraction(1, 2),
        (1,): Fraction(3, 2),
        (2,): Fraction(3, 2),
        (3,): Fraction(3, 2),
    }


# --- infeasibility --------------------------------------------------------------


def test_infeasible_carries_the_core():
    g = CostedGraph.build(3, [(1, 2, 1)])
    f = ExplicitFamily.from_sets(3, [[0]])
    with pytest.raises(InfeasibleError) as exc:
        solve(g, ExplicitFamilyOracle(f))
    assert exc.value.core.members() == (0,)


def test_infeasible_names_the_first_uncrossed_core():
    f = ExplicitFamily.from_sets(5, [[0], [2], [4]])
    for edge, first in (((2, 3), (0,)), ((0, 1), (2,)), ((1, 0), (2,)), ((4, 3), (0,))):
        with pytest.raises(InfeasibleError) as exc:
            solve(CostedGraph.build(5, [(*edge, 1)]), ExplicitFamilyOracle(f))
        assert exc.value.core.members() == first


def test_infeasible_after_partial_progress():
    g = CostedGraph.build(4, [(0, 1, 1)])
    f = ExplicitFamily.from_sets(4, [[0], [3]])
    with pytest.raises(InfeasibleError) as exc:
        solve(g, ExplicitFamilyOracle(f))
    assert exc.value.core.members() == (3,)


# --- edge loads ---------------------------------------------------------------------


def ref_edge_loads(g, values):
    """Reference loads: each set adds its value to every edge crossing it."""
    loads = [Fraction(0)] * len(g.edges)
    for s, y in values:
        for eid, (u, v, _) in enumerate(g.edges):
            if edge_crosses_mask(s.mask, u, v):
                loads[eid] += y
    return loads


def loads_as_fractions(g, values):
    """edge_loads as Fractions, after checking its costs are g's over the
    same denominator and every numerator is an int."""
    loads, costs, denom = edge_loads(g, values)
    assert all(type(x) is int for x in loads + costs + [denom])
    assert [Fraction(c, denom) for c in costs] == [g.cost(e) for e in range(len(g.edges))]
    return [Fraction(x, denom) for x in loads]


def test_edge_loads_match_the_per_set_loop():
    g = CostedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (1, 2, 1)])
    a, b = NodeSet.from_members(4, [0, 1]), NodeSet.from_members(4, [1])
    mixed = [(a, Fraction(1, 2)), (b, Fraction(-2, 3)), (a, Fraction(3, 5)), (b, Fraction(1, 7))]
    both = Fraction(1, 2) - Fraction(2, 3) + Fraction(3, 5) + Fraction(1, 7)
    expected = [Fraction(-11, 21), both, 0, Fraction(11, 10), both]
    assert loads_as_fractions(g, mixed) == ref_edge_loads(g, mixed) == expected
    assert loads_as_fractions(g, []) == [0] * 5
    assert edge_loads(g, []) == ([0] * 5, [1] * 5, 1)
    thirds = CostedGraph.build(4, [(u, v, Fraction(i + 1, 3)) for i, (u, v, _) in enumerate(g.edges)])
    assert loads_as_fractions(thirds, mixed) == expected
    assert edge_loads(thirds, mixed)[2] == 3 * 5 * 7 * 2

    rng = random.Random(18)
    for _ in range(200):
        n = rng.randint(2, 7)
        edges = [(*rng.sample(range(n), 2), 1) for _ in range(rng.randint(0, 8))]
        edges += [(v, u, c) for u, v, c in rng.sample(edges, rng.randint(0, len(edges)))]
        g = CostedGraph.build(n, edges)
        values = [
            (NodeSet(n, rng.randrange(1 << n)), Fraction(rng.randint(-3, 9), rng.randint(1, 6)))
            for _ in range(rng.randint(0, 6))
        ]
        values += rng.sample(values, rng.randint(0, len(values)))  # repeated sets
        expected = ref_edge_loads(g, values)
        assert loads_as_fractions(g, values) == expected
        assert loads_as_fractions(g, iter(values)) == expected


# --- solver invariants across random instances -----------------------------------


def test_matches_reference_on_random_instances():
    for kind in ("gamma", "sparse", "uncrossable"):
        for i in range(12):
            g, f = random_instance(kind, instance_rng(100, i))
            assert_trace_matches_reference(g, f)


def test_solution_edges_are_tight_and_duals_feasible():
    for i in range(15):
        g, f = random_instance("gamma", instance_rng(101, i))
        trace = solve(g, ExplicitFamilyOracle(f))
        values = {s: y for s, y in trace.dual.values}
        loads = loads_as_fractions(g, trace.dual.values)
        for eid, (u, v, c) in enumerate(g.edges):
            load = sum(
                y for s, y in values.items()
                if (u in set(s.members())) != (v in set(s.members()))
            )
            assert load <= c
            assert load == loads[eid]
            if eid in trace.solution:
                assert load == c
        assert all(y >= 0 for y in values.values())
        # objective can also be read off the iteration records
        assert trace.dual.objective() == sum(
            it.eps * len(it.cores) for it in trace.iterations
        )


def test_final_solution_is_inclusion_minimal():
    for i in range(15):
        g, f = random_instance("gamma", instance_rng(102, i), n=5)
        trace = solve(g, ExplicitFamilyOracle(f))
        members = as_frozensets(f)
        pairs = [g.pair(e) for e in trace.solution]
        assert not ref_cores(members, pairs)
        for drop in range(len(pairs)):
            rest = pairs[:drop] + pairs[drop + 1 :]
            assert ref_cores(members, rest), "a solution edge is redundant"


def test_deleted_is_reverse_subsequence_of_additions():
    for i in range(15):
        g, f = random_instance("sparse", instance_rng(103, i))
        trace = solve(g, ExplicitFamilyOracle(f))
        order = list(reversed(trace.additions()))
        positions = [order.index(e) for e in trace.deleted]
        assert positions == sorted(positions)
        assert set(trace.solution) == set(trace.additions()) - set(trace.deleted)


def test_solver_is_deterministic():
    g, f = random_instance("gamma", instance_rng(104, 0))
    a = solve(g, ExplicitFamilyOracle(f))
    b = solve(g, ExplicitFamilyOracle(f))
    assert a == b


def test_phase_functions_compose_to_solve():
    g, f = random_instance("gamma", instance_rng(104, 1))
    oracle = ExplicitFamilyOracle(f)
    picked, records = phase1(g, oracle)
    deleted = phase2(g, oracle, picked)
    trace = solve(g, oracle)
    assert trace == RunTrace(tuple(records), tuple(deleted))
    assert trace.additions() == tuple(picked)
    assert trace.solution == tuple(sorted(set(picked) - set(deleted)))


def test_costed_graph_validation():
    with pytest.raises(ValueError):
        CostedGraph.build(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        CostedGraph.build(3, [(0, 1, -2)])
    for bad in (0.5, True, "1"):  # solve failed on a float endpoint with a TypeError
        with pytest.raises(ValueError, match=r"edge \(.*\) has an endpoint that is not an int"):
            CostedGraph.build(3, [(bad, 2, 1), (0, 1, 1)])
    g = CostedGraph.build(3, [(0, 1, Fraction(1, 3))])
    assert g.pair(0) == (0, 1)
    assert g.cost(0) == Fraction(1, 3)


def test_oracle_universe_mismatch_is_rejected():
    g = CostedGraph.build(3, [(0, 1, 1)])
    f = ExplicitFamily.from_sets(4, [[0]])
    with pytest.raises(ValueError):
        solve(g, ExplicitFamilyOracle(f))


def test_phase2_refuses_an_oracle_over_another_universe():
    g = CostedGraph.build(3, [(0, 1, 1)])
    oracle = ExplicitFamilyOracle(ExplicitFamily.from_sets(4, [[0]]))
    with pytest.raises(ValueError, match="oracle universe"):
        phase2(g, oracle, [0])


# --- phase 1 against its division-per-candidate form ------------------------------


def ref_phase1(g, oracle):
    """Phase 1 as it was before zero raises skipped the divisions: every
    iteration divides each candidate's slack by its crossing count."""
    loads = [Fraction(0)] * len(g.edges)
    values = {}
    picked = []
    picked_set = set()
    records = []
    while True:
        cores = oracle.cores([g.pair(e) for e in picked])
        if not cores:
            break
        inc = member_incidence(g.n, cores)
        cov = {}
        hit = 0
        for eid, (u, v, _) in enumerate(g.edges):
            crossed = inc[u] ^ inc[v]
            if crossed and eid not in picked_set:
                cov[eid] = crossed.bit_count()
                hit |= crossed
        unhit = ~hit & ((1 << len(cores)) - 1)
        if unhit:
            raise InfeasibleError(cores[bits(unhit)[0]])
        eps = min((g.cost(e) - loads[e]) / c for e, c in cov.items())
        assert eps >= 0
        if eps:
            for core in cores:
                values[core] = values.get(core, Fraction(0)) + eps
            for e, c in cov.items():
                loads[e] += eps * c
        tight = tuple(e for e in sorted(cov) if loads[e] == g.cost(e))
        added = tight[0]
        picked.append(added)
        picked_set.add(added)
        records.append(IterationRecord(tuple(cores), eps, tight))
    return picked, records, values, loads


def tie_heavy_copies(g):
    """The instance, a unit-cost copy (ties from the first raise), copies
    with cost-0 edges (zero raises from the first iteration), and a copy
    whose costs have coprime denominators (slacks that are not dyadic)."""
    yield g
    yield CostedGraph(g.n, tuple((u, v, Fraction(1)) for u, v, _ in g.edges))
    yield CostedGraph(g.n, tuple((u, v, Fraction(0) if i % 3 == 0 else c) for i, (u, v, c) in enumerate(g.edges)))
    yield CostedGraph(g.n, ((0, g.n - 1, Fraction(0)),) + g.edges + ((g.n - 1, 0, Fraction(0)),))
    yield CostedGraph(g.n, tuple((u, v, c / (3, 5, 7)[i % 3]) for i, (u, v, c) in enumerate(g.edges)))


def assert_phase1_matches_reference(g, f):
    """phase1's picks and records, and the dual their run derives, against
    the reference's picks, records, values and loads."""
    picked, records = phase1(g, ExplicitFamilyOracle(f))
    want_picked, want_records, values, loads = ref_phase1(g, ExplicitFamilyOracle(f))
    assert (picked, records) == (want_picked, want_records)
    assert [type(it.eps) for it in records] == [Fraction] * len(records)
    dual = RunTrace(tuple(records), ()).dual
    assert dual.values == tuple(sorted(values.items(), key=lambda kv: kv[0].sort_key()))
    assert loads_as_fractions(g, dual.values) == loads
    return picked, records, dual


def test_phase1_matches_the_reference_loop_on_random_instances():
    zero_raises = 0
    for kind in ("gamma", "sparse", "uncrossable"):
        for i in range(15):
            g, f = random_instance(kind, instance_rng(105, i))
            for h in tie_heavy_copies(g):
                _, records, _ = assert_phase1_matches_reference(h, f)
                zero_raises += sum(1 for it in records if it.eps == 0)
    assert zero_raises > 100


def test_phase1_matches_the_reference_loop_on_tight_constructions():
    for leaves in (2, 4, 8, 16):
        betas = [b for b in (2, 4) if b <= leaves]
        for bundle in [tight_six(leaves), tight_seven(leaves)] + [tight_beta(leaves, b) for b in betas]:
            _, _, dual = assert_phase1_matches_reference(bundle.graph, bundle.family)
            assert dual.objective() == bundle.dual_objective


def test_phase1_infeasible_names_the_reference_core():
    checked = 0
    for i in range(20):
        g, f = random_instance("gamma", instance_rng(106, i))
        for h in tie_heavy_copies(g):
            cut = CostedGraph(h.n, h.edges[: len(h.edges) // 2])
            try:
                ref_phase1(cut, ExplicitFamilyOracle(f))
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError) as got:
                    phase1(cut, ExplicitFamilyOracle(f))
                assert got.value.core == exc.core
                checked += 1
    assert checked > 10


# --- integer phase 1 on raises of unrelated denominators ---------------------------


@st.composite
def laminar_instances(draw):
    """A laminar family, so every residual's cores are disjoint: the 2-6
    blocks of a random partition, the first iteration's cores, and nested
    unions of consecutive blocks short of the whole universe.  Costs are
    over 3, 5, 7 and 11, so the raises' denominators do not divide each
    other."""
    n = draw(st.integers(4, 9))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(2, min(6, n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    sets = []

    def subtree(lo, hi):
        if hi - lo > 1:
            mid = draw(st.integers(lo + 1, hi - 1))
            subtree(lo, mid)
            subtree(mid, hi)
        if hi - lo == 1 or (hi - lo < k and draw(st.booleans())):
            sets.append([x for b in blocks[lo:hi] for x in b])

    subtree(0, k)
    pairs = draw(st.lists(st.sampled_from(all_pairs(n)), min_size=k, max_size=3 * n))
    costs = st.builds(Fraction, st.integers(1, 40), st.sampled_from((3, 5, 7, 11)))
    return CostedGraph(n, tuple((u, v, draw(costs)) for u, v in pairs)), ExplicitFamily.from_sets(n, sets)


@settings(deadline=None, max_examples=200)
@given(laminar_instances())
def test_integer_phase1_matches_the_reference_on_unrelated_denominators(instance):
    g, f = instance
    try:
        want = ref_phase1(g, ExplicitFamilyOracle(f))
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as got:
            phase1(g, ExplicitFamilyOracle(f))
        assert got.value.core == exc.core
        return
    _, _, dual = assert_phase1_matches_reference(g, f)
    assert all(type(y) is Fraction for _, y in dual.values)
    assert loads_as_fractions(g, dual.values) == ref_edge_loads(g, want[2].items())


def test_costed_graph_refuses_inexact_costs():
    # a float cost solved to the float dual 0.5, and True to the float 1.0
    for bad in (0.5, True, 1.0, None):
        with pytest.raises(ValueError, match=r"cost on edge \(0,1\)"):
            CostedGraph(3, ((1, 2, Fraction(1)), (0, 1, bad)))
    g = CostedGraph(3, ((0, 1, 1), (0, 2, Fraction(1, 2))))
    trace = solve(g, ExplicitFamilyOracle(ExplicitFamily.from_sets(3, [[0]])))
    assert trace.dual.values == ((NodeSet.from_members(3, [0]), Fraction(1, 2)),)
    assert trace.solution_cost(g) == Fraction(1, 2)


@settings(deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=60), max_size=12), st.data())
def test_cost_and_objective_sums_equal_the_fraction_sums(costs, data):
    g = CostedGraph(2, tuple((0, 1, c) for c in costs))
    solution = tuple(sorted(data.draw(st.sets(st.integers(0, len(costs) - 1)) if costs else st.just(set()))))
    trace = RunTrace(tuple(IterationRecord((), Fraction(0), (e,)) for e in solution), ())
    assert trace.solution == solution
    assert trace.solution_cost(g) == sum((costs[e] for e in solution), Fraction(0))
    values = tuple((NodeSet(2, 1), y) for y in costs)
    assert DualState(values).objective() == sum(costs, Fraction(0))
    assert type(trace.solution_cost(g)) is type(DualState(values).objective()) is Fraction
