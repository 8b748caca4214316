"""The incremental residual (`FamilyOracle.residual`) and the one-pass
query `reverse_delete(J)` against the stateless queries `cores(J)` and
`is_covered(J)`.

Every oracle answers with its family's residual, a wrapper with the
family of the oracle it wraps.  The references are the loops in
`oracles.ReferenceOracle`, which ask `cores` and `is_covered`: the runs
must not tell them apart, and `certify` must not trust either.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pliablecover.setfam as setfam
from pliablecover.errors import InfeasibleError, OracleInvariantError
from pliablecover.exact import brute_force_opt, certify
from pliablecover.gens import (
    instance_rng,
    random_cap_graph,
    random_instance,
    tight_beta,
    tight_seven,
    tight_six,
)
from pliablecover.jsonio import dumps_canonical, trace_to_json
from pliablecover.setfam import ExplicitFamily, ExplicitFamilyOracle, FamilyOracle, NodeSet, all_pairs
from pliablecover.smallcuts import CapGraph, SmallCutsOracle
from pliablecover.wgmv import CostedGraph, IterationRecord, solve

from oracles import CountingOracle, ReferenceOracle, loop_reverse_delete


def outcome(read):
    """read(), or the OracleInvariantError it raises."""
    try:
        return read()
    except OracleInvariantError as exc:
        return exc


def assert_walk_matches(oracle: FamilyOracle, adds, reads: list[bool]) -> None:
    """Walk `adds` on the residual; the cores of each step that
    reads[t % len(reads)] marks, and of the last, equal the stateless ones,
    refusals included."""
    residual = oracle.residual()
    edges: list = []
    for t, step in enumerate([None, *adds]):
        if step is not None:
            residual = residual.add(*step)
            edges.append(step)
        if not reads[t % len(reads)] and t < len(adds):
            continue
        want = outcome(lambda: tuple(oracle.cores(list(edges))))
        got = outcome(lambda: residual.cores)
        if isinstance(want, OracleInvariantError):
            assert isinstance(got, OracleInvariantError), (t, edges)
            assert str(got) == str(want), (t, edges)
        else:
            assert got == want, (t, edges, got)


@st.composite
def walks(draw, n):
    """Adds over a few pairs, so parallel copies and both orientations recur."""
    pool = draw(st.lists(st.sampled_from(all_pairs(n)), min_size=1, max_size=4))
    adds = []
    for _ in range(draw(st.integers(0, 10))):
        u, v = draw(st.sampled_from(pool))
        adds.append((u, v) if draw(st.booleans()) else (v, u))
    return adds, draw(st.lists(st.booleans(), min_size=1, max_size=4))


@st.composite
def explicit_walks(draw):
    n = draw(st.integers(2, 6))
    masks = draw(st.sets(st.integers(1, (1 << n) - 2), max_size=8))  # the empty family too
    f = ExplicitFamily(n, tuple(NodeSet(n, m) for m in masks))
    return f, *draw(walks(n))


@st.composite
def cut_walks(draw):
    n = draw(st.integers(2, 5))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 4)).filter(
                lambda r: r[0] != r[1]
            ),
            max_size=8,
        )
    )
    h = CapGraph.build(n, rows, draw(st.integers(0, 6)))
    return h, *draw(walks(n))


@given(explicit_walks())
@settings(deadline=None, max_examples=300)
def test_explicit_residual_matches_the_stateless_query(case):
    f, adds, reads = case
    assert_walk_matches(ExplicitFamilyOracle(f), adds, reads)


@given(cut_walks())
@settings(deadline=None, max_examples=150)
def test_small_cut_residual_matches_the_stateless_query(case):
    h, adds, reads = case
    assert_walk_matches(SmallCutsOracle(h), adds, reads)


def test_overlapping_cores_are_refused_at_the_same_step():
    # Cores {0,3} and {1,2}; (3,4) kills {0,3} and leaves {0,1,3,4}, which
    # overlaps {1,2}; (1,5) covers both.
    f = ExplicitFamily.from_sets(6, [[0, 3], [0, 1, 3, 4], [1, 2]])
    oracle = ExplicitFamilyOracle(f)
    assert_walk_matches(oracle, [(3, 4), (1, 5)], [True])
    residual = oracle.residual().add(3, 4)
    with pytest.raises(OracleInvariantError, match="disjoint"):
        residual.cores
    assert residual.add(1, 5).cores == ()


def test_residual_refuses_bad_edges_and_leaves_its_parent_unchanged():
    f = ExplicitFamily.from_sets(4, [[0], [1], [0, 1]])
    root = ExplicitFamilyOracle(f).residual()
    with pytest.raises(ValueError, match="is a loop"):
        root.add(1, 1)
    with pytest.raises(ValueError, match="outside universe"):
        root.add(0, 4)
    for bad in ((1.5, 0), (True, 2)):
        with pytest.raises(ValueError, match="not an int"):
            root.add(*bad)
    one = root.add(0, 2)
    assert [c.members() for c in one.cores] == [(1,)]
    assert [c.members() for c in root.cores] == [(0,), (1,)]


# --- derived core tuples ----------------------------------------------------


def assert_adds_derive_cores(oracle: FamilyOracle, adds, plan) -> None:
    """Walk `adds` on the residual.  plan[t] says whether to read the
    parent's cores before the add.  A child whose parent held its tuple
    derives its own unless the stateless query refuses, and every tuple is
    the stateless one, object for object."""
    residual = oracle.residual()
    edges: list = []
    for (u, v), read_parent in zip(adds, plan):
        if read_parent:
            outcome(lambda: residual.cores)
        held = residual._cores is not None
        residual = residual.add(u, v)
        edges.append((u, v))
        want = outcome(lambda: tuple(oracle.cores(list(edges))))
        if held and not isinstance(want, OracleInvariantError):
            assert residual._cores is not None, edges  # derived, not listed
        got = outcome(lambda: residual.cores)
        if isinstance(want, OracleInvariantError):
            assert isinstance(got, OracleInvariantError), edges
            assert str(got) == str(want), edges
        else:
            assert got == want, edges
            assert all(a is b for a, b in zip(got, want)), edges


@st.composite
def explicit_add_walks(draw):
    n = draw(st.integers(2, 7))
    masks = draw(st.sets(st.integers(1, (1 << n) - 2), max_size=10))
    f = ExplicitFamily(n, tuple(NodeSet(n, m) for m in masks))
    adds = draw(st.lists(st.sampled_from(all_pairs(n)), max_size=10))
    plan = draw(st.lists(st.booleans(), min_size=len(adds), max_size=len(adds)))
    return f, adds, plan


@given(explicit_add_walks())
@settings(deadline=None, max_examples=300)
def test_add_derives_the_stateless_core_tuple_on_explicit_families(case):
    f, adds, plan = case
    assert_adds_derive_cores(ExplicitFamilyOracle(f), adds, plan)


def test_add_derives_the_stateless_core_tuple_on_small_cut_graphs():
    for n in range(4, 11):
        for i in range(6):
            rng = instance_rng(180 + n, i)
            oracle = SmallCutsOracle(random_cap_graph(rng, n))
            adds = [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)]
            plan = [rng.random() < 0.7 for _ in adds]
            assert_adds_derive_cores(oracle, adds, plan)


def test_add_derives_the_core_tuples_of_a_tight_run():
    bundle = tight_six(16)
    oracle = ExplicitFamilyOracle(bundle.family)
    trace = solve(bundle.graph, oracle)
    adds = [bundle.graph.pair(e) for e in trace.additions()]
    assert_adds_derive_cores(oracle, adds, [True] * len(adds))


def held_counts(residual) -> list[int]:
    """Per member, the counter `_held_counts` keeps, read off its bit planes."""
    planes = residual._held_counts()
    return [sum((p >> j & 1) << b for b, p in enumerate(planes)) for j in range(len(residual._family.masks))]


@given(explicit_add_walks())
@settings(deadline=None, max_examples=300)
def test_held_counts_follow_the_cores_along_adds(case):
    """The per-member counts that `add` carries equal, after every add, the
    number of current cores each member holds."""
    f, adds, _ = case
    residual = ExplicitFamilyOracle(f).residual()
    masks = f.masks
    for step in [None, *adds]:
        if step is not None:
            residual = residual.add(*step)
        cores = [m for i, m in enumerate(masks) if residual._core_bits >> i & 1]
        assert held_counts(residual) == [sum(c & ~m == 0 for c in cores) for m in masks]


# --- reverse_delete(J) against the per-edge loop ----------------------------


def edge_lists(oracle: FamilyOracle, edges: list, pairs: list) -> list[list]:
    """J itself, J with repeated edges, and a cover from J plus `pairs`
    with every edge the per-edge loop finds removable dropped, newest
    first, so most of its edges are needed."""
    cover = [*edges, *pairs]
    for i in range(len(cover) - 1, -1, -1):
        if outcome(lambda: oracle.is_covered(cover[:i] + cover[i + 1 :])) is True:
            del cover[i]
    return [edges, edges + edges[::2], cover, cover + cover[:1]]


@st.composite
def explicit_edge_lists(draw):
    n = draw(st.integers(2, 7))
    masks = draw(st.sets(st.integers(1, (1 << n) - 2), max_size=10))
    f = ExplicitFamily(n, tuple(NodeSet(n, m) for m in masks))
    edges = draw(st.lists(st.sampled_from(all_pairs(n)), max_size=8))
    return f, edges, draw(st.permutations(all_pairs(n)))


def assert_reverse_delete_matches_the_loop(oracle: FamilyOracle, edges) -> None:
    """reverse_delete(J) equals the per-edge is_covered loop, refusals and
    their messages included."""
    got = outcome(lambda: oracle.reverse_delete(edges))
    want = outcome(lambda: loop_reverse_delete(oracle, edges))
    if isinstance(want, OracleInvariantError):
        assert isinstance(got, OracleInvariantError), (edges, got)
        assert str(got) == str(want), edges
    else:
        assert got == want, (edges, got)


def flipped(edges: list) -> list:
    """`edges` with every other edge turned around."""
    return [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]


@given(explicit_edge_lists())
@settings(deadline=None, max_examples=300)
def test_reverse_delete_matches_the_per_edge_loop_on_explicit_families(case):
    """J itself (which may not cover), J with repeated edges, a cover with
    most edges needed, and J plus every pair, where most edges drop; each
    also with every other edge turned around."""
    f, edges, pairs = case
    oracle = ExplicitFamilyOracle(f)
    for js in [*edge_lists(oracle, edges, pairs), edges + pairs]:
        assert_reverse_delete_matches_the_loop(oracle, js)
        assert_reverse_delete_matches_the_loop(oracle, flipped(js))


def test_reverse_delete_matches_the_per_edge_loop_on_small_cut_graphs():
    for n in range(4, 11):
        for i in range(6):
            rng = instance_rng(200 + n, i)
            oracle = SmallCutsOracle(random_cap_graph(rng, n))
            pairs = all_pairs(n)
            rng.shuffle(pairs)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(n)]
            for js in [*edge_lists(oracle, edges, pairs), edges + pairs]:
                assert_reverse_delete_matches_the_loop(oracle, js)


def removable_copies(oracle: FamilyOracle, edges: list) -> list[int]:
    """The positions of the copies of J whose removal leaves J covering,
    by one is_covered(J - that copy) per copy: the reference minimality
    test."""
    return [i for i in range(len(edges)) if oracle.is_covered(edges[:i] + edges[i + 1 :])]


def assert_minimal_iff_nothing_drops(oracle: FamilyOracle, edges: list) -> None:
    """reverse_delete(J) is [] exactly when no copy of J is removable, and
    its first drop is the last removable copy.  After that drop it probes
    edge sets the reference never asks about, so it may refuse there."""
    loose = outcome(lambda: removable_copies(oracle, edges))
    if isinstance(loose, OracleInvariantError):
        return  # refusals are compared with the per-edge loop above
    got = outcome(lambda: oracle.reverse_delete(edges))
    if not loose:
        assert got == [], (edges, got)
    elif not isinstance(got, OracleInvariantError):
        assert got[0] == loose[-1], (edges, got, loose)


@given(explicit_edge_lists())
@settings(deadline=None, max_examples=200)
def test_reverse_delete_drops_nothing_exactly_on_minimal_edge_lists_of_explicit_families(case):
    f, edges, pairs = case
    oracle = ExplicitFamilyOracle(f)
    for js in [*edge_lists(oracle, edges, pairs), edges + pairs]:
        assert_minimal_iff_nothing_drops(oracle, js)
        assert_minimal_iff_nothing_drops(oracle, flipped(js))


def test_reverse_delete_drops_nothing_exactly_on_minimal_edge_lists_of_small_cut_graphs():
    for n in range(4, 11):
        for i in range(6):
            rng = instance_rng(210 + n, i)
            h = random_cap_graph(rng, n)
            pairs = all_pairs(n)
            rng.shuffle(pairs)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(n)]
            oracle = SmallCutsOracle(h)
            for js in edge_lists(oracle, edges, pairs):
                assert_minimal_iff_nothing_drops(oracle, js)


def test_removable_refuses_overlapping_cores_as_the_loop_does():
    """The minimality check refuses where the per-copy reference refuses:
    (1,5) alone leaves {0,3}; (3,4) alone leaves {0,1,3,4} and {1,2}."""
    f = ExplicitFamily.from_sets(6, [[0, 3], [0, 1, 3, 4], [1, 2]])
    oracle = ExplicitFamilyOracle(f)
    edges = [(1, 5), (3, 4)]
    assert oracle.is_covered(edges)
    with pytest.raises(OracleInvariantError, match="disjoint") as by_loop:
        removable_copies(oracle, edges)
    with pytest.raises(OracleInvariantError) as by_family:
        oracle.reverse_delete(edges)
    assert str(by_family.value) == str(by_loop.value)
    assert_reverse_delete_matches_the_loop(oracle, edges)
    # With (1,5) repeated, either copy is removable.  Reverse delete drops
    # the newest, then refuses when it probes [(3,4)] without the other.
    twice = [(3, 4), (1, 5), (1, 5)]
    assert removable_copies(oracle, twice) == [1, 2]
    with pytest.raises(OracleInvariantError) as after_the_drop:
        oracle.reverse_delete(twice)
    assert str(after_the_drop.value) == str(by_loop.value)
    assert_reverse_delete_matches_the_loop(oracle, twice)
    assert_minimal_iff_nothing_drops(oracle, twice)


def test_certify_minimal_row_is_the_same_through_a_wrapper():
    """On runs whose solution keeps a dropped edge or gains a spare one, the
    solution-minimal row reads the same through the family's reverse delete
    and through a wrapper that runs the per-edge loop, and lists the edges
    the per-copy loop finds."""
    loose_rows = 0
    for i in range(30):
        kind = ("gamma", "sparse", "uncrossable")[i % 3]
        g, f = random_instance(kind, instance_rng(215, i), 4 + i % 4)
        inner = ExplicitFamilyOracle(f)
        trace = solve(g, inner)
        spare = [e for e in range(len(g.edges)) if e not in trace.additions()]
        runs = [dataclasses.replace(trace, deleted=trace.deleted[1:])] if trace.deleted else []
        runs += [
            dataclasses.replace(trace, iterations=trace.iterations + (IterationRecord((), Fraction(0), (e,)),))
            for e in spare[:2]
        ]
        for run in runs:
            sol = run.solution
            rows = [
                next(c for c in certify(g, o, run, kind).checks if c.name == "solution-minimal")
                for o in (inner, ReferenceOracle(inner))
            ]
            assert rows[0] == rows[1], (i, sol)
            loose = [sol[j] for j in removable_copies(inner, [g.pair(e) for e in sol])]
            assert (rows[0].ok, rows[0].detail) == (not loose, f"removable edges: {loose}" if loose else "")
            loose_rows += bool(loose)
    assert loose_rows > 30


def test_reverse_delete_refuses_bad_edges_as_the_kernel_does():
    """The reference loop's probes never hold the whole of J, so it checks
    the edges first, as the family does: a last-position loop is not
    dropped."""
    oracle = ExplicitFamilyOracle(ExplicitFamily.from_sets(3, [[0]]))
    for bad, message in (
        ((2, 2), "is a loop"),
        ((1, 7), "outside universe"),
        ((0.5, 2), "not an int"),
        ((True, 2), "not an int"),
    ):
        for query in (oracle.reverse_delete, ReferenceOracle(oracle).reverse_delete):
            with pytest.raises(ValueError, match=message):
                query([(0, 1), bad])


def test_reverse_delete_refuses_overlapping_cores_as_the_loop_does():
    # (3,4) covers {0,3}; (1,5) covers {0,1,3,4} and {1,2}; (0,2) covers all
    # three.  Without (1,5), [(3,4)] leaves {0,1,3,4} and {1,2}, which overlap.
    f = ExplicitFamily.from_sets(6, [[0, 3], [0, 1, 3, 4], [1, 2]])
    oracle = ExplicitFamilyOracle(f)
    edges = [(3, 4), (1, 5), (0, 2)]
    with pytest.raises(OracleInvariantError, match="disjoint") as by_loop:
        loop_reverse_delete(oracle, edges)
    with pytest.raises(OracleInvariantError) as by_family:
        oracle.reverse_delete(edges)
    assert str(by_family.value) == str(by_loop.value)
    # Newest first, (1,5) and (3,4) drop while (0,2) is kept.
    assert oracle.reverse_delete([(0, 2), (3, 4), (1, 5)]) == [2, 1]
    assert_reverse_delete_matches_the_loop(oracle, [(0, 2), (3, 4), (1, 5)])


def test_certify_asks_is_covered_once_through_a_wrapper():
    """A wrapper sees certify's one stateless query, is_covered(J); the
    minimality and membership checks run on the inner family.  Through the
    reference loops, they ask is_covered once per solution edge and cores
    once per dual set."""
    bundle = tight_six(8)
    inner = ExplicitFamilyOracle(bundle.family)
    trace = solve(bundle.graph, inner)
    want = certify(bundle.graph, inner, trace, "sparse")
    assert want.verdict
    wrapped = CountingOracle(inner)
    assert certify(bundle.graph, wrapped, trace, "sparse") == want
    assert wrapped.calls == {"cores": 0, "is_covered": 1}
    reference = ReferenceOracle(inner)
    assert certify(bundle.graph, reference, trace, "sparse") == want
    assert reference.calls == {"cores": len(trace.dual.values), "is_covered": len(trace.solution) + 1}


def test_reverse_delete_asks_no_oracle_call_through_a_wrapper():
    g, f = random_instance("gamma", instance_rng(104, 1))
    inner = ExplicitFamilyOracle(f)
    trace = solve(g, inner)
    pairs = [g.pair(e) for e in trace.additions()]
    want = inner.reverse_delete(pairs)
    assert [trace.additions()[i] for i in want] == list(trace.deleted) != []
    wrapped = CountingOracle(inner)
    assert wrapped.reverse_delete(pairs) == want
    assert wrapped.calls == {"cores": 0, "is_covered": 0}
    reference = ReferenceOracle(inner)
    assert reference.reverse_delete(pairs) == want
    assert reference.calls == {"cores": 0, "is_covered": len(pairs)}


def test_a_wrapper_answers_from_the_inner_kernel():
    f = ExplicitFamily.from_sets(4, [[0], [1], [0, 1], [2, 3]])
    for inner in (ExplicitFamilyOracle(f), SmallCutsOracle(CapGraph.build(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)], 2))):
        wrapped = CountingOracle(inner)
        assert wrapped.universe_size() == 4
        assert wrapped.residual() is inner.residual()
        assert wrapped.residual().add(0, 2).cores == inner.residual().add(0, 2).cores
        for mask in range(16):
            assert wrapped.contains(NodeSet(4, mask)) == inner.contains(NodeSet(4, mask))
        assert wrapped.reverse_delete(all_pairs(4)) == inner.reverse_delete(all_pairs(4))
        assert wrapped.calls == {"cores": 0, "is_covered": 0}
        assert CountingOracle(wrapped).residual() is inner.residual()


def test_an_oracle_with_neither_kernel_nor_inner_is_refused_at_its_first_query():
    class Bare(FamilyOracle):
        pass

    for query in (
        lambda o: o.cores([]),
        lambda o: o.is_covered([]),
        lambda o: o.residual(),
        lambda o: o.reverse_delete([]),
        lambda o: o.universe_size(),
        lambda o: o.contains(NodeSet(2, 1)),
    ):
        with pytest.raises(NotImplementedError, match=r"^Bare sets neither `_family` nor `inner`: .* a wrapper sets `inner`"):
            query(Bare())


# --- the stateless reference against the family -----------------------------


def canonical_run(g, oracle) -> str:
    try:
        return dumps_canonical(trace_to_json(g, solve(g, oracle)))
    except InfeasibleError as exc:
        return f"infeasible {exc.core.members()}"


def assert_default_matches_family(g, inner: FamilyOracle) -> None:
    """The same trace through the family's residual and through the
    reference loops, which ask cores once per iteration (and once more at
    the end) and is_covered once per picked edge, as the stateless solver
    did.  Along the run's additions, both residuals leave the same members
    alive."""
    wrapped = ReferenceOracle(inner)
    assert canonical_run(g, wrapped) == canonical_run(g, inner)
    try:
        trace = solve(g, inner)
    except InfeasibleError:
        return
    assert wrapped.calls == {"cores": len(trace.iterations) + 1, "is_covered": len(trace.iterations)}
    reference, family = wrapped.residual(), inner.residual()
    assert reference.alive == family.alive
    for e in trace.additions():
        reference, family = reference.add(*g.pair(e)), family.add(*g.pair(e))
        assert reference.alive == family.alive, e


def test_default_residual_matches_the_kernel_on_the_sweep_strata():
    for n in range(4, 8):
        for kind in ("gamma", "sparse", "uncrossable"):
            for i in range(3):
                g, f = random_instance(kind, instance_rng(160 + n, i), n)
                assert_default_matches_family(g, ExplicitFamilyOracle(f))
                wrapped = ReferenceOracle(ExplicitFamilyOracle(f))
                assert brute_force_opt(g, wrapped) == brute_force_opt(g, ExplicitFamilyOracle(f))


def test_default_residual_matches_the_kernel_on_tight_bundles():
    for leaves in (2, 4, 8, 16, 32):
        betas = [tight_beta(leaves, b) for b in (2, 4) if b <= leaves]
        for bundle in [tight_six(leaves), tight_seven(leaves), *betas]:
            assert_default_matches_family(bundle.graph, ExplicitFamilyOracle(bundle.family))


def test_default_residual_matches_the_kernel_on_small_cut_graphs():
    for n in range(4, 11):
        for i in range(4):
            rng = instance_rng(170 + n, i)
            h = random_cap_graph(rng, n)
            pairs = sorted(rng.sample(all_pairs(n), min(2 * n, n * (n - 1) // 2)))
            g = CostedGraph.build(n, [(u, v, rng.randint(1, 9)) for u, v in pairs])
            assert_default_matches_family(g, SmallCutsOracle(h))
            if len(g.edges) <= 12:
                want = brute_force_opt(g, SmallCutsOracle(h))
                assert brute_force_opt(g, ReferenceOracle(SmallCutsOracle(h))) == want


# --- certify does not trust the residual ------------------------------------


def test_fresh_core_copies_give_the_kernel_trace(monkeypatch):
    """Phase 1 tells cores apart by object; a residual that hands out fresh
    copies makes every core die and be born again each iteration, with the
    same trace."""
    cases = [(b.graph, b.family) for b in (tight_six(8), tight_seven(8))]
    cases += [random_instance(("gamma", "sparse", "uncrossable")[i % 3], instance_rng(190, i), 4 + i % 4) for i in range(50)]
    want = [(canonical_run(g, ExplicitFamilyOracle(f)), solve(g, ExplicitFamilyOracle(f))) for g, f in cases]
    cores = setfam._Residual.cores.fget
    copied = []

    def fresh_cores(self):
        out = tuple(NodeSet(c.n, c.mask) for c in cores(self))
        copied.append(out)
        return out

    monkeypatch.setattr(setfam._Residual, "cores", property(fresh_cores))
    for (g, f), (run, trace) in zip(cases, want):
        assert canonical_run(g, ExplicitFamilyOracle(f)) == run
        assert solve(g, ExplicitFamilyOracle(f)) == trace
    assert len(copied) == 2 * sum(len(t.iterations) + 1 for _, t in want)  # one read per step of each solve


def test_certify_refuses_a_run_whose_residual_dropped_a_core(monkeypatch):
    f = ExplicitFamily.from_sets(4, [[0], [1], [2]])
    g = CostedGraph.build(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)])
    honest = solve(g, ExplicitFamilyOracle(f))
    assert certify(g, ExplicitFamilyOracle(f), honest, "uncrossable").verdict

    add = setfam._Residual.add

    def lossy_add(self, u, v):
        child = add(self, u, v)
        low = child._core_bits & -child._core_bits
        return setfam._Residual(child._family, child.alive, child._core_bits ^ low)

    monkeypatch.setattr(setfam._Residual, "add", lossy_add)
    run = solve(g, ExplicitFamilyOracle(f))
    assert run.solution != honest.solution
    cert = certify(g, ExplicitFamilyOracle(f), run, "uncrossable")
    assert not cert.verdict
    assert [c.ok for c in cert.checks if c.name == "solution-covers-family"] == [False]
