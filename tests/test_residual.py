"""The incremental residual (`FamilyOracle.residual`) against the stateless
queries `cores(J)` and `is_covered(J)`.

Both in-package oracles answer with the coverage kernel's residual; a
wrapper that forwards only `cores` and `is_covered` gets the base class's
default, which asks those two.  The runs must not tell them apart, and
`certify` must not trust either.
"""

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
from pliablecover.wgmv import CostedGraph, solve


class CountingOracle(FamilyOracle):
    """Forwards only cores, is_covered and universe_size, as a delegating
    tracing wrapper does, so `residual` is the base class's default; counts
    the calls it forwards."""

    def __init__(self, inner: FamilyOracle) -> None:
        self.inner = inner
        self.calls = {"cores": 0, "is_covered": 0}

    def universe_size(self) -> int:
        return self.inner.universe_size()

    def cores(self, edges):
        self.calls["cores"] += 1
        return self.inner.cores(edges)

    def is_covered(self, edges):
        self.calls["is_covered"] += 1
        return self.inner.is_covered(edges)


def outcome(read):
    """read(), or the OracleInvariantError it raises."""
    try:
        return read()
    except OracleInvariantError as exc:
        return exc


def assert_walk_matches(oracle: FamilyOracle, steps, cores_first: list[bool]) -> None:
    """Walk `steps` (("add", u, v) or ("remove", i), i an index into J) on
    the residual; each step's cores and covered, read in the order
    `cores_first` gives, equal the stateless ones, refusals included."""
    residual = oracle.residual()
    edges: list = []
    for t, step in enumerate([None, *steps]):
        if step is not None and step[0] == "add":
            residual = residual.add(step[1], step[2])
            edges.append((step[1], step[2]))
        elif step is not None:
            e = edges[step[1] % len(edges)]
            residual = residual.remove(*e)
            del edges[len(edges) - 1 - edges[::-1].index(e)]
        want = {
            "cores": outcome(lambda: tuple(oracle.cores(list(edges)))),
            "covered": outcome(lambda: oracle.is_covered(list(edges))),
        }
        for what in ("cores", "covered") if cores_first[t % len(cores_first)] else ("covered", "cores"):
            got = outcome(lambda: getattr(residual, what))
            if isinstance(want[what], OracleInvariantError):
                assert isinstance(got, OracleInvariantError), (t, what, edges)
                assert str(got) == str(want[what]), (t, what, edges)
            else:
                assert got == want[what], (t, what, edges, got)


@st.composite
def walks(draw, n):
    """Steps over a few pairs, so parallel copies and both orientations recur."""
    pool = draw(st.lists(st.sampled_from(all_pairs(n)), min_size=1, max_size=4))
    steps = []
    size = 0
    for _ in range(draw(st.integers(0, 10))):
        if size and draw(st.booleans()):
            steps.append(("remove", draw(st.integers(0, size - 1))))
            size -= 1
        else:
            u, v = draw(st.sampled_from(pool))
            steps.append(("add", *((u, v) if draw(st.booleans()) else (v, u))))
            size += 1
    return steps, draw(st.lists(st.booleans(), min_size=1, max_size=4))


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
    f, steps, cores_first = case
    for oracle in (ExplicitFamilyOracle(f), CountingOracle(ExplicitFamilyOracle(f))):
        assert_walk_matches(oracle, steps, cores_first)


@given(cut_walks())
@settings(deadline=None, max_examples=150)
def test_small_cut_residual_matches_the_stateless_query(case):
    h, steps, cores_first = case
    for oracle in (SmallCutsOracle(h), CountingOracle(SmallCutsOracle(h))):
        assert_walk_matches(oracle, steps, cores_first)


def test_overlapping_cores_are_refused_at_the_same_step():
    # Cores {0,3} and {1,2}; (3,4) kills {0,3} and leaves {0,1,3,4}, which
    # overlaps {1,2}; (1,5) covers both.
    f = ExplicitFamily.from_sets(6, [[0, 3], [0, 1, 3, 4], [1, 2]])
    steps = [("add", 3, 4), ("add", 1, 5), ("remove", 1), ("remove", 0)]
    for oracle in (ExplicitFamilyOracle(f), CountingOracle(ExplicitFamilyOracle(f))):
        assert_walk_matches(oracle, steps, [True, False])
        residual = oracle.residual().add(3, 4)
        with pytest.raises(OracleInvariantError, match="disjoint"):
            residual.cores
        with pytest.raises(OracleInvariantError, match="disjoint"):
            residual.covered
        assert residual.add(1, 5).covered


def test_residual_refuses_bad_edges_and_leaves_its_parent_unchanged():
    f = ExplicitFamily.from_sets(4, [[0], [1], [0, 1]])
    for oracle in (ExplicitFamilyOracle(f), CountingOracle(ExplicitFamilyOracle(f))):
        root = oracle.residual()
        with pytest.raises(ValueError, match="is a loop"):
            root.add(1, 1)
        with pytest.raises(ValueError, match="outside universe"):
            root.add(0, 4)
        with pytest.raises(ValueError, match="not in the residual's edge set"):
            root.remove(0, 2)
        one = root.add(0, 2)
        with pytest.raises(ValueError, match="not in the residual's edge set"):
            one.remove(2, 0)
        assert [c.members() for c in one.cores] == [(1,)]
        assert [c.members() for c in root.cores] == [(0,), (1,)]
        assert one.remove(0, 2).cores == root.cores


def test_covered_refuses_an_overlapping_residual_as_cores_does():
    f = ExplicitFamily.from_sets(6, [[0, 3], [0, 1, 3, 4], [1, 2]])
    oracle = ExplicitFamilyOracle(f)
    with pytest.raises(OracleInvariantError) as by_cores:
        oracle.residual().add(3, 4).cores
    with pytest.raises(OracleInvariantError) as by_covered:
        oracle.residual().add(3, 4).covered
    assert str(by_covered.value) == str(by_cores.value)


# --- derived core tuples ----------------------------------------------------


def assert_adds_derive_cores(oracle: FamilyOracle, adds, plan) -> None:
    """Walk `adds` on the residual.  plan[t] is (read the parent's cores
    before the add, read the child's covered before its cores).  A child
    whose parent held its tuple derives its own unless the stateless query
    refuses, and every tuple is the stateless one, object for object."""
    residual = oracle.residual()
    edges: list = []
    for (u, v), (read_parent, covered_first) in zip(adds, plan):
        if read_parent:
            outcome(lambda: residual.cores)
        held = residual._cores is not None
        residual = residual.add(u, v)
        edges.append((u, v))
        want = outcome(lambda: tuple(oracle.cores(list(edges))))
        if held and not isinstance(want, OracleInvariantError):
            assert residual._cores is not None, edges  # derived, not listed
        reads = ("covered", "cores") if covered_first else ("cores", "covered")
        got = {what: outcome(lambda: getattr(residual, what)) for what in reads}
        if isinstance(want, OracleInvariantError):
            for what in reads:
                assert isinstance(got[what], OracleInvariantError), (what, edges)
                assert str(got[what]) == str(want), (what, edges)
        else:
            assert got["cores"] == want, edges
            assert all(a is b for a, b in zip(got["cores"], want)), edges
            assert got["covered"] == (not want), edges


@st.composite
def explicit_add_walks(draw):
    n = draw(st.integers(2, 7))
    masks = draw(st.sets(st.integers(1, (1 << n) - 2), max_size=10))
    f = ExplicitFamily(n, tuple(NodeSet(n, m) for m in masks))
    adds = draw(st.lists(st.sampled_from(all_pairs(n)), max_size=10))
    plan = draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=len(adds), max_size=len(adds)))
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
            plan = [(rng.random() < 0.7, rng.random() < 0.5) for _ in adds]
            assert_adds_derive_cores(oracle, adds, plan)


def test_add_derives_the_core_tuples_of_a_tight_run():
    bundle = tight_six(16)
    oracle = ExplicitFamilyOracle(bundle.family)
    trace = solve(bundle.graph, oracle)
    adds = [bundle.graph.pair(e) for e in trace.additions()]
    assert_adds_derive_cores(oracle, adds, [(True, False)] * len(adds))


def held_counts(residual) -> list[int]:
    """Per member, the counter `_held_counts` keeps, read off its bit planes."""
    planes = residual._held_counts()
    return [sum((p >> j & 1) << b for b, p in enumerate(planes)) for j in range(len(residual._kernel.masks))]


@given(explicit_add_walks())
@settings(deadline=None, max_examples=300)
def test_held_counts_follow_the_cores_along_adds(case):
    """The per-member counts that `add` carries equal, after every add, the
    number of current cores each member holds."""
    f, adds, _ = case
    residual = ExplicitFamilyOracle(f).residual()
    masks = f.masks()
    for step in [None, *adds]:
        if step is not None:
            residual = residual.add(*step)
        cores = [m for i, m in enumerate(masks) if residual._core_bits >> i & 1]
        assert held_counts(residual) == [sum(c & ~m == 0 for c in cores) for m in masks]


# --- removable(J) against the per-edge loop ---------------------------------


def assert_removable_matches_the_loop(oracle: FamilyOracle, edges) -> None:
    """removable(J) equals the base class's per-edge is_covered loop,
    refusals and their messages included."""
    got = outcome(lambda: oracle.removable(edges))
    want = outcome(lambda: FamilyOracle.removable(oracle, edges))
    if isinstance(want, OracleInvariantError):
        assert isinstance(got, OracleInvariantError), (edges, got)
        assert str(got) == str(want), edges
    else:
        assert got == want, (edges, got)


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


@given(explicit_edge_lists())
@settings(deadline=None, max_examples=300)
def test_removable_matches_the_per_edge_loop_on_explicit_families(case):
    f, edges, pairs = case
    oracle = ExplicitFamilyOracle(f)
    for js in edge_lists(oracle, edges, pairs):
        assert_removable_matches_the_loop(oracle, js)


def test_removable_matches_the_per_edge_loop_on_small_cut_graphs():
    for n in range(4, 11):
        for i in range(6):
            rng = instance_rng(190 + n, i)
            oracle = SmallCutsOracle(random_cap_graph(rng, n))
            pairs = all_pairs(n)
            rng.shuffle(pairs)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(n)]
            for js in edge_lists(oracle, edges, pairs):
                assert_removable_matches_the_loop(oracle, js)


def test_removable_refuses_overlapping_cores_as_the_loop_does():
    # (1,5) alone leaves {0,3}; (3,4) alone leaves {0,1,3,4} and {1,2}.
    f = ExplicitFamily.from_sets(6, [[0, 3], [0, 1, 3, 4], [1, 2]])
    oracle = ExplicitFamilyOracle(f)
    edges = [(1, 5), (3, 4)]
    assert oracle.is_covered(edges)
    with pytest.raises(OracleInvariantError, match="disjoint") as by_loop:
        FamilyOracle.removable(oracle, edges)
    with pytest.raises(OracleInvariantError) as by_kernel:
        oracle.removable(edges)
    assert str(by_kernel.value) == str(by_loop.value)
    assert_removable_matches_the_loop(oracle, edges)
    assert oracle.removable([(3, 4), (1, 5), (1, 5)]) == [False, True, True]


class CoveredCounter(ExplicitFamilyOracle):
    """The explicit oracle, counting its own is_covered calls."""

    def __init__(self, family: ExplicitFamily) -> None:
        super().__init__(family)
        self.asked = 0

    def is_covered(self, edges):
        self.asked += 1
        return super().is_covered(edges)


def test_certify_asks_is_covered_per_solution_edge_only_through_a_wrapper():
    bundle = tight_six(8)
    inner = ExplicitFamilyOracle(bundle.family)
    trace = solve(bundle.graph, inner)
    want = certify(bundle.graph, inner, trace, "sparse")
    assert want.verdict
    wrapped = CountingOracle(inner)
    assert certify(bundle.graph, wrapped, trace, "sparse") == want
    assert wrapped.calls["is_covered"] == len(trace.solution) + 1
    counter = CoveredCounter(bundle.family)
    assert certify(bundle.graph, counter, trace, "sparse") == want
    assert counter.asked == 1


# --- the base-class default against the kernel ------------------------------


def canonical_run(g, oracle) -> str:
    try:
        return dumps_canonical(trace_to_json(g, solve(g, oracle)))
    except InfeasibleError as exc:
        return f"infeasible {exc.core.members()}"


def assert_default_matches_kernel(g, inner: FamilyOracle) -> None:
    """The same trace through the kernel's residual and through the
    default, which asks cores once per iteration (and once more at the end)
    and is_covered once per picked edge, as the stateless solver did."""
    wrapped = CountingOracle(inner)
    assert canonical_run(g, wrapped) == canonical_run(g, inner)
    try:
        trace = solve(g, inner)
    except InfeasibleError:
        return
    assert wrapped.calls == {"cores": len(trace.iterations) + 1, "is_covered": len(trace.iterations)}


def test_default_residual_matches_the_kernel_on_the_sweep_strata():
    for n in range(4, 8):
        for kind in ("gamma", "sparse", "uncrossable"):
            for i in range(3):
                g, f = random_instance(kind, instance_rng(160 + n, i), n)
                assert_default_matches_kernel(g, ExplicitFamilyOracle(f))
                wrapped = CountingOracle(ExplicitFamilyOracle(f))
                assert brute_force_opt(g, wrapped) == brute_force_opt(g, ExplicitFamilyOracle(f))


def test_default_residual_matches_the_kernel_on_tight_bundles():
    for leaves in (2, 4, 8, 16, 32):
        betas = [tight_beta(leaves, b) for b in (2, 4) if b <= leaves]
        for bundle in [tight_six(leaves), tight_seven(leaves), *betas]:
            assert_default_matches_kernel(bundle.graph, ExplicitFamilyOracle(bundle.family))


def test_default_residual_matches_the_kernel_on_small_cut_graphs():
    for n in range(4, 11):
        for i in range(4):
            rng = instance_rng(170 + n, i)
            h = random_cap_graph(rng, n)
            pairs = sorted(rng.sample(all_pairs(n), min(2 * n, n * (n - 1) // 2)))
            g = CostedGraph.build(n, [(u, v, rng.randint(1, 9)) for u, v in pairs])
            assert_default_matches_kernel(g, SmallCutsOracle(h))
            if len(g.edges) <= 12:
                want = brute_force_opt(g, SmallCutsOracle(h))
                assert brute_force_opt(g, CountingOracle(SmallCutsOracle(h))) == want


# --- certify does not trust the residual ------------------------------------


class CopyingOracle(CountingOracle):
    """A forwarding wrapper whose `cores` hands out a new NodeSet for every
    core on every call, so no core object is shared across iterations."""

    def cores(self, edges):
        return [NodeSet(c.n, c.mask) for c in super().cores(edges)]


def test_fresh_core_copies_give_the_kernel_trace():
    """Phase 1 tells cores apart by object; a residual that hands out fresh
    copies makes every core die and be born again each iteration, with the
    same trace."""
    cases = [(b.graph, b.family) for b in (tight_six(8), tight_seven(8))]
    cases += [random_instance(("gamma", "sparse", "uncrossable")[i % 3], instance_rng(190, i), 4 + i % 4) for i in range(50)]
    for g, f in cases:
        copying = CopyingOracle(ExplicitFamilyOracle(f))
        assert canonical_run(g, copying) == canonical_run(g, ExplicitFamilyOracle(f))
        assert solve(g, copying) == solve(g, ExplicitFamilyOracle(f))


def test_certify_refuses_a_run_whose_residual_dropped_a_core(monkeypatch):
    f = ExplicitFamily.from_sets(4, [[0], [1], [2]])
    g = CostedGraph.build(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)])
    honest = solve(g, ExplicitFamilyOracle(f))
    assert certify(g, ExplicitFamilyOracle(f), honest, "uncrossable").verdict

    add = setfam._KernelResidual.add

    def lossy_add(self, u, v):
        child = add(self, u, v)
        low = child._core_bits & -child._core_bits
        return setfam._KernelResidual(child._kernel, child.edges, child.alive, None, child._core_bits ^ low)

    monkeypatch.setattr(setfam._KernelResidual, "add", lossy_add)
    run = solve(g, ExplicitFamilyOracle(f))
    assert run.solution != honest.solution
    cert = certify(g, ExplicitFamilyOracle(f), run, "uncrossable")
    assert not cert.verdict
    assert [c.ok for c in cert.checks if c.name == "solution-covers-family"] == [False]
