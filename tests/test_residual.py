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
