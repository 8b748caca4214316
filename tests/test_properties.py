"""Property-based tests tying the fast paths to brute-force references."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pliablecover.errors import InfeasibleError, OracleInvariantError
from pliablecover.exact import brute_force_opt
from pliablecover.gens import instance_rng, random_instance
from pliablecover.jsonio import (
    Instance,
    family_spec_from_json,
    family_to_json,
    frac_from_json,
    frac_to_json,
    graph_from_json,
    graph_to_json,
    instance_from_json,
    instance_to_json,
    trace_from_json,
    trace_to_json,
)
from pliablecover.setfam import (
    ExplicitFamily,
    ExplicitFamilyOracle,
    NodeSet,
    _CoverageKernel,
    all_pairs,
    check_family,
    edge_crosses_mask,
)
from pliablecover.smallcuts import CapGraph, SmallCutsOracle, cut_value, materialize_family
from pliablecover.wgmv import CostedGraph, solve


@st.composite
def node_sets(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << n) - 1))
    return NodeSet(n, mask)


@st.composite
def families(draw, max_n=6, max_members=6):
    n = draw(st.integers(2, max_n))
    masks = draw(
        st.sets(st.integers(1, (1 << n) - 2), min_size=1, max_size=max_members)
    )
    return ExplicitFamily(n, tuple(NodeSet(n, m) for m in sorted(masks)))


def edge_lists(n, max_edges=5):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    return st.lists(pair.map(lambda p: (min(p), max(p))), max_size=max_edges)


@st.composite
def cap_graphs(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
            ).filter(lambda r: r[0] != r[1]),
            max_size=8,
        )
    )
    edges = tuple((min(u, v), max(u, v), c) for u, v, c in rows)
    k = draw(st.fractions(min_value=Fraction(1, 2), max_value=8, max_denominator=2))
    return CapGraph(n, edges, k)


def residual(f: ExplicitFamily, edges) -> ExplicitFamily:
    """F^J: the members the coverage kernel's covered mask leaves alive."""
    covered = _CoverageKernel(f.n, f.masks()).covered(edges)
    return ExplicitFamily(f.n, tuple(s for i, s in enumerate(f) if not covered >> i & 1))


# ---------------------------------------------------------------------------
# node sets and families


@given(node_sets(), st.data())
@settings(deadline=None)
def test_nodeset_ops_agree_with_set_semantics(a, data):
    b = NodeSet(a.n, data.draw(st.integers(0, (1 << a.n) - 1)))
    sa, sb = set(a.members()), set(b.members())
    assert set(NodeSet(a.n, a.mask & b.mask).members()) == sa & sb
    assert set(NodeSet(a.n, a.mask | b.mask).members()) == sa | sb
    assert set(NodeSet(a.n, a.mask & ~b.mask).members()) == sa - sb
    assert len(a) == len(sa)


@given(families(), st.data())
@settings(deadline=None)
def test_residual_composes(f, data):
    e1 = data.draw(edge_lists(f.n))
    e2 = data.draw(edge_lists(f.n))
    assert residual(f, e1 + e2) == residual(residual(f, e1), e2)


@given(families(), st.data())
@settings(deadline=None)
def test_residual_keeps_exactly_the_uncrossed_members(f, data):
    edges = data.draw(edge_lists(f.n))
    expected = {
        s.mask
        for s in f.members
        if not any(edge_crosses_mask(s.mask, u, v) for u, v in edges)
    }
    assert set(residual(f, edges).masks()) == expected


@given(families())
@settings(deadline=None)
def test_cores_are_the_inclusion_minimal_members(f):
    cores = _CoverageKernel(f.n, f.masks()).cores([])  # may overlap: no oracle
    members = set(f.masks())
    for c in cores:
        assert c.mask in members
        assert not any(
            m != c.mask and m & ~c.mask == 0 for m in members
        ), "a member sits strictly inside a core"
    # every member contains some core
    for m in members:
        assert any(c.mask & ~m == 0 for c in cores)


@given(families())
@settings(deadline=None)
def test_is_pliable_matches_the_quadratic_definition(f):
    present = set(f.masks())
    expected = all(
        sum(1 for d in (a & b, a | b, a & ~b, b & ~a) if d in present) >= 2
        for i, a in enumerate(f.masks())
        for b in f.masks()[i + 1 :]
    )
    assert check_family(f, "pliable").holds == expected


# ---------------------------------------------------------------------------
# solver invariants on generated instances


@given(st.integers(0, 10**6), st.sampled_from(["gamma", "sparse", "uncrossable"]))
@settings(deadline=None, max_examples=40)
def test_solver_output_invariants(seed, kind):
    g, f = random_instance(kind, instance_rng(seed, 0))
    oracle = ExplicitFamilyOracle(f)
    trace = solve(g, oracle)

    sol_pairs = [g.pair(e) for e in trace.solution]
    assert oracle.is_covered(sol_pairs)
    for e in trace.solution:
        rest = [g.pair(x) for x in trace.solution if x != e]
        assert not oracle.is_covered(rest), "solution is not inclusion-minimal"

    loads = [Fraction(0)] * len(g.edges)
    for s, y in trace.dual.values:
        assert y >= 0
        for eid in range(len(g.edges)):
            if edge_crosses_mask(s.mask, *g.pair(eid)):
                loads[eid] += y
    for eid in range(len(g.edges)):
        assert loads[eid] <= g.cost(eid)
        if eid in trace.solution:
            assert loads[eid] == g.cost(eid)

    assert trace.dual.objective() == sum(
        it.eps * len(it.cores) for it in trace.iterations
    )
    if len(g.edges) <= 12:
        opt, _ = brute_force_opt(g, oracle)
        assert trace.dual.objective() <= opt <= trace.solution_cost(g)


# ---------------------------------------------------------------------------
# cut enumeration


@given(cap_graphs())
@settings(deadline=None, max_examples=60)
def test_small_cut_masks_match_subset_scan(h):
    expected = [
        m
        for m in range(1, (1 << h.n) - 1)
        if cut_value(h, NodeSet(h.n, m)) < h.k
    ]
    assert sorted(materialize_family(h).masks()) == expected


@given(cap_graphs(), st.data())
@settings(deadline=None, max_examples=60)
def test_residual_cuts_shrink_when_edges_are_added(h, data):
    if h.n < 2:
        return
    edges = data.draw(edge_lists(h.n, max_edges=3))
    base = set(residual(materialize_family(h), ()).masks())
    fewer = set(residual(materialize_family(h), edges).masks())
    assert fewer <= base


def assert_uncrossing_edges_keep_the_cores(oracle, edges):
    """An edge that crosses no core of J leaves F^{J+e} a subfamily of F^J
    that still holds every core, so J + e has the same cores."""
    try:
        cores = oracle.cores(edges)
    except OracleInvariantError:
        assume(False)  # overlapping minimal members: the oracle refuses J itself
    for u, v in all_pairs(oracle.universe_size()):
        if not any(edge_crosses_mask(c.mask, u, v) for c in cores):
            assert oracle.cores(edges + [(u, v)]) == cores


@given(families(), st.data())
@settings(deadline=None)
def test_uncrossing_edge_keeps_the_explicit_cores(f, data):
    assert_uncrossing_edges_keep_the_cores(ExplicitFamilyOracle(f), data.draw(edge_lists(f.n)))


@given(cap_graphs(), st.data())
@settings(deadline=None, max_examples=60)
def test_uncrossing_edge_keeps_the_small_cut_cores(h, data):
    assert_uncrossing_edges_keep_the_cores(SmallCutsOracle(h), data.draw(edge_lists(h.n, max_edges=3)))


# ---------------------------------------------------------------------------
# serialization round trips


@given(st.fractions())
@settings(deadline=None)
def test_frac_json_round_trip(x):
    assert frac_from_json(frac_to_json(x), "x") == x


@given(families())
@settings(deadline=None)
def test_family_json_round_trip(f):
    assert family_spec_from_json(family_to_json(f)) == f


@given(families(), st.data())
@settings(deadline=None)
def test_instance_and_trace_json_round_trip(f, data):
    pairs = sorted(
        set(data.draw(edge_lists(f.n, max_edges=6), label="edges"))
        | {(0, 1)}  # keep at least one candidate edge
    )
    costs = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=9, max_denominator=3),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    g = CostedGraph.build(f.n, [(u, v, c) for (u, v), c in zip(pairs, costs)])
    inst = Instance(g, f)
    assert instance_from_json(instance_to_json(inst)) == inst

    if not check_family(f, "pliable").holds:
        return  # cores of non-pliable families may overlap; the solver is off-contract
    oracle = ExplicitFamilyOracle(f)
    try:
        trace = solve(g, oracle)
    except InfeasibleError:
        return  # infeasible draws are fine; round-tripping needs a trace
    assert trace_from_json(trace_to_json(g, trace), g) == trace
