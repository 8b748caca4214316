"""Tests for the shortcut tree: construction, chain shapes, weight bounds."""

import dataclasses
import sys
from fractions import Fraction

import pytest

import pliablecover.treeanal as treeanal
from pliablecover.errors import TreeInvariantError
from pliablecover.gens import (
    instance_rng,
    random_instance,
    random_instances,
    tight_beta,
    tight_seven,
    tight_six,
)
from pliablecover.setfam import ExplicitFamily, ExplicitFamilyOracle, NodeSet
from pliablecover.treeanal import (
    HEAVY_WEIGHT,
    ChainEdge,
    ShortcutTree,
    TreeNode,
    _lower_ancestors,
    analyze_trace,
    build_tree,
    classify_chain,
    emit_dot,
    reassign_weights,
    verify_bounds,
)
from pliablecover.wgmv import solve


def mk_tree(n, witness_sets, cover_pairs, cores):
    return build_tree(
        n,
        list(enumerate(cover_pairs)),
        [NodeSet.from_members(n, s) for s in witness_sets],
        [NodeSet.from_members(n, c) for c in cores],
    )


def bundle_tree(b):
    cover = [(i, b.graph.pair(i)) for i in range(len(b.graph.edges))]
    return build_tree(b.n, cover, list(b.witness), list(b.cores))


# A two-branch tree exercising contraction, a bad pair, and reassignment:
# a nested chain of witness sets on one side, a lone witness on the other,
# joined at a surviving white node below a black root.
CHAIN_WITNESS = [
    [0],
    [0, 1, 2],
    [0, 1, 2, 3],
    [8],
    [0, 1, 2, 3, 4, 8, 9],
    [0, 1, 2, 3, 4, 5, 8, 9],
]
CHAIN_COVER = [(0, 1), (2, 3), (3, 4), (8, 9), (4, 5), (5, 6)]
CHAIN_CORES = [[0], [8], [1, 3, 5, 7], [6]]


def chain_tree():
    return mk_tree(10, CHAIN_WITNESS, CHAIN_COVER, CHAIN_CORES)


# ---------------------------------------------------------------------------
# build_tree


def test_build_tree_structure_of_the_chain_fixture():
    t = chain_tree()
    assert t.root == 6
    by_set = {tuple(sorted(x.node_set.members())): x for x in t.nodes}

    assert by_set[(0,)].black and by_set[(0,)].owned_cores == (0,)
    assert by_set[(8,)].black and by_set[(8,)].owned_cores == (1,)
    root = t.nodes[t.root]
    assert root.black and root.owned_cores == (2, 3)

    # the three nested whites between {0} and {0,1,2,3,4,8,9} are contracted
    for s in ((0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 8, 9)):
        assert by_set[s].contracted and not by_set[s].black
    junction = by_set[(0, 1, 2, 3, 4, 8, 9)]
    assert not junction.black and not junction.contracted
    assert len(junction.children) == 2

    assert [(e.lower, e.upper, e.weight, e.ell) for e in t.edges] == [
        (0, 4, 4, 2),
        (4, 6, 3, 1),
        (5, 4, 1, 0),
    ]
    assert t.edges[0].cover_edges == (0, 1, 2)
    assert t.edges[0].labels == ((0, 1), (2, 3), (3, 4))
    assert t.edges[1].labels == ((4, 5), (5, 6))
    assert t.total_weight() == 8


def test_build_tree_weight_counts_core_crossings_of_the_bundle():
    t = chain_tree()
    # edge (5,6) crosses two cores, (0,1) crosses two, the rest one each
    assert sum(e.weight for e in t.edges) == 2 + 1 + 1 + 1 + 1 + 2


def test_build_tree_rejects_bad_input():
    w = [NodeSet.from_members(3, [0])]
    c = [NodeSet.from_members(3, [2])]
    with pytest.raises(TreeInvariantError, match="differ in length"):
        build_tree(3, [(0, (0, 1)), (1, (1, 2))], w, c)
    with pytest.raises(TreeInvariantError, match="not pairwise distinct"):
        mk_tree(4, [[0], [0]], [(0, 1), (0, 2)], [[0]])
    with pytest.raises(TreeInvariantError, match="not laminar"):
        mk_tree(4, [[0, 1], [1, 2]], [(0, 2), (1, 3)], [[1]])
    with pytest.raises(TreeInvariantError, match="proper nonempty"):
        mk_tree(3, [[0, 1, 2]], [(0, 1)], [[0]])
    with pytest.raises(TreeInvariantError, match="pairwise disjoint"):
        mk_tree(4, [[0]], [(0, 1)], [[0, 1], [1, 2]])
    with pytest.raises(TreeInvariantError, match="does not cross"):
        mk_tree(3, [[0, 1]], [(0, 1)], [[0]])
    # edge leaves {0} for vertex 1, which the next set {0,2} does not contain
    with pytest.raises(TreeInvariantError, match="escapes the next witness set"):
        mk_tree(4, [[0], [0, 2]], [(0, 1), (2, 3)], [[3]])


def test_build_tree_checks_every_core_before_any_overlap():
    # the empty core comes after the overlapping pair starts, yet it is the
    # one reported: every core is checked to be a nonempty subset before
    # any two are tested for disjointness
    with pytest.raises(TreeInvariantError, match="nonempty subsets of the universe"):
        mk_tree(4, [[0]], [(0, 1)], [[0, 1], [], [1, 2]])


def test_star_tree_black_leaves_under_white_root():
    t = mk_tree(4, [[0], [1], [2]], [(0, 3), (1, 3), (2, 3)], [[0], [1], [2]])
    assert [e.weight for e in t.edges] == [1, 1, 1]
    assert all(t.nodes[i].black for i in t.leaf_nodes())
    assert not t.nodes[t.root].black
    rep = verify_bounds(t, "gamma")
    assert rep.ok
    assert rep.num_black == 3 and rep.num_white_surviving == 1
    # a white root with several children still admits the rooted count bound
    rows = {r.name: (r.lhs, r.rhs) for r in rep.bounds}
    assert rows["rooted-white-vs-black"] == (1, 2)
    assert rows["leaves-vs-black"] == (3, 3)


# ---------------------------------------------------------------------------
# classify_chain


def test_classify_case_1():
    # ell=1 bundle with three of the four chain endpoints inside core members
    t = mk_tree(
        10, CHAIN_WITNESS, CHAIN_COVER, CHAIN_CORES
    )
    assert classify_chain(t, t.edges[1]) == "case-1"


def test_classify_case_2a():
    t = chain_tree()
    e = t.edges[0]
    assert e.ell == 2 and e.weight == 4
    assert classify_chain(t, e) == "case-2a"


def test_classify_case_2b():
    # intermediate vertex 1 lies outside every core; the chain enters and
    # leaves the core union without the single-core pattern of case 2a
    t = mk_tree(5, [[0], [0, 1], [0, 1, 2]], [(0, 1), (1, 2), (2, 3)], [[0], [2, 4]])
    (e,) = t.edges
    assert e.ell == 2 and e.weight == 3
    assert classify_chain(t, e) == "case-2b"


def test_classify_case_3():
    t = mk_tree(
        6,
        [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [[0], [2, 3, 5]],
    )
    (e,) = t.edges
    assert e.ell == 3 and e.weight == 3
    assert classify_chain(t, e) == "case-3"


def test_classify_non_heavy_and_finding():
    t = chain_tree()
    assert classify_chain(t, t.edges[2]) == "non-heavy"
    # heavy ell=2 chain whose intermediate vertex sits inside a core:
    # matches no structural case and must surface as a finding
    t = mk_tree(
        6, [[0], [0, 1], [0, 1, 2]], [(0, 1), (1, 2), (2, 3)], [[0], [1, 4], [2, 5]]
    )
    (e,) = t.edges
    assert e.weight == 5
    assert classify_chain(t, e) == "finding"
    rep = verify_bounds(t, "gamma")
    assert not rep.ok
    assert rep.violations == ("heavy edge (0, 1, 2) matches no structural case",)


# ---------------------------------------------------------------------------
# bad pairs and reassignment


def test_find_bad_pairs_on_the_chain_fixture():
    t = chain_tree()
    pairs = verify_bounds(t, "gamma").bad_pairs
    assert [(p.lower, p.upper) for p in pairs] == [(0, 1)]
    lo, hi = t.edges[0], t.edges[1]
    assert lo.weight + hi.weight == 7
    assert (hi.weight, hi.ell) == (3, 1)
    assert lo.weight <= 4
    # only the white junction separates the two heavy edges
    assert not t.nodes[lo.upper].black and lo.upper == hi.lower


def test_no_bad_pair_when_a_black_node_separates_the_heavies():
    # same shape, but the junction owns a core, so the stretch is not white
    cores = [[0], [8], [1, 3, 5, 7], [6], [4, 9]]
    t = mk_tree(10, CHAIN_WITNESS, CHAIN_COVER, cores)
    assert t.nodes[4].black
    assert verify_bounds(t, "gamma").bad_pairs == ()


def test_reassign_weights_moves_the_upper_excess_down():
    t = chain_tree()
    rep = verify_bounds(t, "gamma")
    r = reassign_weights(t, rep.bad_pairs)
    assert rep.reassignment == r
    assert r.chosen == ((1, 0),)
    assert r.weights_after == (5, 2, 1)
    assert (r.max_before, r.max_after) == (4, 5)
    assert sum(r.weights_after) == t.total_weight()


def test_reassignment_with_no_pairs_is_identity():
    t = mk_tree(4, [[0], [1], [2]], [(0, 3), (1, 3), (2, 3)], [[0], [1], [2]])
    r = reassign_weights(t, [])
    assert r.chosen == ()
    assert r.weights_after == tuple(e.weight for e in t.edges)


# ---------------------------------------------------------------------------
# verify_bounds


def test_verify_bounds_chain_fixture_gamma_and_sparse():
    t = chain_tree()
    rep = verify_bounds(t, "gamma")
    assert rep.ok and rep.violations == ()
    rows = {r.name: (r.lhs, r.rhs) for r in rep.bounds}
    assert rows == {
        "tree-edges-vs-black": (3, 5),
        "surviving-white-vs-leaves": (1, 2),
        "leaves-vs-black": (2, 3),
        "rooted-white-vs-black": (1, 2),
        "total-weight-gamma": (8, 19),
    }
    assert "maximum edge weight moved from 4 to 5 during reassignment" in rep.info

    rep = verify_bounds(t, "sparse")
    assert rep.ok
    rows = {r.name: (r.lhs, r.rhs) for r in rep.bounds}
    assert rows["total-weight-token"] == (8, 11)
    assert rows["total-weight-sparse"] == (8, 22)


def test_verify_bounds_flags_a_white_leaf():
    t = mk_tree(3, [[0]], [(0, 1)], [[2]])
    rep = verify_bounds(t, "gamma")
    assert rep.violations == ("white leaf node [0]",)


def test_verify_bounds_flags_tampered_trees():
    t = chain_tree()

    # resurrect a contracted white single-child node
    nodes = list(t.nodes)
    nodes[1] = dataclasses.replace(nodes[1], contracted=False)
    rep = verify_bounds(dataclasses.replace(t, nodes=tuple(nodes)), "gamma")
    assert any("survived contraction" in v for v in rep.violations)

    # paint an extra node black: more black nodes than cores is impossible
    nodes = list(t.nodes)
    for i, x in enumerate(nodes):
        if not x.black:
            nodes[i] = dataclasses.replace(x, black=True)
    rep = verify_bounds(dataclasses.replace(t, nodes=tuple(nodes)), "gamma")
    assert any("more black nodes" in v for v in rep.violations)

    # corrupt a bundle weight: the cover recount catches it
    edges = list(t.edges)
    edges[0] = dataclasses.replace(edges[0], weight=edges[0].weight + 1)
    rep = verify_bounds(dataclasses.replace(t, edges=tuple(edges)), "gamma")
    assert any("cover core-degree" in v for v in rep.violations)


def test_verify_bounds_flags_bad_pair_clause_failures():
    # replace the ell=1 link with an edge that crosses two cores: the pair
    # now sums to 8, its upper edge has weight 4 and starts inside the cores
    cover = [(0, 1), (2, 3), (3, 4), (8, 9), (0, 5), (5, 6)]
    t = mk_tree(10, CHAIN_WITNESS, cover, CHAIN_CORES)
    assert [e.weight for e in t.edges] == [4, 4, 1]
    rep = verify_bounds(t, "gamma")
    msgs = "\n".join(rep.violations)
    assert "weights sum to 8 > 7" in msgs
    assert "upper edge weight 4 != 3" in msgs
    assert "upper edge starts inside the core union" in msgs
    assert "weight 6 > 5 after reassignment" in msgs


# ---------------------------------------------------------------------------
# leaf-token edges on one root path


def parent_tree(parent, lowers):
    """A hand-built tree on nodes 0..len(parent) - 1 (parent[x] is None at
    the root) whose edge i runs from node lowers[i] to its parent."""
    children = [[] for _ in parent]
    for c, p in enumerate(parent):
        if p is not None:
            children[p].append(c)
    nodes = tuple(
        TreeNode(
            index=x,
            node_set=NodeSet(1, 1),
            parent=p,
            children=tuple(children[x]),
            black=False,
            owned_cores=(),
            edge_id=None,
            contracted=False,
        )
        for x, p in enumerate(parent)
    )
    edges = tuple(
        ChainEdge(lower=x, upper=parent[x], interior=(), cover_edges=(i,), labels=((0, 0),), weight=1)
        for i, x in enumerate(lowers)
    )
    return ShortcutTree(n=1, nodes=nodes, edges=edges, cores=(), root=parent.index(None), cover=())


def test_root_path_pairs_on_a_chain_deeper_than_the_recursion_limit():
    # Edge i runs from node i up to node i + 1; node 4999 is the root.
    depth = 5000
    assert depth > sys.getrecursionlimit()
    tree = parent_tree([x + 1 for x in range(depth - 1)] + [None], range(depth - 1))
    assert _lower_ancestors(tree, [4998, 0, 2500, 2501, 1000]) == [
        (0, 1000),
        (0, 2500),
        (0, 2501),
        (0, 4998),
        (1000, 2500),
        (1000, 2501),
        (1000, 4998),
        (2500, 2501),
        (2500, 4998),
        (2501, 4998),
    ]
    assert _lower_ancestors(tree, [2500]) == []


def test_root_path_pairs_skip_sibling_paths_and_follow_edge_indices():
    #        0
    #      /   \
    #     1     2
    #    / \    |
    #   3   4   5
    #   |   |
    #   6   7
    # Edges are listed out of node order: edge 0 is 6 -> 3, edge 1 is
    # 1 -> 0, edge 2 is 7 -> 4, edge 3 is 5 -> 2, edge 4 is 3 -> 1, edge 5
    # is 2 -> 0 and edge 6 is 4 -> 1.
    tree = parent_tree([None, 0, 0, 1, 1, 2, 3, 4], [6, 1, 7, 5, 3, 2, 4])
    # 6 -> 3 and 7 -> 4 hang off sibling paths, and 5 -> 2 off the other
    # branch of the root: only 1 -> 0 lies above the first two.
    assert _lower_ancestors(tree, [3, 2, 1, 0]) == [(0, 1), (2, 1)]
    assert _lower_ancestors(tree, [3, 1, 4, 2, 0]) == [(0, 1), (0, 4), (2, 1), (4, 1)]
    # 7 -> 4 sits right below 4 -> 1, and 5 -> 2 right below 2 -> 0
    assert _lower_ancestors(tree, [0, 2, 3, 5, 6]) == [(2, 6), (3, 5)]
    assert _lower_ancestors(tree, [0, 2]) == []


def test_verify_bounds_flags_bad_pairs_left_after_reassignment():
    # Three weight-3 edges up an all-white path 0 -> 1 -> 2 -> 3.  Every
    # pair is bad.  The middle edge has the least sort token, so it donates
    # first (to edge 0) and is then the chosen lower of the top edge, which
    # leaves weights (4, 3, 2) and the pair (0, 1) still bad.
    n = 4
    nodes = tuple(
        TreeNode(
            index=i,
            node_set=NodeSet(n, (1 << (i + 1)) - 1),
            parent=i + 1 if i < 3 else None,
            children=(i - 1,) if i else (),
            black=False,
            owned_cores=(),
            edge_id=i if i < 3 else None,
            contracted=False,
        )
        for i in range(4)
    )
    edges = tuple(
        ChainEdge(
            lower=i, upper=i + 1, interior=(), cover_edges=(token,), labels=((i, i + 1),), weight=3
        )
        for i, token in enumerate((2, 0, 1))
    )
    tree = ShortcutTree(n=n, nodes=nodes, edges=edges, cores=(), root=3, cover=())
    rep = verify_bounds(tree, "gamma")
    assert [(p.lower, p.upper) for p in rep.bad_pairs] == [(0, 1), (1, 2), (0, 2)]
    assert rep.reassignment.chosen == ((1, 0), (2, 1))
    assert rep.reassignment.weights_after == (4, 3, 2)
    assert "bad pairs remain after weight reassignment" in rep.violations


def test_verify_bounds_rejects_unknown_class_and_missing_beta():
    t = chain_tree()
    with pytest.raises(ValueError, match="unknown family class"):
        verify_bounds(t, "laminar")
    with pytest.raises(ValueError, match="crossing number"):
        verify_bounds(t, "beta")
    with pytest.raises(ValueError, match="takes no crossing number"):
        verify_bounds(t, "sparse", 2)


def test_analyze_trace_checks_the_class_before_the_first_iteration():
    g, f = random_instance("gamma", instance_rng(0, 1), 5)
    trace = solve(g, ExplicitFamilyOracle(f))
    with pytest.raises(ValueError, match="unknown family class 'magic'"):
        analyze_trace(g, f, trace, "magic")
    # a run without iterations refuses an unusable pair all the same
    empty = dataclasses.replace(trace, iterations=())
    with pytest.raises(ValueError, match="needs a crossing number"):
        analyze_trace(g, f, empty, "beta")
    with pytest.raises(ValueError, match="takes no crossing number"):
        analyze_trace(g, f, empty, "gamma", 3)


def test_analyze_trace_refuses_a_family_over_another_universe():
    g, f = random_instance("gamma", instance_rng(0, 1), 5)
    trace = solve(g, ExplicitFamilyOracle(f))
    wider = ExplicitFamily(g.n + 1, tuple(NodeSet(g.n + 1, s.mask) for s in f))
    narrower = ExplicitFamily.from_sets(g.n - 1, [[0], [1, 2]])
    for other in (wider, narrower):
        with pytest.raises(ValueError, match="^family universe does not match the graph$"):
            analyze_trace(g, other, trace, "gamma")


def test_build_tree_hands_its_core_incidence_to_the_tree(monkeypatch):
    calls = []
    incidence = treeanal.member_incidence
    monkeypatch.setattr(treeanal, "member_incidence", lambda n, sets: calls.append(n) or incidence(n, sets))
    t = bundle_tree(tight_six(4))
    assert verify_bounds(t, "sparse").ok
    assert len(calls) == 1
    assert t._core_incidence == incidence(t.n, t.cores)


# ---------------------------------------------------------------------------
# tight constructions round-trip through the verifier


@pytest.mark.parametrize(
    "bundle,cls,beta,expect",
    [
        (tight_seven(2), "gamma", None, {"weight": 12, "black": 3, "leaves": 2}),
        (tight_seven(4), "gamma", None, {"weight": 26, "black": 5, "leaves": 4}),
        (tight_six(2), "sparse", None, {"weight": 10, "black": 3, "leaves": 2}),
        (tight_six(4), "sparse", None, {"weight": 22, "black": 5, "leaves": 4}),
        (tight_beta(2, 1), "beta", 1, {"weight": 10, "black": 4, "leaves": 2}),
        (tight_beta(4, 2), "beta", 2, {"weight": 22, "black": 6, "leaves": 4}),
    ],
    ids=["t7-2", "t7-4", "t6-2", "t6-4", "tb-2-1", "tb-4-2"],
)
def test_tight_bundles_verify_clean(bundle, cls, beta, expect):
    t = bundle_tree(bundle)
    rep = verify_bounds(t, cls, beta)
    assert rep.ok, rep.violations
    assert rep.total_weight == expect["weight"]
    assert rep.num_black == expect["black"]
    assert rep.num_leaves == expect["leaves"]
    assert rep.bad_pairs == ()
    shapes = {s for _, s in rep.classifications}
    assert "finding" not in shapes


def test_tight_seven_chains_are_case_2a():
    t = bundle_tree(tight_seven(4))
    shapes = sorted(s for _, s in verify_bounds(t, "gamma").classifications)
    assert shapes.count("case-2a") == 4
    assert shapes.count("non-heavy") == 3


def test_tight_beta_one_has_a_case_1_chain():
    t = bundle_tree(tight_beta(2, 1))
    shapes = [s for _, s in verify_bounds(t, "beta", 1).classifications]
    assert shapes.count("case-1") == 1
    assert shapes.count("case-2a") == 1


# ---------------------------------------------------------------------------
# trace analysis and rendering


def test_analyze_trace_clean_on_generated_instances():
    for kind, cls, beta in (
        ("gamma", "gamma", None),
        ("sparse", "sparse", None),
        ("uncrossable", "uncrossable", None),
    ):
        for g, f in random_instances(kind, 10, seed=424):
            trace = solve(g, ExplicitFamilyOracle(f))
            rep = analyze_trace(g, f, trace, cls, beta)
            assert rep.ok, [it.violations for it in rep.iterations]
            assert len(rep.iterations) == len(trace.iterations)
            assert all(it.report is not None for it in rep.iterations)


@pytest.mark.parametrize("leaves", [8, 16])
def test_analyze_trace_clean_on_solved_tight_runs(leaves):
    # Their covers (38 and 78 edges) take one witness candidate per edge.
    b = tight_six(leaves)
    trace = solve(b.graph, ExplicitFamilyOracle(b.family))
    rep = analyze_trace(b.graph, b.family, trace, "sparse")
    assert rep.ok and len(rep.iterations) == len(trace.iterations)


def test_analyze_trace_reports_altered_cores_and_analyzes_the_rest():
    disagree = ("recomputed residual cores disagree with the recorded iteration",)
    g, f = random_instance("gamma", instance_rng(0, 1), 5)
    trace = solve(g, ExplicitFamilyOracle(f))
    first, *later = trace.iterations
    assert len(first.cores) == 3 and later
    for cores in (first.cores[1:], first.cores[:-1], first.cores + later[-1].cores):
        forged = dataclasses.replace(
            trace, iterations=(dataclasses.replace(first, cores=cores), *later)
        )
        rep = analyze_trace(g, f, forged, "gamma")
        assert not rep.ok
        assert rep.iterations[0].violations == disagree
        assert rep.iterations[0].report is None
        assert rep.iterations[0].cores == cores
        assert all(it.ok and it.report is not None for it in rep.iterations[1:])
        assert len(rep.iterations) == len(trace.iterations)
    # The recomputed cores are compared, never validated: residual cores
    # that overlap give the same finding, not an OracleInvariantError.
    overlapping = ExplicitFamily.from_sets(5, [[0, 1], [1, 2], [0, 1, 2]])
    rep = analyze_trace(g, overlapping, trace, "gamma")
    assert [it.violations for it in rep.iterations] == [disagree] * len(trace.iterations)


def test_heavy_weight_threshold():
    t = chain_tree()
    assert HEAVY_WEIGHT == 3
    assert [e.heavy for e in t.edges] == [True, True, False]


def test_emit_dot_is_deterministic_and_skips_contracted_nodes():
    t = chain_tree()
    dot = emit_dot(t)
    assert dot == emit_dot(t)
    assert dot == (
        "digraph shortcut_tree {\n"
        "  rankdir=BT;\n"
        "  node [style=filled];\n"
        '  n0 [label="{0} owns 0", fillcolor="gray25", fontcolor="white"];\n'
        '  n4 [label="{0,1,2,3,4,8,9}", fillcolor="white", fontcolor="black"];\n'
        '  n5 [label="{8} owns 1", fillcolor="gray25", fontcolor="white"];\n'
        '  n6 [label="{0,1,2,3,4,5,6,7,8,9} owns 2,3", fillcolor="gray25", fontcolor="white"];\n'
        '  n0 -> n4 [label="w=4 ell=2 edges=[0, 1, 2]"];\n'
        '  n4 -> n6 [label="w=3 ell=1 edges=[4, 5]"];\n'
        '  n5 -> n4 [label="w=1 ell=0 edges=[3]"];\n'
        "}\n"
    )
