"""Tests for witness selection: per-edge candidates and laminar assignments."""

import gc
import random
import weakref

import pytest

import pliablecover.errors as errors
from pliablecover.errors import (
    CoverNotMinimalError,
    GuardError,
    NoLaminarWitnessError,
)
from pliablecover.setfam import ExplicitFamily, ExplicitFamilyOracle, NodeSet, edge_crosses_mask
from pliablecover.gens import random_instances, tight_six
from pliablecover.wgmv import solve
from pliablecover.witness import (
    laminar_tree,
    laminar_witness,
    witness_candidates,
)


def fam(n, *sets):
    return ExplicitFamily(n, tuple(NodeSet.from_members(n, s) for s in sets))


def ref_candidates(f, cover):
    """Independent recomputation straight from the definition: a member is a
    candidate of edge e when e is the only cover edge crossing it."""
    out = [[] for _ in cover]
    for s in f.members:
        hits = [i for i, (u, v) in enumerate(cover) if edge_crosses_mask(s.mask, u, v)]
        if len(hits) == 1:
            out[hits[0]].append(frozenset(s.members()))
    return [set(lst) for lst in out]


# ---------------------------------------------------------------------------
# laminarity (laminar_tree is None exactly when two sets cross)


def test_is_laminar_nested_and_disjoint():
    n = 6
    sets = [
        NodeSet.from_members(n, [0]),
        NodeSet.from_members(n, [0, 1]),
        NodeSet.from_members(n, [0, 1, 2]),
        NodeSet.from_members(n, [4, 5]),
    ]
    assert laminar_tree(sets) is not None
    assert laminar_tree([]) is not None
    assert laminar_tree(sets[:1]) is not None


def test_is_laminar_rejects_a_crossing_pair():
    n = 4
    a = NodeSet.from_members(n, [0, 1])
    b = NodeSet.from_members(n, [1, 2])
    assert laminar_tree([a, b]) is None
    # the crossing pair is detected regardless of position
    c = NodeSet.from_members(n, [3])
    assert laminar_tree([c, a, b]) is None


def test_laminar_closed_under_adding_the_full_set():
    # V is nested with everything, so appending it never breaks laminarity
    n = 5
    sets = [
        NodeSet.from_members(n, [0, 1]),
        NodeSet.from_members(n, [2]),
        NodeSet.from_members(n, [0, 1, 2]),
    ]
    v = NodeSet.from_members(n, range(n))
    assert laminar_tree(sets) is not None
    assert laminar_tree(list(sets) + [v]) is not None


# ---------------------------------------------------------------------------
# witness_candidates


def test_candidates_disjoint_singletons():
    f = fam(3, [0], [1])
    cands = witness_candidates(f, [(0, 2), (1, 2)])
    assert [set(map(lambda s: tuple(s.members()), c)) for c in cands] == [
        {(0,)},
        {(1,)},
    ]


def test_candidates_single_edge_collects_every_member():
    # one edge covering both members exactly once: both are its candidates,
    # listed in canonical order
    f = fam(3, [0], [0, 1])
    (cands,) = witness_candidates(f, [(0, 2)])
    assert [tuple(s.members()) for s in cands] == [(0,), (0, 1)]


def test_candidates_skip_multiply_covered_members():
    # {0,1} is crossed by both edges, so it is nobody's candidate
    f = fam(4, [0], [1], [0, 1])
    cands = witness_candidates(f, [(0, 3), (1, 3)])
    assert [[tuple(s.members()) for s in c] for c in cands] == [[(0,)], [(1,)]]


def test_candidates_uncovered_member_raises():
    f = fam(4, [0], [2])
    with pytest.raises(ValueError) as ei:
        witness_candidates(f, [(0, 1)])
    assert "do not cover" in str(ei.value)
    assert "[2]" in str(ei.value)


def test_candidates_redundant_edge_raises_with_its_id():
    # both edges cover the lone member, so neither covers it uniquely
    f = fam(3, [0])
    with pytest.raises(CoverNotMinimalError) as ei:
        witness_candidates(f, [(0, 1), (0, 2)])
    assert ei.value.edge_id == 0


def test_candidates_match_reference_on_random_inputs():
    rng = random.Random(4207)
    checked = 0
    for _ in range(400):
        n = rng.randint(3, 6)
        universe = list(range(n))
        members = set()
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(1, n - 1)
            members.add(frozenset(rng.sample(universe, k)))
        f = fam(n, *members)
        edges = []
        seen = set()
        for _ in range(rng.randint(1, 4)):
            u, v = rng.sample(universe, 2)
            if (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            edges.append((min(u, v), max(u, v)))
        try:
            got = witness_candidates(f, edges)
        except ValueError:
            # reference: some member crossed by no edge
            assert any(
                not any(edge_crosses_mask(s.mask, u, v) for u, v in edges)
                for s in f.members
            )
            continue
        except CoverNotMinimalError as e:
            assert not ref_candidates(f, edges)[e.edge_id]
            continue
        want = ref_candidates(f, edges)
        assert [set(frozenset(s.members()) for s in c) for c in got] == want
        checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# laminar_witness


def test_witness_star_family():
    f = fam(4, [0], [1], [2])
    w = laminar_witness(f, [(0, 3), (1, 3), (2, 3)])
    assert [tuple(s.members()) for s in w] == [(0,), (1,), (2,)]
    assert laminar_tree(w) is not None


def test_witness_prefers_canonically_least_candidate():
    # both members are candidates of the lone edge; the smaller set wins
    f = fam(3, [0], [0, 1])
    w = laminar_witness(f, [(0, 2)])
    assert [tuple(s.members()) for s in w] == [(0,)]


def test_witness_backtracks_past_a_crossing_first_choice():
    # edge 0's canonical first candidate {0,2} crosses edge 1's only
    # candidate {1,2}; the search must fall back to {0,3} for edge 0.
    f = fam(6, [0, 2], [0, 3], [1, 2])
    w = laminar_witness(f, [(0, 5), (1, 5)])
    picked = [tuple(s.members()) for s in w]
    assert picked == [(0, 3), (1, 2)]
    assert laminar_tree(w) is not None


def test_witness_no_laminar_assignment():
    # each edge has exactly one candidate and the two candidates cross
    f = fam(4, [0, 2], [1, 2])
    with pytest.raises(NoLaminarWitnessError):
        laminar_witness(f, [(0, 3), (1, 3)])


def test_witness_guard_on_many_edges(monkeypatch):
    # The search counts the candidates it tries, not the cover edges: on the
    # 38-edge cover of a solved tight_six(8) it tries one per edge.
    b = tight_six(8)
    cover = [b.graph.pair(e) for e in solve(b.graph, ExplicitFamilyOracle(b.family)).solution]
    assert len(cover) == 38
    monkeypatch.setitem(errors.BUDGETS, "witness", ("candidates tried", 38))
    assert len(laminar_witness(b.family, cover)) == 38
    monkeypatch.setitem(errors.BUDGETS, "witness", ("candidates tried", 37))
    with pytest.raises(GuardError) as ei:
        laminar_witness(b.family, cover)
    assert str(ei.value) == "instance too large for exhaustive witness search: candidates tried = 38 > 37"


@pytest.mark.parametrize("leaves", [8, 16, 256])
def test_witness_of_a_solved_tight_run_is_laminar(leaves):
    # At 256 leaves the cover has 1278 edges, past Python's recursion limit.
    b = tight_six(leaves)
    cover = [b.graph.pair(e) for e in solve(b.graph, ExplicitFamilyOracle(b.family)).solution]
    assert len(cover) == 5 * leaves - 2
    w = laminar_witness(b.family, cover)
    assert len(w) == len(cover) and laminar_tree(w) is not None


def test_witness_is_deterministic():
    f = fam(6, [0], [0, 1], [3], [3, 4], [2])
    cover = [(0, 5), (3, 5), (2, 5)]
    first = laminar_witness(f, cover)
    second = laminar_witness(f, cover)
    assert first == second


def test_witness_on_solver_output_is_laminar_and_unique_per_edge():
    solved = 0
    for kind, seed in (("gamma", 71), ("sparse", 72), ("uncrossable", 73)):
        for g, f in random_instances(kind, 20, seed):
            trace = solve(g, ExplicitFamilyOracle(f))
            cover = [g.pair(i) for i in trace.solution]
            if not cover:
                continue
            try:
                w = laminar_witness(f, cover)
            except NoLaminarWitnessError:
                continue
            assert len(w) == len(cover)
            assert laminar_tree(w) is not None
            # definitional check: witness i is covered by cover edge i alone
            for i, s in enumerate(w):
                hits = [
                    j
                    for j, (u, v) in enumerate(cover)
                    if edge_crosses_mask(s.mask, u, v)
                ]
                assert hits == [i]
            # and belongs to the family
            assert all(s in f.members for s in w)
            solved += 1
    assert solved >= 40


def test_witness_search_leaves_no_reference_cycle():
    # The candidate lists hold the family's members; no cycle may keep
    # them alive once the caller drops the family and the witness.
    f = fam(4, [0], [0, 1], [2])
    cover = [(0, 1), (1, 3), (2, 3)]
    refs = [weakref.ref(s) for s in f.members]
    gc.disable()
    try:
        wit = laminar_witness(f, cover)
        assert [s.members() for s in wit] == [(0,), (0, 1), (2,)]
        del f, wit
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
