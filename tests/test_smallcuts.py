"""Tests for the small-cuts family: cut values, core extraction, bounds.

The reference computations here enumerate subsets directly and recompute
each cut from the edge list, deliberately avoiding the incremental
enumeration used by the implementation.
"""

import random
from fractions import Fraction

import pytest

from pliablecover.errors import GuardError
from pliablecover.setfam import (
    NodeSet,
    crossing_number,
    is_gamma_pliable,
    is_pliable,
    is_sparse,
    residual_cores,
)
from pliablecover.smallcuts import (
    CapGraph,
    SmallCutsOracle,
    beta_bound,
    cut_value,
    edge_connectivity,
    materialize_family,
    small_cut_cores,
    small_cut_masks,
)


def ref_cut(h: CapGraph, mask: int) -> Fraction:
    total = Fraction(0)
    for u, v, cap in h.edges:
        if (mask >> u & 1) != (mask >> v & 1):
            total += cap
    return total


def ref_small_cut_masks(h: CapGraph, j=()) -> list[int]:
    out = []
    for mask in range(1, (1 << h.n) - 1):
        crossing_j = sum(1 for u, v in j if (mask >> u & 1) != (mask >> v & 1))
        if ref_cut(h, mask) < h.k and crossing_j == 0:
            out.append(mask)
    return out


def triangle(k) -> CapGraph:
    return CapGraph.build(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], k)


def random_graph(rng, n, max_cap=4, rational=False) -> CapGraph:
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        u, v = rng.sample(range(n), 2)
        cap = Fraction(rng.randint(0, max_cap))
        if rational:
            cap = Fraction(rng.randint(0, 4 * max_cap), rng.choice([1, 2, 3, 4]))
        edges.append((min(u, v), max(u, v), cap))
    k = Fraction(rng.randint(1, 3 * max_cap), 2 if rational and rng.random() < 0.5 else 1)
    return CapGraph.build(n, edges, k)


# --- construction and cut values -------------------------------------------


def test_capgraph_validation():
    with pytest.raises(ValueError):
        CapGraph.build(1, [], 1)
    with pytest.raises(ValueError):
        CapGraph.build(3, [(0, 0, 1)], 1)
    with pytest.raises(ValueError):
        CapGraph.build(3, [(0, 1, -1)], 1)


def test_cut_value_examples():
    h = triangle(3)
    assert cut_value(h, NodeSet.from_members(3, [0])) == 2
    assert cut_value(h, NodeSet.from_members(3, [0, 1])) == 2
    cycle = CapGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], 2)
    assert cut_value(cycle, NodeSet.from_members(4, [0, 2])) == 4
    with pytest.raises(ValueError):
        cut_value(h, NodeSet.from_members(4, [0]))


def test_cut_values_match_reference():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 7)
        h = random_graph(rng, n, rational=rng.random() < 0.5)
        for _ in range(8):
            mask = rng.randint(1, (1 << n) - 2)
            assert cut_value(h, NodeSet(n, mask)) == ref_cut(h, mask)


# --- small cut extraction ----------------------------------------------------


def test_small_cut_cores_triangle():
    h = triangle(3)
    assert [s.members() for s in small_cut_cores(h)] == [(0,), (1,), (2,)]
    # after picking (0,1): the members {0} and {1} are covered, leaving the
    # incomparable uncovered members {0,1} and {2} as the residual cores
    assert [s.members() for s in small_cut_cores(h, [(0, 1)])] == [(0, 1), (2,)]


def test_picked_edge_covers_its_cut_whatever_the_threshold():
    h = CapGraph.build(2, [(0, 1, 1)], 5)
    # covering semantics: the picked edge crosses both sides, nothing remains
    assert small_cut_cores(h, [(0, 1)]) == []


def test_small_cut_masks_match_reference():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(2, 6)
        h = random_graph(rng, n, rational=rng.random() < 0.4)
        j = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        assert sorted(small_cut_masks(h, j)) == ref_small_cut_masks(h, j)


def test_adding_edges_never_grows_the_family():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(3, 6)
        h = random_graph(rng, n)
        j = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        extra = tuple(rng.sample(range(n), 2))
        assert set(small_cut_masks(h, j + [extra])) <= set(small_cut_masks(h, j))


def test_cut_enumeration_guard():
    h = CapGraph.build(23, [(0, 1, 1)], 1)
    with pytest.raises(GuardError):
        small_cut_masks(h)


# --- connectivity and the beta bound ------------------------------------------


def test_edge_connectivity_examples():
    assert edge_connectivity(triangle(1)) == 2
    path = CapGraph.build(3, [(0, 1, 1), (1, 2, 1)], 1)
    assert edge_connectivity(path) == 1
    k4 = CapGraph.build(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)], 1)
    assert edge_connectivity(k4) == 3
    disconnected = CapGraph.build(4, [(0, 1, 1)], 1)
    assert edge_connectivity(disconnected) == 0
    halves = CapGraph.build(2, [(0, 1, Fraction(1, 2))], 1)
    assert edge_connectivity(halves) == Fraction(1, 2)


def test_beta_bound_examples():
    def graph_with(k, lam):
        # lam parallel unit edges between 0 and 1 force connectivity lam
        return CapGraph.build(2, [(0, 1, 1)] * lam, k)

    assert beta_bound(graph_with(5, 3)) == 2
    assert beta_bound(graph_with(2, 1)) == 1
    assert beta_bound(graph_with(9, 4)) == 2
    assert beta_bound(graph_with(2, 5)) == 1  # clamped to >= 1


def test_beta_bound_rejects_non_integer_inputs():
    with pytest.raises(ValueError):
        beta_bound(CapGraph.build(2, [(0, 1, 1)], Fraction(3, 2)))
    with pytest.raises(ValueError):
        beta_bound(CapGraph.build(2, [(0, 1, Fraction(1, 2))], 2))


# --- oracle equivalence and family structure -----------------------------------


def test_oracle_agrees_with_materialized_route():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(2, 6)
        h = random_graph(rng, n)
        fam = materialize_family(h)
        oracle = SmallCutsOracle(h)
        assert oracle.universe_size() == n
        j = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        direct = [s.members() for s in oracle.cores(j)]
        explicit = [s.members() for s in residual_cores(fam, j)]
        assert direct == explicit


def test_materialized_family_structure():
    # the small-cuts family is pliable, satisfies the residual-core
    # property, and is sparse; spot-check exhaustively at small n
    rng = random.Random(4)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        h = random_graph(rng, n)
        fam = materialize_family(h)
        if not fam.members:
            continue
        checked += 1
        assert is_pliable(fam)
        assert is_gamma_pliable(fam).holds
        assert is_sparse(fam).holds
        if checked >= 25:
            break
    assert checked >= 25


def test_crossing_number_respects_beta_bound():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        n = rng.randint(3, 6)
        h = random_graph(rng, n)
        if edge_connectivity(h) < 1 or h.k.denominator != 1:
            continue
        fam = materialize_family(h)
        if not fam.members:
            continue
        checked += 1
        assert crossing_number(fam) <= beta_bound(h)
        if checked >= 25:
            break
    assert checked >= 25
