"""Tests for the small-cuts family: cut values, core extraction, bounds.

The reference computations here enumerate subsets directly and recompute
each cut from the edge list, deliberately avoiding the incremental
enumeration used by the implementation.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pliablecover.gens as gens
import pliablecover.setfam as setfam
import pliablecover.smallcuts as smallcuts
from pliablecover.errors import GuardError, OracleInvariantError
from pliablecover.setfam import (
    ExplicitFamilyOracle,
    NodeSet,
    check_family,
    crossing_number,
)
from pliablecover.smallcuts import (
    CapGraph,
    SmallCutsOracle,
    beta_bound,
    cut_value,
    edge_connectivity,
    materialize_family,
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


def residual_cut_masks(h: CapGraph, j=()) -> list[int]:
    """Masks of the residual small-cuts family F^J, read off a coverage
    kernel's residual of J over the materialized family."""
    kernel = setfam._CoverageKernel(h.n, materialize_family(h).masks())
    alive = kernel.residual(j).alive
    return [m for i, m in enumerate(kernel.masks) if alive >> i & 1]


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
    for bad in (0.5, True):
        with pytest.raises(ValueError, match=r"edge \(.*\) has an endpoint that is not an int"):
            CapGraph.build(3, [(bad, 2, 1)], 2)


def test_capgraph_refuses_inexact_capacities_and_thresholds():
    # a float capacity crashed at the first query; build converts every
    # weight with Fraction(), so only the direct constructor can take one
    for bad in (0.5, True, 2.0, "1"):
        with pytest.raises(ValueError, match=r"capacity on edge \(0,1\)"):
            CapGraph(3, ((0, 1, bad),), Fraction(1))
        with pytest.raises(ValueError, match="threshold"):
            CapGraph(3, ((0, 1, Fraction(1)),), bad)
    h = CapGraph(3, ((0, 1, 2), (1, 2, Fraction(1, 2))), 1)
    assert SmallCutsOracle(h).cores([]) == [NodeSet.from_members(3, [0, 1]), NodeSet.from_members(3, [2])]


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
    oracle = SmallCutsOracle(h)
    assert [s.members() for s in oracle.cores([])] == [(0,), (1,), (2,)]
    # after picking (0,1): the members {0} and {1} are covered, leaving the
    # incomparable uncovered members {0,1} and {2} as the residual cores
    assert [s.members() for s in oracle.cores([(0, 1)])] == [(0, 1), (2,)]


def test_picked_edge_covers_its_cut_whatever_the_threshold():
    h = CapGraph.build(2, [(0, 1, 1)], 5)
    # covering semantics: the picked edge crosses both sides, nothing remains
    assert SmallCutsOracle(h).cores([(0, 1)]) == []


def test_small_cut_masks_match_reference():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(2, 6)
        h = random_graph(rng, n, rational=rng.random() < 0.4)
        j = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        assert sorted(residual_cut_masks(h, j)) == ref_small_cut_masks(h, j)


def test_adding_edges_never_grows_the_family():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(3, 6)
        h = random_graph(rng, n)
        j = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        extra = tuple(rng.sample(range(n), 2))
        assert set(residual_cut_masks(h, j + [extra])) <= set(residual_cut_masks(h, j))


def test_cut_enumeration_guard():
    h = CapGraph.build(23, [(0, 1, 1)], 1)
    with pytest.raises(GuardError):
        materialize_family(h)


def ref_cuts(h: CapGraph) -> list:
    """cut_H(S) of every mask, recomputed per subset from the edge list;
    integer capacities are summed as ints to keep n = 16 fast."""
    if any(cap.denominator != 1 for _, _, cap in h.edges):
        return [ref_cut(h, mask) for mask in range(1 << h.n)]
    edges = [(u, v, int(cap)) for u, v, cap in h.edges]
    return [sum([c for u, v, c in edges if (mask >> u ^ mask >> v) & 1]) for mask in range(1 << h.n)]


def differential_graph(rng, n, kind) -> CapGraph:
    if kind == "random":  # rational capacities up to n = 12
        return random_graph(rng, n, rational=n <= 12)
    if kind == "multi":  # parallel copies and zero-capacity edges
        edges = []
        for _ in range(2 * n):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(0, 4)))
        edges += edges[: n // 2] + [(u, v, 0) for u, v, _ in edges[-2:]]
        return CapGraph.build(n, edges, rng.randint(1, 12))
    # disconnected: no edge joins the two sides of a random split
    order = rng.sample(range(n), n)
    split = rng.randint(1, n - 1)
    edges = []
    for part in (order[:split], order[split:]):
        for _ in range(len(part) if len(part) > 1 else 0):
            u, v = rng.sample(part, 2)
            edges.append((u, v, Fraction(rng.randint(1, 8), rng.choice([1, 2]))))
    return CapGraph.build(n, edges, Fraction(rng.randint(1, 10), rng.choice([1, 3])))


@pytest.mark.parametrize("n", range(2, 17))
def test_enumerated_cuts_match_per_subset_recomputation(n):
    rng = random.Random(n)
    kinds = ("random", "multi", "disconnected")
    # every kind up to n = 12; past it one kind per n keeps the test fast
    for kind in kinds if n <= 12 else kinds[n % 3 : n % 3 + 1]:
        h = differential_graph(rng, n, kind)
        cuts = ref_cuts(h)
        proper = cuts[1:-1]
        masks, lam = smallcuts._enumerate_cut_masks(h)
        assert list(masks) == [m for m, cut in enumerate(cuts) if 0 < m < len(cuts) - 1 and cut < h.k], kind
        assert lam == min(proper) and type(lam) is Fraction, kind
        if kind == "disconnected":
            assert lam == 0


def ref_list_scan(h: CapGraph) -> tuple[tuple[int, ...], Fraction]:
    """The small-cut masks and the edge connectivity by the blocked table
    scan with one Python list per row: the same split into a low block
    L = {0..b-1} and a high block R, and the same reflected-binary walk over
    B ⊆ R, with the row c_B[A] = cut(A) - 2·w(A, B) held as a list and
    shifted by one list per step.  Cheap enough to check n = 17-20, where
    the per-subset `ref_cuts` is too slow."""

    def subset_sums(weights):
        table = [0]
        for weight in weights:
            table += [x + weight for x in table]
        return table

    def cut_table(nodes):
        table = [0]
        for i, u in enumerate(nodes):
            inner = subset_sums([2 * w[u][v] for v in nodes[:i]])
            table += [x + sum(w[u]) - y for x, y in zip(table, inner)]
        return table

    n = h.n
    (k, *caps), denom = setfam.over_common_denominator([h.k, *(c for _, _, c in h.edges)])
    w = [[0] * n for _ in range(n)]
    for (u, v, _), c in zip(h.edges, caps):
        w[u][v] += c
        w[v][u] += c
    b = (n + 1) // 2
    low, high = range(b), range(b, n)
    row, cut_high = cut_table(low), cut_table(high)
    pair_tables = [subset_sums([2 * w[r][a] for a in low]) for r in high]
    masks, least = [], None
    for step in range(1 << len(high)):
        bmask = step ^ (step >> 1)
        if step:
            bit = (step & -step).bit_length() - 1
            sign = -1 if bmask >> bit & 1 else 1
            row = [x + sign * y for x, y in zip(row, pair_tables[bit])]
        for a, x in enumerate(row):
            mask = a | bmask << b
            if 0 < mask < (1 << n) - 1:
                cut = x + cut_high[bmask]
                least = cut if least is None else min(least, cut)
                if cut < k:
                    masks.append(mask)
    return tuple(sorted(masks)), Fraction(least, denom)


@pytest.mark.parametrize("n", range(17, 21))
def test_enumerated_cuts_match_the_list_scan_past_sixteen_nodes(n):
    rng = random.Random(1700 + n)
    for _ in range(2):
        h = gens.random_cap_graph(rng, n)
        assert smallcuts._enumerate_cut_masks(h) == ref_list_scan(h)


def wide_capacities(rng, n) -> CapGraph:
    # 80-bit numerators and denominators: the scaled capacities, and so the
    # packed lanes, are far wider than 64 bits
    edges = [(*rng.sample(range(n), 2), Fraction(rng.getrandbits(80), rng.getrandbits(80) | 1)) for _ in range(2 * n)]
    return CapGraph.build(n, edges, Fraction(rng.getrandbits(80), rng.getrandbits(80) | 1))


def with_threshold(h: CapGraph, k) -> CapGraph:
    return CapGraph(h.n, h.edges, Fraction(k))


EDGE_CASES = {
    "80-bit capacities": wide_capacities,
    "80-bit capacities, k above every cut": lambda rng, n: with_threshold(
        wide_capacities(rng, n), rng.getrandbits(90) + 1
    ),
    "zero capacities": lambda rng, n: CapGraph.build(n, [(*rng.sample(range(n), 2), 0) for _ in range(n)], 1),
    "zero and positive capacities": lambda rng, n: CapGraph.build(
        n, [(*rng.sample(range(n), 2), rng.choice([0, 0, 3])) for _ in range(2 * n)], 4
    ),
    "k = 0": lambda rng, n: with_threshold(random_graph(rng, n), 0),
    "k < 0": lambda rng, n: with_threshold(random_graph(rng, n, rational=True), Fraction(-7, 2)),
    "k above every cut": lambda rng, n: with_threshold(random_graph(rng, n, rational=True), 100 * n),
    "no edges": lambda rng, n: CapGraph.build(n, [], Fraction(1, 3)),
    "no edges, k = 0": lambda rng, n: CapGraph.build(n, [], 0),
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_enumerated_cuts_match_per_subset_recomputation_on_edge_cases(case):
    rng = random.Random(case)
    for n in (2, 2, 3, 5, 8, 10):
        h = EDGE_CASES[case](rng, n)
        cuts = ref_cuts(h)
        masks, lam = smallcuts._enumerate_cut_masks(h)
        assert list(masks) == [m for m, cut in enumerate(cuts) if 0 < m < len(cuts) - 1 and cut < h.k], n
        assert lam == min(cuts[1:-1]) and type(lam) is Fraction, n


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


def test_beta_bound_is_exact_at_large_connectivity():
    # one edge of capacity lam gives connectivity lam; with k = lam + 1,
    # (k - 1) // ceil((lam + 1) / 2) is 1 for every lam >= 1
    for lam in (2**53, 10**20):
        assert beta_bound(CapGraph.build(2, [(0, 1, lam)], lam + 1)) == 1


def test_beta_bound_rejects_non_integer_inputs():
    with pytest.raises(ValueError):
        beta_bound(CapGraph.build(2, [(0, 1, 1)], Fraction(3, 2)))
    with pytest.raises(ValueError):
        beta_bound(CapGraph.build(2, [(0, 1, Fraction(1, 2))], 2))


# --- oracle equivalence and family structure -----------------------------------


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(1, (1 << 12) - 1), max_size=40), st.integers(0, 10))
def test_member_order_key_sorts_like_the_member_lists(masks, low):
    # prefix pairs such as {low} and {low, low + 2}, and {0} and {0, 2}
    masks += [1 << low, (1 << low) | (4 << low), 1, 5]
    assert sorted(masks, key=smallcuts._member_order) == sorted(masks, key=setfam.bits)


def test_kernel_members_are_in_canonical_order():
    # the scan yields masks in numeric order, where {1} comes before {0, 2}
    rng = random.Random(41)
    for n in range(2, 13):
        for _ in range(4):
            h = gens.random_cap_graph(rng, n)
            assert h._cuts[0].masks == materialize_family(h).masks()


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
        explicit = [s.members() for s in ExplicitFamilyOracle(fam).cores(j)]
        assert direct == explicit


def ref_residual_cores(masks: list[int], j) -> list[frozenset]:
    """Minimal members of `masks` that no edge of j crosses, as sorted sets."""
    alive = [
        frozenset(v for v in range(m.bit_length()) if m >> v & 1)
        for m in masks
        if all((m >> u & 1) == (m >> v & 1) for u, v in j)
    ]
    return sorted((s for s in alive if not any(t < s for t in alive)), key=sorted)


def test_oracle_reused_across_calls_matches_reference():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 7)
        h = random_graph(rng, n)
        masks = ref_small_cut_masks(h)
        oracle = SmallCutsOracle(h)
        queries = [[]]
        for _ in range(10):
            j = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
            j += rng.sample(j, rng.randint(0, len(j)))  # parallel copies
            queries += [j, [(v, u) for u, v in j]]
        rng.shuffle(queries)
        for j in queries:
            expected = ref_residual_cores(masks, j)
            if all(not a & b for a, b in itertools.combinations(expected, 2)):
                assert [frozenset(s.members()) for s in oracle.cores(j)] == expected
                assert oracle.is_covered(j) == (not expected)
            else:
                with pytest.raises(OracleInvariantError):
                    oracle.cores(j)


def test_oracle_scans_the_cuts_once(monkeypatch):
    scans = []
    enumerate_cut_masks = smallcuts._enumerate_cut_masks

    def counting(h):
        scans.append(h.n)
        return enumerate_cut_masks(h)

    monkeypatch.setattr(smallcuts, "_enumerate_cut_masks", counting)
    oracle = SmallCutsOracle(triangle(3))
    assert scans == []
    assert [s.members() for s in oracle.cores([])] == [(0,), (1,), (2,)]
    assert [s.members() for s in oracle.cores([(1, 0)])] == [(0, 1), (2,)]
    assert oracle.is_covered([(0, 1), (1, 2)])
    assert scans == [3]


def test_graph_scans_its_cuts_once(monkeypatch):
    scans = []
    enumerate_cut_masks = smallcuts._enumerate_cut_masks

    def counting(h):
        scans.append(h.n)
        return enumerate_cut_masks(h)

    monkeypatch.setattr(smallcuts, "_enumerate_cut_masks", counting)
    # a 4-cycle with capacities 2, 1, 2, 1: cuts {0,1} and {2,3} have value 2
    h = CapGraph.build(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)], 3)
    oracle = SmallCutsOracle(h)
    assert [s.members() for s in oracle.cores([])] == [(0, 1), (2, 3)]
    assert edge_connectivity(h) == 2
    assert beta_bound(h) == 1
    assert [s.members() for s in materialize_family(h)] == [(0, 1), (2, 3)]
    assert residual_cut_masks(h, [(1, 2)]) == []
    assert [s.members() for s in SmallCutsOracle(h).cores([(0, 1)])] == [(0, 1), (2, 3)]
    assert SmallCutsOracle(h).is_covered([(0, 3), (1, 2)])
    assert scans == [4]

    big = CapGraph.build(23, [(0, 1, 1)], 1)
    for _ in range(2):
        with pytest.raises(GuardError, match=r"cut enumeration: n = 23 > 22$"):
            edge_connectivity(big)
    assert scans == [4, 23, 23]


def test_oracle_guard_fires_at_the_first_call():
    oracle = SmallCutsOracle(CapGraph.build(23, [(0, 1, 1)], 1))
    assert oracle.universe_size() == 23
    with pytest.raises(GuardError, match=r"cut enumeration: n = 23 > 22$"):
        oracle.cores([])


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
        assert check_family(fam, "pliable").holds
        assert check_family(fam, "gamma").holds
        assert check_family(fam, "sparse").holds
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


@st.composite
def integer_cap_graphs(draw):
    """Graphs at n 3-10 with integer capacities 0-4 and integer k 1-8: a
    random tree (zero capacities disconnect it) plus up to n extra edges."""
    n = draw(st.integers(3, 10))
    tree = [(draw(st.integers(0, v - 1)), v, draw(st.integers(0, 4))) for v in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 4)).filter(
                lambda r: r[0] != r[1]
            ),
            max_size=n,
        )
    )
    rows = tree + [(min(u, v), max(u, v), c) for u, v, c in extra]
    return CapGraph.build(n, rows, draw(st.integers(1, 8)))


@settings(deadline=None, max_examples=150)
@given(integer_cap_graphs())
def test_small_cut_families_are_sparse_gamma_and_within_the_beta_bound(h):
    # The premise of the paper's lambda-refined bound: every small-cut
    # family is gamma-pliable and sparse, and its crossing number is at
    # most beta = floor((k - 1) / ceil((lambda + 1) / 2)).
    fam = materialize_family(h)
    if not fam.members:
        return
    assert check_family(fam, "sparse").holds
    assert check_family(fam, "gamma").holds
    assert crossing_number(fam) <= beta_bound(h)
