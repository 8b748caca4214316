"""Tests for instance generators: tight constructions and random families."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pliablecover.gens as gens
from pliablecover.errors import GenerationError, GuardError
from pliablecover.gens import (
    instance_rng,
    random_cap_graph,
    random_instance,
    random_instances,
    tight_beta,
    tight_seven,
    tight_six,
)
from pliablecover.jsonio import bundle_to_json, dumps_canonical
from pliablecover.setfam import (
    check_family,
    crosses,
    crossing_number,
    edge_crosses_mask,
)
from pliablecover.treeanal import build_tree, verify_bounds
from pliablecover.wgmv import CostedGraph
from pliablecover.witness import is_laminar, laminar_witness

import random


def recount_cost(bundle):
    return sum((c for _, _, c in bundle.graph.edges), Fraction(0))


# ---------------------------------------------------------------------------
# tight construction arithmetic


@pytest.mark.parametrize(
    "leaves,cost,cores",
    [(2, 12, 4), (4, 26, 6), (8, 54, 10), (16, 110, 18)],
)
def test_tight_seven_totals(leaves, cost, cores):
    b = tight_seven(leaves)
    assert b.total_cost == cost == 7 * leaves - 2
    assert len(b.cores) == cores == leaves + 2
    assert b.dual_objective == cores
    assert b.ratio == Fraction(7 * leaves - 2, leaves + 2)


@pytest.mark.parametrize("leaves,cost,cores", [(2, 10, 3), (4, 22, 5), (8, 46, 9)])
def test_tight_six_totals(leaves, cost, cores):
    b = tight_six(leaves)
    assert b.total_cost == cost == 6 * leaves - 2
    assert len(b.cores) == cores == leaves + 1
    assert b.ratio == Fraction(6 * leaves - 2, leaves + 1)


@pytest.mark.parametrize(
    "leaves,beta,cost,cores",
    [(4, 2, 22, 6), (8, 2, 46, 12), (4, 1, 22, 8), (4, 4, 22, 5), (8, 4, 46, 10)],
)
def test_tight_beta_totals(leaves, beta, cost, cores):
    b = tight_beta(leaves, beta)
    assert b.total_cost == cost == 6 * leaves - 2
    assert len(b.cores) == cores == leaves + leaves // beta
    assert b.beta == beta


def test_ratios_approach_their_limits_at_64_leaves():
    assert tight_seven(64).ratio == Fraction(223, 33)
    assert tight_seven(64).ratio >= Fraction(13, 2)
    assert tight_six(64).ratio == Fraction(382, 65)
    assert tight_six(64).ratio >= Fraction(28, 5)
    assert tight_beta(64, 4).ratio == Fraction(382, 80)


@settings(deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=60), max_size=20))
def test_total_cost_equals_the_fraction_sum(costs):
    graph = CostedGraph(2, tuple((0, 1, c) for c in costs))
    bundle = dataclasses.replace(tight_six(2), graph=graph)
    assert bundle.total_cost == recount_cost(bundle) == sum(costs, Fraction(0))
    assert type(bundle.total_cost) is Fraction


def test_tight_constructions_reject_bad_sizes():
    leaves = "leaves must be a power of two and at least 2"
    for build, args in [(tight_seven, (3,)), (tight_seven, (1,)), (tight_six, (0,)), (tight_beta, (6, 2))]:
        with pytest.raises(ValueError, match=f"{leaves}, got {args[0]}"):
            build(*args)
    with pytest.raises(ValueError, match="beta must be a power of two and at most leaves = 4, got 3"):
        tight_beta(4, 3)
    with pytest.raises(ValueError, match="beta must be a power of two and at most leaves = 2, got 4"):
        tight_beta(2, 4)


# ---------------------------------------------------------------------------
# structural soundness of the bundles


@pytest.mark.parametrize(
    "bundle",
    [tight_seven(2), tight_seven(8), tight_six(8), tight_beta(4, 1), tight_beta(8, 4)],
    ids=["t7-2", "t7-8", "t6-8", "tb-4-1", "tb-8-4"],
)
def test_bundle_edges_are_tight_for_unit_core_duals(bundle):
    # cost of each edge equals the number of cores it crosses, so charging
    # one unit per core makes every edge exactly tight
    for u, v, cost in bundle.graph.edges:
        crossings = sum(1 for c in bundle.cores if edge_crosses_mask(c.mask, u, v))
        assert cost == crossings
    assert bundle.dual_objective == len(bundle.cores)


@pytest.mark.parametrize(
    "bundle,cls,beta",
    [
        (tight_seven(8), "gamma", None),
        (tight_six(8), "sparse", None),
        (tight_beta(8, 4), "beta", 4),
        (tight_beta(4, 1), "beta", 1),
    ],
    ids=["t7-8", "t6-8", "tb-8-4", "tb-4-1"],
)
def test_bundle_trees_pass_the_structural_verifier(bundle, cls, beta):
    cover = [(i, bundle.graph.pair(i)) for i in range(len(bundle.graph.edges))]
    tree = build_tree(bundle.n, cover, list(bundle.witness), list(bundle.cores))
    rep = verify_bounds(tree, cls, beta)
    assert rep.ok, rep.violations
    assert rep.total_weight == bundle.total_cost


def test_bundle_witness_is_laminar_and_recoverable():
    for b in (tight_seven(4), tight_six(4), tight_beta(4, 2)):
        assert is_laminar(list(b.witness))
        pairs = [b.graph.pair(i) for i in range(len(b.graph.edges))]
        assert laminar_witness(b.family, pairs) == tuple(b.witness)


def test_bundle_cores_are_disjoint_family_members():
    b = tight_seven(4)
    members = set(b.family.members)
    assert all(c in members for c in b.cores)
    assert all(w in members for w in b.witness)
    for i, a in enumerate(b.cores):
        for c in b.cores[i + 1 :]:
            assert not a.mask & c.mask


def test_bundle_sets_are_the_familys_own_member_objects():
    for b in (tight_seven(8), tight_six(8), tight_beta(8, 2)):
        own = {id(s) for s in b.family.members}
        assert len(own) == len(b.family)
        assert all(id(s) in own for s in (*b.witness, *b.cores))


def test_tight_six_members_cross_at_most_one_core():
    for leaves in (2, 4):
        b = tight_six(leaves)
        for s in b.family.members:
            assert sum(1 for c in b.cores if crosses(s, c)) <= 1


def test_tight_beta_crossing_number_matches_at_the_smallest_size():
    # From the smallest size up to 64 leaves; the slowest, tight_beta(64, 8),
    # takes about 0.5 s (2 vCPU, CPython 3.11).
    for leaves in (2, 4, 8, 16, 32, 64):
        for beta in (1, 2, 4, 8):
            if beta <= leaves:
                assert crossing_number(tight_beta(leaves, beta).family) == beta, (leaves, beta)


# ---------------------------------------------------------------------------
# determinism


def test_bundles_are_reproducible_value_for_value():
    a, b = tight_seven(8), tight_seven(8)
    assert a == b
    assert dumps_canonical(bundle_to_json(a)) == dumps_canonical(bundle_to_json(b))


def test_random_instances_are_reproducible_and_index_stable():
    first = list(random_instances("gamma", 6, seed=2024))
    second = list(random_instances("gamma", 6, seed=2024))
    assert first == second
    g3, f3 = random_instance("gamma", instance_rng(2024, 3))
    assert (g3, f3) == first[3]


# ---------------------------------------------------------------------------
# random instance classes


def test_random_instances_satisfy_their_class_checkers():
    for g, f in random_instances("gamma", 8, seed=11):
        assert check_family(f, "pliable").holds and check_family(f, "gamma").holds
        assert g.n == f.n
    for g, f in random_instances("sparse", 8, seed=12):
        assert check_family(f, "pliable").holds and check_family(f, "sparse").holds
    for g, f in random_instances("uncrossable", 8, seed=13):
        assert check_family(f, "proper").holds and check_family(f, "pliable").holds


def test_random_instance_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown instance kind"):
        random_instance("laminar", random.Random(0))


def test_random_instance_refuses_universes_below_two_before_drawing():
    for kind in ("gamma", "sparse", "uncrossable"):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="universe size n = 1 is below 2"):
            random_instance(kind, rng, n=1)
        assert rng.getstate() == state
        # This stream reaches the repaired-family proposal, which at n = 2
        # has only two seed sets to draw three from.
        g, f = random_instance(kind, rng, n=2)
        assert g.n == f.n == 2


def test_random_instance_refuses_sizes_no_proposal_can_pass_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(GuardError, match=r"verified uncrossable generation: n = 11 > 10$"):
        random_instance("uncrossable", rng, n=11)
    assert rng.getstate() == state
    g, f = random_instance("uncrossable", random.Random(0), n=10)
    assert f.n == 10 and check_family(f, "proper").holds and check_family(f, "pliable").holds


def test_random_instance_gives_up_after_the_proposal_budget(monkeypatch):
    monkeypatch.setattr(gens, "GENERATION_BUDGET", 0)
    with pytest.raises(GenerationError, match="no gamma instance accepted"):
        random_instance("gamma", random.Random(0))


def test_repair_gives_up_past_the_gamma_member_guard(monkeypatch):
    # A repair that ends above limit + 2 members had a bad pair above the
    # limit one round earlier, since a round adds at most two members.
    limit, n = 8, 6
    grown = [i for i in range(40) if len(gens._random_repaired_masks(random.Random(i), n) or ()) > limit + 2]
    assert grown
    monkeypatch.setattr(gens, "MAX_REPAIRED_MEMBERS", limit)
    for i in grown:
        assert gens._random_repaired_masks(random.Random(i), n) is None


def test_random_cap_graph_shape():
    rng = random.Random(77)
    for _ in range(30):
        h = random_cap_graph(rng, 6)
        assert h.n == 6
        assert h.k == int(h.k) and 1 <= h.k <= 8
        for u, v, cap in h.edges:
            assert u < v
            assert cap == int(cap) and 1 <= cap <= 4
        assert list(h.edges) == sorted(h.edges, key=lambda e: (e[0], e[1], e[2]))
