"""Unit tests for set-family primitives and the structural checkers.

Expected values for the randomized cross-checks come from the reference
implementations at the top of this file, which use plain Python sets and a
filter-then-minimize shape on purpose (different code path than the package).
"""

import gc
import itertools
import json
import random
from functools import partial

import pytest

import pliablecover.errors as errors
import pliablecover.gens as gens
import pliablecover.setfam as setfam
from pliablecover.cli import main as cli_main
from pliablecover.errors import GuardError, OracleInvariantError, UniverseMismatchError
from pliablecover.gens import random_cap_graph, tight_beta, tight_seven, tight_six
from pliablecover.jsonio import check_result_to_json
from pliablecover.setfam import (
    CheckResult,
    ExplicitFamily,
    ExplicitFamilyOracle,
    NodeSet,
    all_pairs,
    bits,
    check_family,
    coverage,
    crosses,
    crossing_number,
    degree_sum,
    edge_crosses_mask,
    member_incidence,
    validate_edges,
)
from pliablecover.smallcuts import CapGraph, SmallCutsOracle, cut_value, materialize_family
from pliablecover.treeanal import analyze_trace
from pliablecover.wgmv import solve
from pliablecover.witness import laminar_witness

from oracles import path_contains


# --- reference implementations (independent oracles) -----------------------


def ref_crosses(a: set, b: set, n: int) -> bool:
    universe = set(range(n))
    return bool(a & b) and bool(a - b) and bool(b - a) and bool(universe - (a | b))


def ref_residual_members(members: list[frozenset], edges) -> list[frozenset]:
    kept = []
    for s in members:
        if all((u in s) == (v in s) for u, v in edges):
            kept.append(s)
    return kept


def ref_minimal(sets: list[frozenset]) -> list[frozenset]:
    out = []
    for s in sets:
        if not any(t < s for t in sets):
            out.append(s)
    return out


def ref_cores(members, edges):
    return sorted(ref_minimal(ref_residual_members(members, edges)), key=sorted)


def ref_pliable(members: list[frozenset], n: int) -> bool:
    fam = set(members)
    for a in members:
        for b in members:
            if a == b:
                continue
            derived = [a & b, a | b, a - b, b - a]
            if sum(1 for d in derived if d in fam) < 2:
                return False
    return True


def fam(n, *sets) -> ExplicitFamily:
    return ExplicitFamily.from_sets(n, sets)


def random_family(rng, n, k) -> ExplicitFamily:
    masks = set()
    while len(masks) < min(k, (1 << n) - 2):
        masks.add(rng.randint(1, (1 << n) - 2))
    return ExplicitFamily(n, tuple(NodeSet(n, m) for m in masks))


def kernel_cores(f: ExplicitFamily, edges) -> list[NodeSet]:
    """Cores of F^J from the coverage kernel's residual, whose unvalidated
    listing, unlike the oracle, returns overlapping cores instead of
    refusing them."""
    return f.kernel.residual(edges).core_sets()


def kernel_residual(f: ExplicitFamily, edges) -> ExplicitFamily:
    """F^J: the members the kernel's residual of J leaves alive."""
    alive = f.kernel.residual(edges).alive
    return ExplicitFamily(f.n, tuple(s for i, s in enumerate(f) if alive >> i & 1))


# --- NodeSet ----------------------------------------------------------------


def test_nodeset_members_roundtrip():
    s = NodeSet.from_members(6, [4, 1, 2])
    assert s.members() == (1, 2, 4)
    assert s.mask == 0b10110
    assert len(s) == 3
    assert 2 in s and 0 not in s and 6 not in s
    # a universe above 10 000 nodes: len counts the bits of the mask
    members = list(range(0, 12_000, 7)) + [12_287]
    big = NodeSet.from_members(12_288, members)
    assert len(big) == len(NodeSet(12_288, big.mask)) == len(members) == 1716
    assert len(NodeSet(12_288, (1 << 12_288) - 1)) == 12_288


def test_from_members_keeps_the_tuple_a_bit_walk_gives():
    """`from_members` keeps its sorted tuple, so `members()` never walks the
    mask; the tuple is exactly the walk's, plain ints, whatever the input."""
    for n, given in ((6, [4, 1, 4, 2, 1]), (5, [3, True, 0, 1, True]), (3, iter([2, 2, 0])), (4, []), (70, [69, 0, 64])):
        s = NodeSet.from_members(n, given)
        assert "_members" in vars(s)  # kept, not computed on the first call
        assert s.members() == tuple(bits(s.mask))
        assert all(type(v) is int for v in s.members())
        assert json.dumps(list(s.members())) == json.dumps(bits(s.mask))  # never `true`
    # the error names the first bad node in input order
    with pytest.raises(ValueError, match="node 7 outside universe of size 4"):
        NodeSet.from_members(4, [1, 7, -1])
    with pytest.raises(ValueError, match="node -1 outside universe of size 4"):
        NodeSet.from_members(4, [-1, 1, 7])
    with pytest.raises(TypeError):
        NodeSet.from_members(4, [1.0])


def test_nodeset_rejects_out_of_universe():
    with pytest.raises(ValueError):
        NodeSet.from_members(3, [3])
    with pytest.raises(ValueError):
        NodeSet(3, 1 << 3)
    with pytest.raises(ValueError):
        NodeSet(-1, 0)


def test_nodeset_empty_and_full():
    assert NodeSet(5, 0).is_empty()
    assert NodeSet.from_members(5, range(5)).is_full()


def test_sort_key_is_lex_on_sorted_members():
    xs = [
        NodeSet.from_members(4, m)
        for m in ([2], [0, 1], [0], [1, 2], [0, 1, 2], [1])
    ]
    got = [s.members() for s in sorted(xs, key=NodeSet.sort_key)]
    assert got == [(0,), (0, 1), (0, 1, 2), (1,), (1, 2), (2,)]


def test_crosses_examples():
    assert crosses(NodeSet.from_members(4, [0, 1]), NodeSet.from_members(4, [1, 2]))
    assert not crosses(NodeSet.from_members(3, [0]), NodeSet.from_members(3, [0, 1]))
    assert not crosses(NodeSet.from_members(3, [0, 1]), NodeSet.from_members(3, [2]))


def test_crosses_matches_reference():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(2, 7)
        a = rng.randint(0, (1 << n) - 1)
        b = rng.randint(0, (1 << n) - 1)
        sa = {v for v in range(n) if a >> v & 1}
        sb = {v for v in range(n) if b >> v & 1}
        assert crosses(NodeSet(n, a), NodeSet(n, b)) == ref_crosses(sa, sb, n)


# --- edges and coverage -------------------------------------------------------


def test_validate_edges():
    validate_edges(4, [(0, 1), (1, 0), (2, 3)])  # parallel/reversed fine
    with pytest.raises(ValueError):
        validate_edges(4, [(0, 4)])
    with pytest.raises(ValueError):
        validate_edges(4, [(2, 2)])
    for bad in ((0.5, 2), (1, 2.0), (True, 2), (0, False), ("1", 2)):
        with pytest.raises(ValueError, match=r"has an endpoint that is not an int"):
            validate_edges(4, [(0, 1), bad])


def test_coverage_counts_multiplicity():
    s = NodeSet.from_members(4, [0, 1])
    assert coverage(s, [(0, 2), (0, 2), (0, 1), (2, 3)]) == 2


# --- ExplicitFamily -----------------------------------------------------------


def test_family_canonical_order_is_input_independent():
    sets = [[2], [0, 1], [0], [1, 2]]
    a = fam(4, *sets)
    b = fam(4, *reversed(sets))
    assert a.members == b.members
    assert [s.members() for s in a] == [(0,), (0, 1), (1, 2), (2,)]


def test_family_rejects_bad_members():
    with pytest.raises(ValueError):
        fam(3, [0], [0])
    with pytest.raises(ValueError):
        fam(3, [])
    with pytest.raises(ValueError):
        fam(3, [0, 1, 2])
    with pytest.raises(UniverseMismatchError):
        ExplicitFamily(3, (NodeSet.from_members(4, [0]),))


def test_family_contains_and_masks():
    f = fam(4, [0], [1, 2])
    assert NodeSet.from_members(4, [1, 2]) in f
    assert NodeSet.from_members(4, [1]) not in f
    assert f.masks() == (0b0001, 0b0110)
    assert len(f) == 2
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(2, 7)
        f = random_family(rng, n, rng.randint(0, 12))
        for mask in range(1 << n):
            assert (NodeSet(n, mask) in f) == any(m.mask == mask for m in f.members)
            assert NodeSet(n + 1, mask) not in f  # another universe: never a member


# --- residual families and cores ---------------------------------------------


def test_residual_cores_examples():
    f = fam(3, [0], [1], [0, 1])
    oracle = ExplicitFamilyOracle(f)
    assert [s.members() for s in oracle.cores(())] == [(0,), (1,)]
    assert [s.members() for s in oracle.cores([(0, 2)])] == [(1,)]
    assert [s.members() for s in oracle.cores([])] == [(0,), (1,)]


def test_residual_keeps_only_uncovered_members():
    f = fam(3, [0], [1], [0, 1])
    r = kernel_residual(f, [(0, 2)])
    assert [s.members() for s in r] == [(1,)]
    assert len(kernel_residual(f, [(0, 1), (0, 2), (1, 2)])) == 0


def test_residual_cores_match_reference():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 6)
        f = random_family(rng, n, rng.randint(1, 10))
        edges = [
            tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 6))
        ]
        expected = ref_cores(
            [frozenset(s.members()) for s in f], edges
        )
        got = [frozenset(s.members()) for s in kernel_cores(f, edges)]
        assert got == expected


def test_residual_composition():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(3, 6)
        f = random_family(rng, n, rng.randint(2, 8))
        j = [tuple(rng.sample(range(n), 2)) for _ in range(4)]
        split = rng.randint(0, 4)
        lhs = kernel_cores(f, j)
        rhs = kernel_cores(kernel_residual(f, j[:split]), j[split:])
        assert [s.members() for s in lhs] == [s.members() for s in rhs]


# --- pliability ----------------------------------------------------------------


def test_pliable_examples():
    full = fam(3, [0], [1], [2], [0, 1], [0, 2], [1, 2])
    assert check_family(full, "pliable").holds
    bad = fam(4, [0, 1], [1, 2])
    assert not check_family(bad, "pliable").holds
    assert check_family(bad, "pliable").counterexample == {"a": [0, 1], "b": [1, 2]}


def test_laminar_family_is_pliable_and_uncrossable():
    f = fam(6, [0], [0, 1], [0, 1, 2], [3], [3, 4])
    assert check_family(f, "pliable").holds
    assert check_family(f, "uncrossable").holds
    assert check_family(f, "gamma").holds
    assert check_family(f, "sparse").holds
    assert crossing_number(f) == 1


def test_pliable_matches_reference():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(2, 6)
        f = random_family(rng, n, rng.randint(1, 8))
        members = [frozenset(s.members()) for s in f]
        assert check_family(f, "pliable").holds == ref_pliable(members, n)


def test_uncrossable_implies_pliable():
    rng = random.Random(4)
    seen = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        f = random_family(rng, n, rng.randint(1, 6))
        if check_family(f, "uncrossable").holds:
            seen += 1
            assert check_family(f, "pliable").holds
    assert seen > 10


# Frozen regression fixture: pliable family that fails the residual-core
# property, found by seeded random search.  The counterexample is at the
# empty edge set: S1={3,4} < S2={0,3,4}, core {2,3} crosses both, and the
# leftover {0} is not a member.
PLIABLE_NOT_GAMMA = ((4,), (2, 3), (3, 4), (0, 4), (0, 3, 4), (2, 3, 4), (0, 2, 3, 4))


def test_pliable_but_not_gamma_fixture():
    f = fam(5, *PLIABLE_NOT_GAMMA)
    assert check_family(f, "pliable").holds
    res = check_family(f, "gamma")
    assert not res.holds
    # The named sets cut V into singletons, so the path through each atom
    # has no edge.
    assert res.counterexample == {
        "edges": [],
        "s1": [3, 4],
        "s2": [0, 3, 4],
        "core": [2, 3],
        "d": [0],
    }
    # verify the witness by definition, without the checker
    s1, s2, core = {3, 4}, {0, 3, 4}, {2, 3}
    members = [set(s.members()) for s in f]
    assert s1 < s2 and s1 in members and s2 in members
    assert ref_crosses(core, s1, 5) and ref_crosses(core, s2, 5)
    assert core in [set(c) for c in ref_cores([frozenset(m) for m in members], [])]
    assert s2 - (s1 | core) == {0}
    assert {0} not in members


def test_checkresult_json_shape():
    res = CheckResult("gamma-pliable", True, None)
    assert check_result_to_json(res) == {
        "property": "gamma-pliable",
        "holds": True,
        "counterexample": None,
        "mode": "exhaustive",
        "version": "1",
    }


# --- sparseness and crossing number --------------------------------------------


# {0,1,4} crosses the two disjoint cores {0,2} and {1,3}
SPARSE_VIOLATION = ((0, 2), (1, 3), (0, 1, 4))


def test_sparse_violation_fixture():
    f = fam(5, *SPARSE_VIOLATION)
    res = check_family(f, "sparse")
    assert not res.holds
    cx = res.counterexample
    assert cx["s"] == [0, 1, 4]
    assert {tuple(cx["core1"]), tuple(cx["core2"])} == {(0, 2), (1, 3)}


def test_sparse_empty_family_is_vacuous():
    assert check_family(ExplicitFamily(4, ()), "sparse").holds
    assert crossing_number(ExplicitFamily(4, ())) == 1


# Frozen fixture from seeded search: sparse family whose core {0,1,2} is
# crossed by the two disjoint members {0,2,3} and {1,4}.
BETA_TWO = ((0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4), (0, 2, 3), (1, 4), (3,), (4,))


def test_crossing_number_fixture():
    f = fam(5, *BETA_TWO)
    assert check_family(f, "sparse").holds
    assert crossing_number(f) == 2
    # lower bound witnessed at the empty edge set
    members = [frozenset(s.members()) for s in f]
    cores = ref_cores(members, [])
    core = frozenset([0, 1, 2])
    assert core in cores
    a, b = frozenset([0, 2, 3]), frozenset([1, 4])
    assert a in members and b in members and not (a & b)
    assert ref_crosses(set(a), set(core), 5) and ref_crosses(set(b), set(core), 5)


# --- guards ---------------------------------------------------------------------


def test_exhaustive_guards():
    # The class checks have no universe or member-count guard: past the
    # sizes the residual walk refused, they still decide.
    big = fam(18, [0], [1])
    assert check_family(big, "gamma").holds and check_family(big, "sparse").holds
    assert crossing_number(big) == 1
    # Every nonempty part of a member with two or more nodes is a member, so
    # once a set crosses it, it is no core; and no set crosses a singleton.
    crowded = ExplicitFamily(9, tuple(NodeSet(9, m) for m in range(1, 258)))
    assert check_family(crowded, "sparse").holds


def test_step_guard_names_the_measured_value(monkeypatch):
    # Three singletons: a scan of 3 x 3 member pairs and nothing more.
    monkeypatch.setitem(errors.BUDGETS, "class check", ("candidate tuples examined", 9))
    singles = fam(4, [0], [1], [2])
    assert check_family(singles, "gamma").holds and check_family(singles, "sparse").holds
    assert crossing_number(singles) == 1
    monkeypatch.setitem(errors.BUDGETS, "class check", ("candidate tuples examined", 8))
    for what, check in (
        ("gamma-pliability", lambda f: check_family(f, "gamma")),
        ("sparseness", lambda f: check_family(f, "sparse")),
        ("crossing-number", crossing_number),
    ):
        with pytest.raises(
            GuardError, match=rf"too large for exhaustive {what} check: candidate tuples examined = 9 > 8$"
        ):
            check(singles)
    # The packing search for tight_six(16) runs past any desk-scale limit
    # (at the default class-check limit it stops after about 10 s); after
    # the member-pair scan, every branch counts one step.
    f = tight_six(16).family
    assert len(f) ** 2 < 20_000
    monkeypatch.setitem(errors.BUDGETS, "class check", ("candidate tuples examined", 20_000))
    with pytest.raises(
        GuardError,
        match=r"too large for exhaustive crossing-number check: candidate tuples examined = 20001 > 20000$",
    ):
        crossing_number(f)


def test_pair_scan_guard_names_the_measured_value(monkeypatch):
    # The pair scans charge each row of pairs before scanning it: three
    # members make rows of 2, 1 and 0 pairs.
    monkeypatch.setitem(errors.BUDGETS, "class check", ("candidate tuples examined", 3))
    for prop, what in (("pliable", "pliability"), ("uncrossable", "uncrossability")):
        assert check_family(fam(4, [0], [1], [2]), prop).holds  # at the limit
        with pytest.raises(GuardError, match=rf"{what} check: candidate tuples examined = 5 > 3$"):
            check_family(fam(4, [0], [1], [2], [3]), prop)


# Frozen fixture from seeded search: its sparseness counterexamples lie at
# non-empty edge sets, so they pin the order of the pair scan and the edges
# a counterexample reports.
RESIDUAL_ORDER = (
    (0, 1, 2), (0, 1, 2, 3), (0, 1, 5), (0, 2, 3, 4, 5), (0, 2, 4), (1,), (1, 2, 5), (1, 3, 4, 5), (1, 3, 5)
)

# One failing fixture per member-only property, all over n = 4.  For {0,1}
# and {1,2}, none of A&B, A|B, A-B, B-A is a member: not pliable.  Adding
# {0} and {1} makes that pair pliable (A&B and A-B) but not uncrossable.
# {0,1} and {2,3} are each other's complement, but {0,1} splits into {0}
# and {1}, neither a member: not proper.
NOT_PLIABLE = ((0, 1), (1, 2))
NOT_UNCROSSABLE = ((0,), (1,), (0, 1), (1, 2))
NOT_PROPER = ((0, 1), (2, 3))

# Canonical `check-family` output for the fixtures above.  The bytes are
# pinned: any difference is a behaviour change of the checkers or the CLI.
CHECK_FAMILY_GOLDEN = {
    ("PLIABLE_NOT_GAMMA", "gamma"): '{"counterexample":{"core":[2,3],"d":[0],"edges":[],"s1":[3,4],"s2":[0,3,4]},"holds":false,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "sparse"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "crossing-number"): '{"crossing_number":1,"mode":"exhaustive","version":"1"}',
    ("BETA_TWO", "gamma"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("BETA_TWO", "sparse"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("BETA_TWO", "crossing-number"): '{"crossing_number":2,"mode":"exhaustive","version":"1"}',
    ("SPARSE_VIOLATION", "gamma"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("SPARSE_VIOLATION", "sparse"): '{"counterexample":{"core1":[0,2],"core2":[1,3],"edges":[],"s":[0,1,4]},"holds":false,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("SPARSE_VIOLATION", "crossing-number"): '{"crossing_number":2,"mode":"exhaustive","version":"1"}',
    ("RESIDUAL_ORDER", "gamma"): '{"counterexample":{"core":[0,1,5],"d":[3],"edges":[[0,1]],"s1":[0,1,2],"s2":[0,1,2,3]},"holds":false,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("RESIDUAL_ORDER", "sparse"): '{"counterexample":{"core1":[0,1,5],"core2":[0,2,4],"edges":[[1,5]],"s":[1,2,5]},"holds":false,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("RESIDUAL_ORDER", "crossing-number"): '{"crossing_number":2,"mode":"exhaustive","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "pliable"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "uncrossable"): '{"counterexample":{"a":[0,3,4],"b":[2,3]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "proper"): '{"counterexample":{"complement":[1],"s":[0,2,3,4]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("BETA_TWO", "pliable"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("BETA_TWO", "uncrossable"): '{"counterexample":{"a":[0,1,2],"b":[0,2,3]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("BETA_TWO", "proper"): '{"counterexample":{"complement":[3,4],"s":[0,1,2]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("SPARSE_VIOLATION", "pliable"): '{"counterexample":{"a":[0,1,4],"b":[0,2]},"holds":false,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("SPARSE_VIOLATION", "uncrossable"): '{"counterexample":{"a":[0,1,4],"b":[0,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("SPARSE_VIOLATION", "proper"): '{"counterexample":{"complement":[2,3],"s":[0,1,4]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("RESIDUAL_ORDER", "pliable"): '{"counterexample":{"a":[0,1,2],"b":[0,1,5]},"holds":false,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("RESIDUAL_ORDER", "uncrossable"): '{"counterexample":{"a":[0,1,2],"b":[0,1,5]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("RESIDUAL_ORDER", "proper"): '{"counterexample":{"complement":[3,4,5],"s":[0,1,2]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_PLIABLE", "pliable"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_PLIABLE", "uncrossable"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_PLIABLE", "proper"): '{"counterexample":{"complement":[2,3],"s":[0,1]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_UNCROSSABLE", "pliable"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_UNCROSSABLE", "uncrossable"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_UNCROSSABLE", "proper"): '{"counterexample":{"complement":[1,2,3],"s":[0]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_PROPER", "pliable"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_PROPER", "uncrossable"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_PROPER", "proper"): '{"counterexample":{"a":[1],"b":[0],"s":[0,1]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
}


def test_check_family_golden_json(tmp_path, capsys):
    fixtures = {
        "PLIABLE_NOT_GAMMA": (5, PLIABLE_NOT_GAMMA),
        "BETA_TWO": (5, BETA_TWO),
        "SPARSE_VIOLATION": (5, SPARSE_VIOLATION),
        "RESIDUAL_ORDER": (6, RESIDUAL_ORDER),
        "NOT_PLIABLE": (4, NOT_PLIABLE),
        "NOT_UNCROSSABLE": (4, NOT_UNCROSSABLE),
        "NOT_PROPER": (4, NOT_PROPER),
    }
    for (name, prop), expected in CHECK_FAMILY_GOLDEN.items():
        n, members = fixtures[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "explicit", "n": n, "members": members}))
        code = cli_main(["check-family", str(path), "--property", prop])
        assert capsys.readouterr().out == expected + "\n", (name, prop)
        assert code == (0 if '"holds":false' not in expected else 1), (name, prop)


def test_all_pairs():
    assert all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert all_pairs(1) == []


# --- proper families --------------------------------------------------------------


def test_proper_family_examples():
    singles_and_complements = fam(4, [0], [1], [2], [3], [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])
    assert check_family(singles_and_complements, "proper").holds
    assert not check_family(fam(4, [0, 1]), "proper").holds  # no complement
    assert not check_family(fam(4, [0, 1], [2, 3]), "proper").holds  # partition of {0,1} misses


def ref_uncrossable(members: list[frozenset]) -> bool:
    fam = set(members)
    return all(
        (a & b in fam and a | b in fam) or (a - b in fam and b - a in fam)
        for a in members
        for b in members
        if a != b
    )


def ref_proper(members: list[frozenset], n: int) -> bool:
    fam = set(members)
    if any(frozenset(range(n)) - s not in fam for s in members):
        return False
    return all(
        frozenset(half) in fam or s - frozenset(half) in fam
        for s in members
        for k in range(1, len(s))
        for half in itertools.combinations(sorted(s), k)
    )


def ref_gamma_violated(members: list[frozenset], n: int, edges) -> bool:
    alive = ref_residual_members(members, edges)
    cores = ref_minimal(alive)
    return any(
        (s2 - (s1 | c)) and (s2 - (s1 | c)) not in alive
        for s1 in alive
        for s2 in alive
        if s1 < s2
        for c in cores
        if ref_crosses(c, s1, n) and ref_crosses(c, s2, n)
    )


def ref_sparse_violated(members: list[frozenset], n: int, edges) -> bool:
    alive = ref_residual_members(members, edges)
    cores = ref_minimal(alive)
    return any(sum(ref_crosses(s, c, n) for c in cores) >= 2 for s in alive)


def assert_violates(prop: str, members: list[frozenset], n: int, cx: dict) -> None:
    """`cx` breaks `prop` by the property's definition."""
    fam = set(members)
    if prop in ("pliable", "uncrossable"):
        a, b = frozenset(cx["a"]), frozenset(cx["b"])
        assert a in fam and b in fam and a != b
        if prop == "pliable":
            assert sum(d in fam for d in (a & b, a | b, a - b, b - a)) < 2
        else:
            assert not (a & b in fam and a | b in fam) and not (a - b in fam and b - a in fam)
    elif prop == "proper":
        s = frozenset(cx["s"])
        assert s in fam
        if "complement" in cx:
            assert frozenset(cx["complement"]) == frozenset(range(n)) - s
            assert frozenset(cx["complement"]) not in fam
        else:
            a, b = frozenset(cx["a"]), frozenset(cx["b"])
            assert a and b and not a & b and a | b == s
            assert a not in fam and b not in fam
    else:
        edges = [tuple(e) for e in cx["edges"]]
        alive = ref_residual_members(members, edges)
        cores = ref_minimal(alive)
        if prop == "gamma":
            s1, s2, c = frozenset(cx["s1"]), frozenset(cx["s2"]), frozenset(cx["core"])
            assert s1 in alive and s2 in alive and s1 < s2 and c in cores
            assert ref_crosses(c, s1, n) and ref_crosses(c, s2, n)
            d = frozenset(cx["d"])
            assert d == s2 - (s1 | c) and d and d not in alive
        else:
            s, c1, c2 = frozenset(cx["s"]), frozenset(cx["core1"]), frozenset(cx["core2"])
            assert s in alive and c1 in cores and c2 in cores and c1 != c2
            assert ref_crosses(s, c1, n) and ref_crosses(s, c2, n)


def test_check_family_agrees_with_the_references_and_its_counterexamples_violate():
    rng = random.Random(41)
    failed = dict.fromkeys(setfam.PROPERTIES, 0)
    edge_sets = {
        n: [c for k in range(len(all_pairs(n)) + 1) for c in itertools.combinations(all_pairs(n), k)]
        for n in range(2, 5)
    }
    for i in range(400):
        n = rng.randint(2, 6) if i % 2 else rng.randint(2, 4)
        f = random_family(rng, n, rng.randint(0, 8))
        members = [frozenset(s.members()) for s in f]
        expected = {
            "pliable": ref_pliable(members, n),
            "uncrossable": ref_uncrossable(members),
            "proper": ref_proper(members, n),
        }
        if n <= 4:  # every edge subset of all_pairs(n); past that, counterexamples only
            expected["gamma"] = not any(ref_gamma_violated(members, n, j) for j in edge_sets[n])
            expected["sparse"] = not any(ref_sparse_violated(members, n, j) for j in edge_sets[n])
        for prop in setfam.PROPERTIES:
            res = check_family(f, prop)
            assert res.holds == expected.get(prop, res.holds), (prop, members)
            assert (res.counterexample is None) == res.holds
            if not res.holds:
                failed[prop] += 1
                assert_violates(prop, members, n, res.counterexample)
    assert min(failed.values()) >= 10, failed


def ref_reachable_residuals(n: int, masks: list[int]):
    """Every residual family some edge set on V reaches, as its alive masks:
    the union closure of the per-edge coverage masks, walked from the empty
    edge set.  This is the walk the class checks made before they named
    the maximal edge set I*."""
    per_edge = {
        sum(1 << i for i, m in enumerate(masks) if edge_crosses_mask(m, u, v)) for u, v in all_pairs(n)
    }
    reached, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for cm in per_edge:
            if cur | cm not in reached:
                reached.add(cur | cm)
                frontier.append(cur | cm)
    for covered in reached:
        yield [m for i, m in enumerate(masks) if not covered >> i & 1]


def ref_packing(sets: list[int]) -> int:
    """Most pairwise-disjoint masks among `sets`, by plain recursion."""
    if not sets:
        return 0
    first, rest = sets[0], sets[1:]
    return max(ref_packing(rest), 1 + ref_packing([m for m in rest if not m & first]))


def ref_class_checks(n: int, masks: list[int]) -> tuple[bool, bool, int]:
    """(gamma holds, sparse holds, crossing number), each scanned in every
    reachable residual family."""
    full = (1 << n) - 1
    gamma = sparse = True
    beta = 0
    for alive in ref_reachable_residuals(n, masks):
        present = set(alive)
        cores = [c for c in alive if not any(k != c and k & ~c == 0 for k in alive)]
        for c in cores:
            crossing = [s for s in alive if setfam._crosses_masks(c, s, full)]
            gamma = gamma and not any(
                s1 != s2 and s1 & ~s2 == 0 and s2 & ~(s1 | c) and s2 & ~(s1 | c) not in present
                for s1 in crossing
                for s2 in crossing
            )
            beta = max(beta, ref_packing(crossing))
        sparse = sparse and not any(
            sum(setfam._crosses_masks(s, c, full) for c in cores) >= 2 for s in alive
        )
    return gamma, sparse, max(1, beta)


def test_class_checks_agree_with_the_residual_walk():
    rng = random.Random(53)
    failed = {"gamma": 0, "sparse": 0}
    betas = set()
    for i in range(1500):
        n = rng.randint(4, 6)
        if i % 3 == 0:
            f = random_family(rng, n, rng.randint(0, 14))
        else:  # pliable families, which fail the class checks less often
            f = ExplicitFamily(n, tuple(NodeSet(n, m) for m in gens._random_repaired_masks(rng, n) or ()))
        masks = list(f.masks())
        gamma, sparse, beta = ref_class_checks(n, masks)
        assert crossing_number(f) == beta, masks
        betas.add(beta)
        for prop, holds in (("gamma", gamma), ("sparse", sparse)):
            res = check_family(f, prop)
            assert res.holds == holds, (prop, masks)
            if not holds:
                failed[prop] += 1
                assert_violates(prop, [frozenset(s.members()) for s in f], n, res.counterexample)
    assert min(failed.values()) >= 100 and betas >= {1, 2, 3}, (failed, betas)


# First violations of the weight-6 and weight-7 bundles at two leaves.  The
# global core crosses the witness sets by design.
TIGHT_COUNTEREXAMPLES = {
    ("tight6", "gamma"): {
        "s1": [0, 1, 2],
        "s2": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        "core": [1, 3, 5, 7, 11, 12],
        "d": [4, 6, 8, 9],
        "edges": [[0, 2], [3, 5], [4, 6], [5, 7], [6, 8], [8, 9], [11, 12]],
    },
    ("tight6", "sparse"): {
        "s": [1, 3, 5, 7, 11, 12],
        "core1": [0, 1, 2],
        "core2": [4, 5, 6],
        "edges": [[0, 2], [3, 7], [4, 6], [7, 11], [8, 9], [9, 10], [11, 12]],
    },
    ("tight7", "gamma"): {
        "s1": [0, 1, 2],
        "s2": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        "core": [1, 3, 5, 7, 10],
        "d": [4, 6, 8, 9],
        "edges": [[0, 2], [3, 5], [4, 6], [5, 7], [6, 8], [8, 9]],
    },
    ("tight7", "sparse"): {
        "s": [1, 3, 5, 7, 10],
        "core1": [0, 1, 2],
        "core2": [4, 5, 6],
        "edges": [[0, 2], [3, 7], [4, 6], [7, 10], [8, 9], [9, 11]],
    },
}


def test_tight_bundles_are_outside_gamma_and_sparse():
    # The bundles show that the tree-weight count and cost/dual reach the
    # ratio; they are not members of the classes whose ratio they reach.
    for leaves in (2, 4, 8, 16, 32, 64):
        bundles = [tight_six(leaves), tight_seven(leaves)]
        if leaves >= 4:
            bundles.append(tight_beta(leaves, 4))
        for b in bundles:
            members = [frozenset(s.members()) for s in b.family]
            for prop in ("gamma", "sparse"):
                res = check_family(b.family, prop)
                assert not res.holds, (b.kind, leaves, prop)
                assert_violates(prop, members, b.n, res.counterexample)
                if leaves == 2:
                    assert res.counterexample == TIGHT_COUNTEREXAMPLES[b.kind, prop]


# --- oracles -----------------------------------------------------------------------


def test_explicit_family_oracle_matches_residual_cores():
    # cores of pliable families are pairwise disjoint, which is what the
    # oracle's output validation insists on; filter accordingly
    rng = random.Random(5)
    checked = 0
    while checked < 50:
        n = rng.randint(2, 6)
        f = random_family(rng, n, rng.randint(1, 8))
        if not check_family(f, "pliable").holds:
            continue
        checked += 1
        oracle = ExplicitFamilyOracle(f)
        assert oracle.universe_size() == n
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 5))]
        assert [s.members() for s in oracle.cores(edges)] == [
            s.members() for s in kernel_cores(f, edges)
        ]
        assert oracle.is_covered(edges) == (len(kernel_cores(f, edges)) == 0)


def edge_set_queries(rng, n, count=12):
    """Edge lists for one oracle, in shuffled order: the empty list, random
    lists with parallel copies, and each of those with every edge reversed."""
    queries = [[]]
    for _ in range(count):
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 5))]
        edges += rng.sample(edges, rng.randint(0, len(edges)))
        queries += [edges, [(v, u) for u, v in edges]]
    rng.shuffle(queries)
    return queries


def assert_oracle_answers(oracle, edges, expected):
    """The oracle returns the reference cores, or refuses them if they overlap."""
    if all(not a & b for a, b in itertools.combinations(expected, 2)):
        assert [frozenset(s.members()) for s in oracle.cores(edges)] == expected
        assert oracle.is_covered(edges) == (not expected)
    else:
        with pytest.raises(OracleInvariantError):
            oracle.cores(edges)


def test_explicit_oracle_reused_across_calls_matches_reference():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 7)
        f = random_family(rng, n, rng.randint(1, 12))
        members = [frozenset(s.members()) for s in f]
        oracle = ExplicitFamilyOracle(f)
        for edges in edge_set_queries(rng, n):
            assert_oracle_answers(oracle, edges, ref_cores(members, edges))


def test_oracle_still_validates_edges_it_has_seen():
    oracle = ExplicitFamilyOracle(fam(3, [0], [2]))
    assert [s.members() for s in oracle.cores([(0, 1)])] == [(2,)]
    with pytest.raises(ValueError, match="outside universe"):
        oracle.cores([(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="is a loop"):
        oracle.cores([(0, 1), (2, 2)])
    with pytest.raises(ValueError, match="not an int"):
        oracle.cores([(0.5, 2)])


def test_oracle_output_validation():
    with pytest.raises(OracleInvariantError):
        ExplicitFamilyOracle(fam(4, [0, 1], [1, 2])).cores(())


def test_oracle_refuses_a_single_empty_core():
    # No kernel yields an empty core (no member is empty), so the check of
    # the core masks is called directly.
    with pytest.raises(OracleInvariantError, match="empty core"):
        setfam._validate_cores([0])
    with pytest.raises(OracleInvariantError, match="empty core"):
        setfam._validate_cores([0b1, 0, 0b100])
    assert setfam._validate_cores([0b1, 0b100]) == 0b101


def test_oracle_overlap_error_names_two_overlapping_cores():
    with pytest.raises(OracleInvariantError, match=r"disjoint: \[0, 1\] and \[1, 3\]$"):
        ExplicitFamilyOracle(fam(4, [0, 1], [2], [1, 3])).cores(())
    assert [c.members() for c in ExplicitFamilyOracle(fam(4, [0, 1], [2], [3])).cores(())] == [(0, 1), (2,), (3,)]


# --- incidence -------------------------------------------------------------------


def test_incidence_matches_per_set_crossing_tests():
    assert member_incidence(3, []) == [0, 0, 0]
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 8)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        masks += rng.sample(masks, rng.randint(0, len(masks)))  # repeated sets
        rng.shuffle(masks)
        inc = member_incidence(n, [NodeSet(n, m) for m in masks])
        assert len(inc) == n
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 5))]
        edges += [(v, u) for u, v in edges] + rng.sample(edges, rng.randint(0, len(edges)))
        for u, v in edges:
            crossed = [i for i, m in enumerate(masks) if edge_crosses_mask(m, u, v)]
            assert inc[u] ^ inc[v] == sum(1 << i for i in crossed)
        assert degree_sum(inc, edges) == sum(coverage(NodeSet(n, m), edges) for m in masks)


# --- coverage kernel -------------------------------------------------------------


def ref_minimal_masks(masks):
    """The quadratic scan: inclusion-minimal masks, ascending by popcount
    then value."""
    order = sorted(masks, key=lambda m: (m.bit_count(), m))
    kept = []
    for m in order:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def mask_lists(rng, count=400):
    """Lists of distinct nonempty masks, as a kernel holds them: nested
    chains, disjoint sets and many masks sharing a least vertex, plus the
    empty list."""
    yield []
    for _ in range(count):
        n = rng.randint(1, 9)
        masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 12))]
        chain = 0
        for v in rng.sample(range(n), rng.randint(0, n)):
            chain |= 1 << v
            masks.append(chain)
        low = 1 << rng.randrange(n)
        masks += [low | rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        start = 0
        while start < n:  # a partition into disjoint blocks
            width = rng.randint(1, n - start)
            masks.append(((1 << width) - 1) << start)
            start += width
        masks = list(set(masks))
        rng.shuffle(masks)
        yield masks


def test_minimal_masks_match_the_quadratic_scan():
    for masks in mask_lists(random.Random(23)):
        n = max(masks, default=0).bit_length()
        kernel = setfam._CoverageKernel(n, [NodeSet(n, m) for m in masks])
        kept = kernel.least(0, (1 << len(masks)) - 1)
        found = sorted((masks[i] for i in bits(kept)), key=lambda m: (m.bit_count(), m))
        assert found == ref_minimal_masks(masks)


def test_is_covered_on_a_covering_edge_set_needs_no_holders(monkeypatch):
    """A J that covers every member leaves no candidate core, so both
    kernel-backed oracles answer True from the one pass over J."""

    def refuse(self, i):
        raise AssertionError("holders read for an edge set that covers the family")

    monkeypatch.setattr(setfam._CoverageKernel, "holders", refuse)
    triangle = CapGraph.build(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], 3)  # every proper cut is small
    for oracle, n in ((ExplicitFamilyOracle(fam(4, [0], [1], [0, 1], [2, 3])), 4), (SmallCutsOracle(triangle), 3)):
        assert oracle.is_covered(all_pairs(n))
        with pytest.raises(AssertionError, match="holders read"):
            oracle.is_covered([])


def test_kernel_reuses_its_core_nodesets():
    f = fam(5, [0], [1], [0, 1], [2, 3], [3], [4])
    kernel = f.kernel
    for edges in ([], [(0, 2)], [(3, 4), (1, 2)]):
        first, second = kernel.residual(edges).core_sets(), kernel.residual(edges).core_sets()
        assert first == second and first
        assert all(a is b for a, b in zip(first, second))
    assert kernel.residual([(0, 2)]).cores[0] is kernel.root.cores[1]  # core {1} in both
    oracle = ExplicitFamilyOracle(f)
    assert all(a is b for a, b in zip(oracle.cores([(4, 0)]), oracle.cores([(4, 0)])))
    h = CapGraph.build(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)], 4)
    members = materialize_family(h).members
    for edges in ([], [(0, 1)], [(1, 3)]):
        first, second = SmallCutsOracle(h).cores(edges), SmallCutsOracle(h).cores(edges)
        assert first and all(a is b for a, b in zip(first, second))
        assert all(any(c is m for m in members) for c in first)


def test_one_kernel_per_family(monkeypatch):
    """Both oracles over a family, its witness search and the trace
    analyzer read the family's one kernel; the small-cut oracle reads the
    kernel of the one family its graph's cut scan yields."""
    g, f = gens.random_instance("gamma", gens.instance_rng(0, 1), 5)
    trace = solve(g, ExplicitFamilyOracle(f))
    kernel = f.kernel
    first, second = ExplicitFamilyOracle(f), ExplicitFamilyOracle(f)
    built, asked = [], []
    init, residual = setfam._CoverageKernel.__init__, setfam._CoverageKernel.residual
    monkeypatch.setattr(setfam._CoverageKernel, "__init__", lambda self, *a: built.append(self) or init(self, *a))
    monkeypatch.setattr(setfam._CoverageKernel, "residual", lambda self, j: asked.append(self) or residual(self, j))
    assert first.cores([]) == second.cores([]) and first._kernel is kernel and second._kernel is kernel
    solution = [g.pair(e) for e in trace.solution]
    assert first.reverse_delete(solution) == []
    assert len(laminar_witness(f, solution)) == len(solution)
    assert built == []
    assert analyze_trace(g, f, trace, "gamma").ok
    assert asked and all(k is kernel for k in asked)
    h = CapGraph.build(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)], 4)
    assert materialize_family(h) is materialize_family(h)
    assert SmallCutsOracle(h)._kernel is materialize_family(h).kernel
    assert SmallCutsOracle(h)._kernel is SmallCutsOracle(h)._kernel


def test_cached_members_leave_equality_and_hash_alone():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(0, 200)
        mask = rng.randrange(1 << n) if n else 0
        cached, fresh = NodeSet(n, mask), NodeSet(n, mask)
        assert cached.members() == tuple(setfam.bits(mask))
        assert cached.members() is cached.members()
        assert cached.sort_key() == cached.members()
        assert cached == fresh and hash(cached) == hash(fresh)
        assert {cached: 1}[fresh] == 1
        assert fresh.members() == cached.members()
        assert NodeSet(n + 1, mask) != cached


def test_is_covered_agrees_with_cores_on_both_oracles():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 7)
        f = random_family(rng, n, rng.randint(0, 10))
        if not check_family(f, "pliable").holds:
            continue
        checked += 1
        oracles = [ExplicitFamilyOracle(f), SmallCutsOracle(random_cap_graph(rng, n))]
        for oracle in oracles:
            for edges in edge_set_queries(rng, n) + [all_pairs(n)]:
                assert oracle.is_covered(edges) == (not oracle.cores(edges))


def test_contains_matches_membership_on_every_subset():
    rng = random.Random(47)
    checked = 0
    for n in range(2, 9):
        for _ in range(10):
            f = random_family(rng, n, rng.randint(0, 2 * n))
            h = random_cap_graph(rng, n)
            cases = [
                (ExplicitFamilyOracle(f), lambda s: s in f),
                (SmallCutsOracle(h), lambda s: 0 < len(s) < n and cut_value(h, s) < h.k),
            ]
            for oracle, expected in cases:
                for contains in (oracle.contains, partial(path_contains, oracle)):
                    for mask in range(1 << n):
                        s = NodeSet(n, mask)
                        assert contains(s) == expected(s), (f, h, mask)
                        checked += 1
                    assert not contains(NodeSet(n + 1, 1))  # another universe
    assert checked == 4 * 10 * sum(1 << n for n in range(2, 9))


def test_is_covered_still_validates_cores_and_edges():
    f = fam(4, [0, 1], [1, 2], [0, 1, 2])  # not pliable: its cores {0,1}, {1,2} overlap
    assert not check_family(f, "pliable").holds
    oracle = ExplicitFamilyOracle(f)
    with pytest.raises(OracleInvariantError, match="disjoint"):
        oracle.is_covered([])
    assert not oracle.is_covered([(0, 3)])  # only the core {1,2} is left
    assert oracle.is_covered([(1, 3), (0, 2), (2, 3)])
    with pytest.raises(ValueError, match="is a loop"):
        oracle.is_covered([(1, 3), (0, 2), (2, 3), (1, 1)])
    with pytest.raises(ValueError, match="outside universe"):
        oracle.is_covered([(1, 3), (0, 2), (2, 3), (0, 4)])


def test_packing_search_leaves_no_reference_cycle():
    # Integers take no weak reference, so count what only the cyclic
    # collector could free.
    masks = [0b11, 0b110, 0b1100, 0b1, 0b1000, 0b10000, 0b110000]
    gc.disable()
    try:
        gc.collect()
        steps = errors.Budget("packing", "class check")
        assert setfam._max_disjoint_packing(sorted(masks, key=int.bit_count), 0, (), 0, steps) == 4
        assert crossing_number(fam(4, [0], [1], [0, 1], [2], [3], [2, 3])) >= 1
        assert gc.collect() == 0
    finally:
        gc.enable()
