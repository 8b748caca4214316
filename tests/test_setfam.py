"""Unit tests for set-family primitives and the structural checkers.

Expected values for the randomized cross-checks come from the reference
implementations at the top of this file, which use plain Python sets and a
filter-then-minimize shape on purpose (different code path than the package).
"""

import gc
import itertools
import json
import random

import pytest

import pliablecover.setfam as setfam
from pliablecover.cli import main as cli_main
from pliablecover.errors import GuardError, OracleInvariantError, UniverseMismatchError
from pliablecover.gens import random_cap_graph
from pliablecover.setfam import (
    CheckResult,
    ExplicitFamily,
    ExplicitFamilyOracle,
    FamilyOracle,
    NodeSet,
    all_pairs,
    check_family,
    coverage,
    crosses,
    crossing_number,
    degree_sum,
    edge_crosses_mask,
    incidence,
    validate_edges,
)
from pliablecover.smallcuts import SmallCutsOracle, cut_value


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
    """Cores of F^J from the coverage kernel, which, unlike the oracle,
    returns overlapping cores instead of refusing them."""
    return setfam._CoverageKernel(f.n, f.masks()).cores(edges)


def kernel_residual(f: ExplicitFamily, edges) -> ExplicitFamily:
    """F^J: the members the kernel's covered mask leaves alive."""
    covered = setfam._CoverageKernel(f.n, f.masks()).covered(edges)
    return ExplicitFamily(f.n, tuple(s for i, s in enumerate(f) if not covered >> i & 1))


# --- NodeSet ----------------------------------------------------------------


def test_nodeset_members_roundtrip():
    s = NodeSet.from_members(6, [4, 1, 2])
    assert s.members() == (1, 2, 4)
    assert s.mask == 0b10110
    assert len(s) == 3
    assert 2 in s and 0 not in s and 6 not in s


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
    assert res.mode == "exhaustive"
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


def test_gamma_pliable_sampled_mode():
    f = fam(5, *PLIABLE_NOT_GAMMA)
    res = check_family(f, "gamma", mode="sampled", samples=50, seed=0)
    assert res.mode == "sampled"
    assert res.samples == 50
    # the empty edge set is always sampled first, so the violation is found
    assert not res.holds
    with pytest.raises(ValueError):
        check_family(f, "gamma", mode="fancy")
    for prop in ("gamma", "sparse"):
        for samples in (0, -5):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                check_family(f, prop, mode="sampled", samples=samples)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            crossing_number(f, mode="sampled", samples=samples)


def test_checkresult_json_shape():
    res = CheckResult("gamma-pliable", True, None, "exhaustive")
    assert res.to_json_dict() == {
        "property": "gamma-pliable",
        "holds": True,
        "counterexample": None,
        "mode": "exhaustive",
    }
    sampled = CheckResult("sparse", False, {"s": [0]}, "sampled", 99)
    assert sampled.to_json_dict()["samples"] == 99


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
    big = fam(18, [0], [1])
    with pytest.raises(GuardError, match=r"too large for exhaustive gamma-pliability check: n = 18 > 16$"):
        check_family(big, "gamma")
    with pytest.raises(GuardError, match=r"too large for exhaustive sparseness check: n = 18 > 16$"):
        check_family(big, "sparse")
    with pytest.raises(GuardError, match=r"too large for exhaustive crossing-number check: n = 18 > 16$"):
        crossing_number(big)
    crowded = ExplicitFamily(9, tuple(NodeSet(9, m) for m in range(1, 258)))
    with pytest.raises(GuardError, match=r"too large for exhaustive sparseness check: \|F\| = 257 > 256$"):
        check_family(crowded, "sparse")
    # sampled mode is the escape hatch
    assert check_family(big, "gamma", mode="sampled", samples=10).holds


def test_closure_guard_names_the_measured_value(monkeypatch):
    monkeypatch.setattr(setfam, "MAX_CLOSURE_SIZE", 2)
    with pytest.raises(
        GuardError,
        match=r"too large for exhaustive sparseness check: "
        r"residual families found before stopping = 3 > 2$",
    ):
        check_family(fam(4, [0], [1], [2]), "sparse")


def test_pair_scan_guard_names_the_measured_value(monkeypatch):
    crowded = ExplicitFamily(10, tuple(NodeSet(10, m) for m in range(1, 1002)))
    for prop, what in (("pliable", "pliability"), ("uncrossable", "uncrossability")):
        with pytest.raises(
            GuardError, match=rf"too large for exhaustive {what} check: \|F\| = 1001 > 1000$"
        ):
            check_family(crowded, prop)
    monkeypatch.setattr(setfam, "MAX_PAIR_SCAN_FAMILY", 2)
    for prop, what in (("pliable", "pliability"), ("uncrossable", "uncrossability")):
        assert check_family(fam(4, [0], [1]), prop).holds  # at the limit
        with pytest.raises(GuardError, match=rf"{what} check: \|F\| = 3 > 2$"):
            check_family(fam(4, [0], [1], [2]), prop)


# Frozen fixture from seeded search: its sparseness counterexamples lie at
# non-empty edge sets, so they pin the order in which both modes scan the
# residual families and the sampled edge-set stream.
RESIDUAL_ORDER = (
    (0, 1, 2), (0, 1, 2, 3), (0, 1, 5), (0, 2, 3, 4, 5), (0, 2, 4), (1,), (1, 2, 5), (1, 3, 4, 5), (1, 3, 5)
)

# One failing fixture per member-only property, all over n = 4.  For {0,1}
# and {1,2}, none of A&B, A|B, A-B, B-A is a member: not pliable.  Adding
# {0} and {1} makes that pair pliable (A&B and A-B) but not uncrossable.
# {0,1} and {2,3} are each other's complement, but {0,1} splits into {0}
# and {1}, neither a member: not proper.  Their sampled rows below pin that
# these exact checks report mode "exhaustive" whatever the mode asked.
NOT_PLIABLE = ((0, 1), (1, 2))
NOT_UNCROSSABLE = ((0,), (1,), (0, 1), (1, 2))
NOT_PROPER = ((0, 1), (2, 3))

# Canonical `check-family` output for the fixtures above.  The bytes are
# pinned: any difference is a behaviour change of the checkers or the CLI.
CHECK_FAMILY_GOLDEN = {
    ("PLIABLE_NOT_GAMMA", "gamma", "exhaustive"): '{"counterexample":{"core":[2,3],"d":[0],"edges":[],"s1":[3,4],"s2":[0,3,4]},"holds":false,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "gamma", "sampled"): '{"counterexample":{"core":[2,3],"d":[0],"edges":[],"s1":[3,4],"s2":[0,3,4]},"holds":false,"mode":"sampled","property":"gamma-pliable","samples":200,"version":"1"}',
    ("PLIABLE_NOT_GAMMA", "sparse", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "sparse", "sampled"): '{"counterexample":null,"holds":true,"mode":"sampled","property":"sparse","samples":200,"version":"1"}',
    ("PLIABLE_NOT_GAMMA", "crossing-number", "exhaustive"): '{"crossing_number":1,"mode":"exhaustive","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "crossing-number", "sampled"): '{"crossing_number":1,"mode":"sampled","version":"1"}',
    ("BETA_TWO", "gamma", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("BETA_TWO", "gamma", "sampled"): '{"counterexample":null,"holds":true,"mode":"sampled","property":"gamma-pliable","samples":200,"version":"1"}',
    ("BETA_TWO", "sparse", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("BETA_TWO", "sparse", "sampled"): '{"counterexample":null,"holds":true,"mode":"sampled","property":"sparse","samples":200,"version":"1"}',
    ("BETA_TWO", "crossing-number", "exhaustive"): '{"crossing_number":2,"mode":"exhaustive","version":"1"}',
    ("BETA_TWO", "crossing-number", "sampled"): '{"crossing_number":2,"mode":"sampled","version":"1"}',
    ("SPARSE_VIOLATION", "gamma", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("SPARSE_VIOLATION", "gamma", "sampled"): '{"counterexample":null,"holds":true,"mode":"sampled","property":"gamma-pliable","samples":200,"version":"1"}',
    ("SPARSE_VIOLATION", "sparse", "exhaustive"): '{"counterexample":{"core1":[0,2],"core2":[1,3],"edges":[],"s":[0,1,4]},"holds":false,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("SPARSE_VIOLATION", "sparse", "sampled"): '{"counterexample":{"core1":[0,2],"core2":[1,3],"edges":[],"s":[0,1,4]},"holds":false,"mode":"sampled","property":"sparse","samples":200,"version":"1"}',
    ("SPARSE_VIOLATION", "crossing-number", "exhaustive"): '{"crossing_number":2,"mode":"exhaustive","version":"1"}',
    ("SPARSE_VIOLATION", "crossing-number", "sampled"): '{"crossing_number":2,"mode":"sampled","version":"1"}',
    ("RESIDUAL_ORDER", "gamma", "exhaustive"): '{"counterexample":{"core":[0,2,4],"d":[3],"edges":[],"s1":[0,1,2],"s2":[0,1,2,3]},"holds":false,"mode":"exhaustive","property":"gamma-pliable","version":"1"}',
    ("RESIDUAL_ORDER", "gamma", "sampled"): '{"counterexample":{"core":[0,2,4],"d":[3],"edges":[],"s1":[0,1,2],"s2":[0,1,2,3]},"holds":false,"mode":"sampled","property":"gamma-pliable","samples":200,"version":"1"}',
    ("RESIDUAL_ORDER", "sparse", "exhaustive"): '{"counterexample":{"core1":[0,2,4],"core2":[1,3,5],"edges":[[1,3]],"s":[0,1,2,3]},"holds":false,"mode":"exhaustive","property":"sparse","version":"1"}',
    ("RESIDUAL_ORDER", "sparse", "sampled"): '{"counterexample":{"core1":[0,2,4],"core2":[1,2,5],"edges":[[1,5]],"s":[0,1,5]},"holds":false,"mode":"sampled","property":"sparse","samples":200,"version":"1"}',
    ("RESIDUAL_ORDER", "crossing-number", "exhaustive"): '{"crossing_number":2,"mode":"exhaustive","version":"1"}',
    ("RESIDUAL_ORDER", "crossing-number", "sampled"): '{"crossing_number":2,"mode":"sampled","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "pliable", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "uncrossable", "exhaustive"): '{"counterexample":{"a":[0,3,4],"b":[2,3]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("PLIABLE_NOT_GAMMA", "proper", "exhaustive"): '{"counterexample":{"complement":[1],"s":[0,2,3,4]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("BETA_TWO", "pliable", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("BETA_TWO", "uncrossable", "exhaustive"): '{"counterexample":{"a":[0,1,2],"b":[0,2,3]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("BETA_TWO", "proper", "exhaustive"): '{"counterexample":{"complement":[3,4],"s":[0,1,2]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("SPARSE_VIOLATION", "pliable", "exhaustive"): '{"counterexample":{"a":[0,1,4],"b":[0,2]},"holds":false,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("SPARSE_VIOLATION", "uncrossable", "exhaustive"): '{"counterexample":{"a":[0,1,4],"b":[0,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("SPARSE_VIOLATION", "proper", "exhaustive"): '{"counterexample":{"complement":[2,3],"s":[0,1,4]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("RESIDUAL_ORDER", "pliable", "exhaustive"): '{"counterexample":{"a":[0,1,2],"b":[0,1,5]},"holds":false,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("RESIDUAL_ORDER", "uncrossable", "exhaustive"): '{"counterexample":{"a":[0,1,2],"b":[0,1,5]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("RESIDUAL_ORDER", "proper", "exhaustive"): '{"counterexample":{"complement":[3,4,5],"s":[0,1,2]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_PLIABLE", "pliable", "exhaustive"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_PLIABLE", "pliable", "sampled"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_PLIABLE", "uncrossable", "exhaustive"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_PLIABLE", "uncrossable", "sampled"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_PLIABLE", "proper", "exhaustive"): '{"counterexample":{"complement":[2,3],"s":[0,1]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_PLIABLE", "proper", "sampled"): '{"counterexample":{"complement":[2,3],"s":[0,1]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_UNCROSSABLE", "pliable", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_UNCROSSABLE", "pliable", "sampled"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_UNCROSSABLE", "uncrossable", "exhaustive"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_UNCROSSABLE", "uncrossable", "sampled"): '{"counterexample":{"a":[0,1],"b":[1,2]},"holds":false,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_UNCROSSABLE", "proper", "exhaustive"): '{"counterexample":{"complement":[1,2,3],"s":[0]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_UNCROSSABLE", "proper", "sampled"): '{"counterexample":{"complement":[1,2,3],"s":[0]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_PROPER", "pliable", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_PROPER", "pliable", "sampled"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"pliable","version":"1"}',
    ("NOT_PROPER", "uncrossable", "exhaustive"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_PROPER", "uncrossable", "sampled"): '{"counterexample":null,"holds":true,"mode":"exhaustive","property":"uncrossable","version":"1"}',
    ("NOT_PROPER", "proper", "exhaustive"): '{"counterexample":{"a":[1],"b":[0],"s":[0,1]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
    ("NOT_PROPER", "proper", "sampled"): '{"counterexample":{"a":[1],"b":[0],"s":[0,1]},"holds":false,"mode":"exhaustive","property":"proper","version":"1"}',
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
    for (name, prop, mode), expected in CHECK_FAMILY_GOLDEN.items():
        n, members = fixtures[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "explicit", "n": n, "members": members}))
        code = cli_main(["check-family", str(path), "--property", prop, "--mode", mode])
        assert capsys.readouterr().out == expected + "\n", (name, prop, mode)
        assert code == (0 if '"holds":false' not in expected else 1), (name, prop, mode)


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


class _ListOracle(FamilyOracle):
    """Returns a fixed list of cores, whatever the edges, to exercise the
    output validation."""

    def __init__(self, n, *cores):
        self.n = n
        self.answer = [NodeSet.from_members(n, c) for c in cores]

    def universe_size(self):
        return self.n

    def _cores_impl(self, edges):
        return list(self.answer)


def test_oracle_output_validation():
    with pytest.raises(OracleInvariantError):
        _ListOracle(4, [0, 1], [1, 2]).cores(())


def test_oracle_refuses_a_single_empty_core():
    with pytest.raises(OracleInvariantError, match="empty core"):
        _ListOracle(3, []).cores(())
    with pytest.raises(OracleInvariantError, match="empty core"):
        _ListOracle(3, [0], [], [2]).cores(())


def test_oracle_overlap_error_names_two_overlapping_cores():
    with pytest.raises(OracleInvariantError, match=r"disjoint: \[0, 1\] and \[1, 3\]$"):
        _ListOracle(4, [0, 1], [2], [1, 3]).cores(())
    assert [c.members() for c in _ListOracle(4, [0, 1], [2], [3]).cores(())] == [(0, 1), (2,), (3,)]


# --- incidence -------------------------------------------------------------------


def test_incidence_matches_per_set_crossing_tests():
    assert incidence(3, []) == [0, 0, 0]
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 8)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        masks += rng.sample(masks, rng.randint(0, len(masks)))  # repeated sets
        rng.shuffle(masks)
        inc = incidence(n, masks)
        assert len(inc) == n
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 5))]
        edges += [(v, u) for u, v in edges] + rng.sample(edges, rng.randint(0, len(edges)))
        for u, v in edges:
            crossed = [i for i, m in enumerate(masks) if edge_crosses_mask(m, u, v)]
            assert inc[u] ^ inc[v] == sum(1 << i for i in crossed)
        assert degree_sum(inc, edges) == sum(coverage(NodeSet(n, m), edges) for m in masks)


# --- coverage kernel -------------------------------------------------------------


def ref_minimal_masks(masks):
    """The quadratic scan the least-vertex index replaced."""
    order = sorted(masks, key=lambda m: (m.bit_count(), m))
    kept = []
    for m in order:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def mask_lists(rng, count=400):
    """Mask lists with duplicates, nested chains, disjoint sets and many
    masks sharing a least vertex, plus the empty list and the empty mask."""
    yield []
    yield [0]
    yield [0b110, 0, 0b1]
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
        masks += rng.sample(masks, rng.randint(0, len(masks)))
        rng.shuffle(masks)
        yield masks


def test_minimal_masks_match_the_quadratic_scan():
    for masks in mask_lists(random.Random(23)):
        assert setfam._minimal_masks(masks) == ref_minimal_masks(masks)


def test_kernel_reuses_its_core_nodesets():
    f = fam(5, [0], [1], [0, 1], [2, 3], [3], [4])
    kernel = setfam._CoverageKernel(f.n, f.masks())
    for edges in ([], [(0, 2)], [(3, 4), (1, 2)]):
        first, second = kernel.cores(edges), kernel.cores(edges)
        assert first == second and first
        assert all(a is b for a, b in zip(first, second))
    assert kernel.cores([(0, 2)])[0] is kernel.cores([])[1]  # core {1} in both
    oracle = ExplicitFamilyOracle(f)
    assert all(a is b for a, b in zip(oracle.cores([(4, 0)]), oracle.cores([(4, 0)])))


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


class ForwardingOracle(FamilyOracle):
    """Forwards only cores, is_covered and universe_size, as a delegating
    tracing wrapper does, so `contains` is the base class's default."""

    def __init__(self, inner: FamilyOracle) -> None:
        self.inner = inner

    def universe_size(self) -> int:
        return self.inner.universe_size()

    def cores(self, edges):
        return self.inner.cores(edges)

    def is_covered(self, edges):
        return self.inner.is_covered(edges)


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
                for o in (oracle, ForwardingOracle(oracle)):
                    for mask in range(1 << n):
                        s = NodeSet(n, mask)
                        assert o.contains(s) == expected(s), (f, h, mask)
                        checked += 1
                    assert not o.contains(NodeSet(n + 1, 1))  # another universe
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
        assert setfam._max_disjoint_packing(masks) == 4
        assert crossing_number(fam(4, [0], [1], [0, 1], [2], [3], [2, 3])) >= 1
        assert gc.collect() == 0
    finally:
        gc.enable()
