"""Unit tests for set-family primitives and the structural checkers.

Expected values for the randomized cross-checks come from the reference
implementations at the top of this file, which use plain Python sets and a
filter-then-minimize shape on purpose (different code path than the package).
"""

import json
import random

import pytest

from pliablecover.cli import main as cli_main
from pliablecover.errors import GuardError, OracleInvariantError, UniverseMismatchError
from pliablecover.setfam import (
    CheckResult,
    ExplicitFamily,
    ExplicitFamilyOracle,
    FamilyOracle,
    NodeSet,
    all_pairs,
    coverage,
    crosses,
    crossing_number,
    family_cores,
    is_gamma_pliable,
    is_pliable,
    is_proper_family,
    is_sparse,
    is_uncrossable,
    pliability_counterexample,
    residual_cores,
    validate_edges,
)


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


def test_nodeset_algebra():
    a = NodeSet.from_members(5, [0, 1, 3])
    b = NodeSet.from_members(5, [1, 2])
    assert (a | b).members() == (0, 1, 2, 3)
    assert (a & b).members() == (1,)
    assert (a - b).members() == (0, 3)
    assert a.complement().members() == (2, 4)
    assert NodeSet(5, 0).is_empty()
    assert NodeSet.from_members(5, range(5)).is_full()
    assert (a & b).issubset(a)
    with pytest.raises(UniverseMismatchError):
        a | NodeSet(4, 1)


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
    assert [s.members() for s in residual_cores(f, ())] == [(0,), (1,)]
    assert [s.members() for s in residual_cores(f, [(0, 2)])] == [(1,)]
    assert [s.members() for s in family_cores(f)] == [(0,), (1,)]


def test_residual_keeps_only_uncovered_members():
    f = fam(3, [0], [1], [0, 1])
    r = f.residual([(0, 2)])
    assert [s.members() for s in r] == [(1,)]
    assert len(f.residual([(0, 1), (0, 2), (1, 2)])) == 0


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
        got = [frozenset(s.members()) for s in residual_cores(f, edges)]
        assert got == expected


def test_residual_composition():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(3, 6)
        f = random_family(rng, n, rng.randint(2, 8))
        j = [tuple(rng.sample(range(n), 2)) for _ in range(4)]
        split = rng.randint(0, 4)
        lhs = residual_cores(f, j)
        rhs = residual_cores(f.residual(j[:split]), j[split:])
        assert [s.members() for s in lhs] == [s.members() for s in rhs]


# --- pliability ----------------------------------------------------------------


def test_pliable_examples():
    full = fam(3, [0], [1], [2], [0, 1], [0, 2], [1, 2])
    assert is_pliable(full)
    bad = fam(4, [0, 1], [1, 2])
    assert not is_pliable(bad)
    a, b = pliability_counterexample(bad)
    assert (a.members(), b.members()) == ((0, 1), (1, 2))


def test_laminar_family_is_pliable_and_uncrossable():
    f = fam(6, [0], [0, 1], [0, 1, 2], [3], [3, 4])
    assert is_pliable(f)
    assert is_uncrossable(f)
    assert is_gamma_pliable(f).holds
    assert is_sparse(f).holds
    assert crossing_number(f) == 1


def test_pliable_matches_reference():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(2, 6)
        f = random_family(rng, n, rng.randint(1, 8))
        members = [frozenset(s.members()) for s in f]
        assert is_pliable(f) == ref_pliable(members, n)


def test_uncrossable_implies_pliable():
    rng = random.Random(4)
    seen = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        f = random_family(rng, n, rng.randint(1, 6))
        if is_uncrossable(f):
            seen += 1
            assert is_pliable(f)
    assert seen > 10


# Frozen regression fixture: pliable family that fails the residual-core
# property, found by seeded random search.  The counterexample is at the
# empty edge set: S1={3,4} < S2={0,3,4}, core {2,3} crosses both, and the
# leftover {0} is not a member.
PLIABLE_NOT_GAMMA = ((4,), (2, 3), (3, 4), (0, 4), (0, 3, 4), (2, 3, 4), (0, 2, 3, 4))


def test_pliable_but_not_gamma_fixture():
    f = fam(5, *PLIABLE_NOT_GAMMA)
    assert is_pliable(f)
    res = is_gamma_pliable(f)
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
    res = is_gamma_pliable(f, mode="sampled", samples=50, seed=0)
    assert res.mode == "sampled"
    assert res.samples == 50
    # the empty edge set is always sampled first, so the violation is found
    assert not res.holds
    with pytest.raises(ValueError):
        is_gamma_pliable(f, mode="fancy")
    for checker in (is_gamma_pliable, is_sparse, crossing_number):
        for samples in (0, -5):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                checker(f, mode="sampled", samples=samples)


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
    res = is_sparse(f)
    assert not res.holds
    cx = res.counterexample
    assert cx["s"] == [0, 1, 4]
    assert {tuple(cx["core1"]), tuple(cx["core2"])} == {(0, 2), (1, 3)}


def test_sparse_empty_family_is_vacuous():
    assert is_sparse(ExplicitFamily(4, ())).holds
    assert crossing_number(ExplicitFamily(4, ())) == 1


# Frozen fixture from seeded search: sparse family whose core {0,1,2} is
# crossed by the two disjoint members {0,2,3} and {1,4}.
BETA_TWO = ((0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4), (0, 2, 3), (1, 4), (3,), (4,))


def test_crossing_number_fixture():
    f = fam(5, *BETA_TWO)
    assert is_sparse(f).holds
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
        is_gamma_pliable(big)
    with pytest.raises(GuardError, match=r"too large for exhaustive sparseness check: n = 18 > 16$"):
        is_sparse(big)
    with pytest.raises(GuardError, match=r"too large for exhaustive crossing-number check: n = 18 > 16$"):
        crossing_number(big)
    crowded = ExplicitFamily(9, tuple(NodeSet(9, m) for m in range(1, 258)))
    with pytest.raises(GuardError, match=r"too large for exhaustive sparseness check: \|F\| = 257 > 256$"):
        is_sparse(crowded)
    # explicit edge universe over the limit (parallel edges allowed)
    small = fam(4, [0], [1])
    with pytest.raises(
        GuardError,
        match=r"too large for exhaustive gamma-pliability check: \|edge universe\| = 141 > 140$",
    ):
        is_gamma_pliable(small, edge_universe=[(0, 1)] * 141)
    # sampled mode is the escape hatch
    assert is_gamma_pliable(big, mode="sampled", samples=10).holds


# Frozen fixture from seeded search: its sparseness counterexamples lie at
# non-empty edge sets, so they pin the order in which both modes scan the
# residual families and the sampled edge-set stream.
RESIDUAL_ORDER = (
    (0, 1, 2), (0, 1, 2, 3), (0, 1, 5), (0, 2, 3, 4, 5), (0, 2, 4), (1,), (1, 2, 5), (1, 3, 4, 5), (1, 3, 5)
)

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
}


def test_check_family_golden_json(tmp_path, capsys):
    fixtures = {
        "PLIABLE_NOT_GAMMA": (5, PLIABLE_NOT_GAMMA),
        "BETA_TWO": (5, BETA_TWO),
        "SPARSE_VIOLATION": (5, SPARSE_VIOLATION),
        "RESIDUAL_ORDER": (6, RESIDUAL_ORDER),
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
    assert is_proper_family(singles_and_complements)
    assert not is_proper_family(fam(4, [0, 1]))  # no complement
    assert not is_proper_family(fam(4, [0, 1], [2, 3]))  # partition of {0,1} misses


# --- oracles -----------------------------------------------------------------------


def test_explicit_family_oracle_matches_residual_cores():
    # cores of pliable families are pairwise disjoint, which is what the
    # oracle's output validation insists on; filter accordingly
    rng = random.Random(5)
    checked = 0
    while checked < 50:
        n = rng.randint(2, 6)
        f = random_family(rng, n, rng.randint(1, 8))
        if not is_pliable(f):
            continue
        checked += 1
        oracle = ExplicitFamilyOracle(f)
        assert oracle.universe_size() == n
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 5))]
        assert [s.members() for s in oracle.cores(edges)] == [
            s.members() for s in residual_cores(f, edges)
        ]
        assert oracle.is_covered(edges) == (len(residual_cores(f, edges)) == 0)


class _BrokenOracle(FamilyOracle):
    """Returns overlapping cores to exercise the output validation."""

    def universe_size(self):
        return 4

    def _cores_impl(self, edges):
        return [NodeSet.from_members(4, [0, 1]), NodeSet.from_members(4, [1, 2])]


def test_oracle_output_validation():
    with pytest.raises(OracleInvariantError):
        _BrokenOracle().cores(())
