"""Set families over a finite universe and their structural checkers.

Universes are ``{0, ..., n-1}`` and node sets are stored as bitmasks, so all
set algebra is integer arithmetic and therefore exact.  The checkers in this
module decide, for an explicit family:

* pliability (every pair of members leaves at least two of the four derived
  sets inside the family),
* the residual-family property we call "gamma" here: for any edge set I and
  nested members S1 < S2 of the residual family, a residual core crossing
  both forces S2 - (S1 | C) to be empty or a residual member,
* sparseness (no residual member crosses two distinct residual cores), and
* the crossing number (the least beta such that in every residual family
  every core crosses at most beta pairwise disjoint members).

The quantifier "for any edge set I" ranges over subsets of a caller-supplied
edge universe (default: all node pairs).  Two edge sets with the same covered
members induce the same residual family, so the exhaustive mode enumerates
the distinct reachable residual families (the union closure of the per-edge
coverage masks) instead of all 2^|I| subsets.  A sampled mode draws random
edge subsets with a fixed seed for instances past the guards; a sampled "no
counterexample" is reported as such and never as a proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import GuardError, OracleInvariantError, UniverseMismatchError

# Hard guards for the exhaustive checkers.  Enumeration cost is governed by
# the union-closure size, which is capped explicitly; the remaining guards
# keep the per-residual scans (quadratic and cubic in |F|) at desk scale.
MAX_EXHAUSTIVE_UNIVERSE = 16
MAX_EXHAUSTIVE_FAMILY = 256
MAX_EXHAUSTIVE_EDGE_UNIVERSE = 140
MAX_CLOSURE_SIZE = 120_000


@dataclass(frozen=True, order=False)
class NodeSet:
    """A subset of the universe {0..n-1}, stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("universe size must be nonnegative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside the universe")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "NodeSet":
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"node {v} outside universe of size {n}")
            mask |= 1 << v
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.mask >> v & 1)

    def sort_key(self) -> tuple[int, ...]:
        # Canonical order used everywhere: lexicographic on sorted members.
        return self.members()

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __or__(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.n, self.mask | other.mask)

    def __and__(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "NodeSet":
        return NodeSet(self.n, ~self.mask & ((1 << self.n) - 1))

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def issubset(self, other: "NodeSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def _check(self, other: "NodeSet") -> None:
        if self.n != other.n:
            raise UniverseMismatchError(f"universe mismatch: {self.n} vs {other.n}")


def crosses(a: NodeSet, b: NodeSet) -> bool:
    """True when all four of a&b, a-b, b-a, V-(a|b) are nonempty."""
    a._check(b)
    return _crosses_masks(a.mask, b.mask, (1 << a.n) - 1)


def _crosses_masks(a: int, b: int, full: int) -> bool:
    return a & b != 0 and a & ~b != 0 and b & ~a != 0 and full & ~(a | b) != 0


Edge = tuple[int, int]


def validate_edges(n: int, edges: Sequence[Edge]) -> None:
    """Edge sets are lists of (u, v) pairs; loops are rejected, parallel
    copies are allowed and count with multiplicity."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside universe of size {n}")
        if u == v:
            raise ValueError(f"edge ({u},{v}) is a loop")


def edge_crosses_mask(mask: int, u: int, v: int) -> bool:
    return (mask >> u & 1) != (mask >> v & 1)


def coverage(s: NodeSet, edges: Sequence[Edge]) -> int:
    """d_J(S): number of edges with exactly one endpoint in S (multiplicity counts)."""
    return sum(1 for u, v in edges if edge_crosses_mask(s.mask, u, v))


@dataclass(frozen=True)
class ExplicitFamily:
    """A finite family of distinct node sets, none empty and none the full universe.

    Members are kept in canonical order (lexicographic on sorted member
    lists) so that identical families serialize identically.
    """

    n: int
    members: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        seen = set()
        for s in self.members:
            if s.n != self.n:
                raise UniverseMismatchError("family member over a different universe")
            if s.is_empty() or s.is_full():
                raise ValueError("family members must be nonempty proper subsets")
            if s.mask in seen:
                raise ValueError(f"duplicate family member {sorted(s.members())}")
            seen.add(s.mask)
        object.__setattr__(self, "members", tuple(sorted(self.members, key=NodeSet.sort_key)))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "ExplicitFamily":
        return cls(n, tuple(NodeSet.from_members(n, s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[NodeSet]:
        return iter(self.members)

    def __contains__(self, s: NodeSet) -> bool:
        return any(m.mask == s.mask for m in self.members if m.n == s.n)

    def masks(self) -> tuple[int, ...]:
        return tuple(m.mask for m in self.members)

    def residual(self, edges: Sequence[Edge]) -> "ExplicitFamily":
        """Materialize the residual family {S in F : d_J(S) = 0}.

        Derived views are usually enough (see residual_cores); this exists
        for callers that want the family itself.
        """
        validate_edges(self.n, edges)
        kept = [s for s in self.members if coverage(s, edges) == 0]
        return ExplicitFamily(self.n, tuple(kept))


def _minimal_masks(masks: Sequence[int]) -> list[int]:
    """Inclusion-minimal masks, ascending by popcount then value."""
    order = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    kept: list[int] = []
    for m in order:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def residual_cores(f: ExplicitFamily, edges: Sequence[Edge]) -> list[NodeSet]:
    """Inclusion-minimal members of F uncovered by `edges`, canonical order."""
    validate_edges(f.n, edges)
    alive = [s.mask for s in f.members if coverage(s, edges) == 0]
    mins = _minimal_masks(alive)
    return sorted((NodeSet(f.n, m) for m in mins), key=NodeSet.sort_key)


def family_cores(f: ExplicitFamily) -> list[NodeSet]:
    return residual_cores(f, ())


def is_pliable(f: ExplicitFamily) -> bool:
    """Every pair A,B in F leaves at least two of A&B, A|B, A-B, B-A in F.

    The empty set and the universe are never members, so membership tests
    exclude them automatically.
    """
    if len(f) * len(f) > 1_000_000:
        raise GuardError("family too large for the pairwise pliability scan")
    return pliability_counterexample(f) is None


def pliability_counterexample(f: ExplicitFamily) -> Optional[tuple[NodeSet, NodeSet]]:
    """First pair (A, B) violating pliability, or None."""
    present = set(f.masks())
    ms = f.masks()
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            hits = 0
            for derived in (a & b, a | b, a & ~b, b & ~a):
                if derived in present:
                    hits += 1
            if hits < 2:
                return (NodeSet(f.n, a), NodeSet(f.n, b))
    return None


def is_uncrossable(f: ExplicitFamily) -> bool:
    """A&B, A|B in F or A-B, B-A in F, for every pair. Implies pliable."""
    present = set(f.masks())
    ms = f.masks()
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if (a & b in present and a | b in present) or (a & ~b in present and b & ~a in present):
                continue
            return False
    return True


def is_proper_family(f: ExplicitFamily) -> bool:
    """Symmetric (complements are members) plus the disjointness property:
    whenever disjoint nonempty A, B have A | B in F, one of A, B is in F.

    The disjointness quantifier ranges over all splits of each member into
    two nonempty halves, so it is checked per member by subset enumeration
    (members are small at desk scale).
    """
    present = set(f.masks())
    full = (1 << f.n) - 1
    for m in f.masks():
        if full & ~m not in present:
            return False
    for m in f.masks():
        if bin(m).count("1") < 2:
            continue
        # enumerate sub-splits a | b = m, a & b = 0, both nonempty
        sub = (m - 1) & m
        while sub:
            a, b = sub, m & ~sub
            if b and a not in present and b not in present:
                return False
            sub = (sub - 1) & m
    return True


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a family checker run.

    `holds` under mode "sampled" means "no counterexample found in `samples`
    draws", never a proof; `mode` travels with the result so downstream
    consumers cannot lose that caveat.
    """

    property_name: str
    holds: bool
    counterexample: Optional[dict]
    mode: str
    samples: int = 0

    def to_json_dict(self) -> dict:
        out = {
            "property": self.property_name,
            "holds": self.holds,
            "counterexample": self.counterexample,
            "mode": self.mode,
        }
        if self.mode == "sampled":
            out["samples"] = self.samples
        return out


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _coverage_mask(f_masks: Sequence[int], u: int, v: int) -> int:
    """Which family members (by index bit) does edge (u,v) cover."""
    out = 0
    for i, m in enumerate(f_masks):
        if edge_crosses_mask(m, u, v):
            out |= 1 << i
    return out


def _reachable_residuals(
    f: ExplicitFamily, edge_universe: Sequence[Edge]
) -> dict[int, list[Edge]]:
    """All distinct covered-member masks reachable as unions of per-edge
    coverage masks, each with one representative edge set realizing it."""
    f_masks = f.masks()
    gen: dict[int, Edge] = {}
    for u, v in edge_universe:
        cm = _coverage_mask(f_masks, u, v)
        if cm not in gen:
            gen[cm] = (u, v)
    reached: dict[int, list[Edge]] = {0: []}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        base = reached[cur]
        for cm, edge in gen.items():
            nxt = cur | cm
            if nxt not in reached:
                if len(reached) >= MAX_CLOSURE_SIZE:
                    raise GuardError(
                        "instance too large for exhaustive residual enumeration "
                        f"(more than {MAX_CLOSURE_SIZE} distinct residual families)"
                    )
                reached[nxt] = base + [edge]
                frontier.append(nxt)
    return reached


def _exhaustive_guard(f: ExplicitFamily, edge_universe: Sequence[Edge], what: str) -> None:
    for label, value, limit in (
        ("n", f.n, MAX_EXHAUSTIVE_UNIVERSE),
        ("|F|", len(f), MAX_EXHAUSTIVE_FAMILY),
        ("|edge universe|", len(edge_universe), MAX_EXHAUSTIVE_EDGE_UNIVERSE),
    ):
        if value > limit:
            raise GuardError(
                f"instance too large for exhaustive {what} check: {label} = {value} > {limit}"
            )


def _sampled_edge_sets(
    edge_universe: Sequence[Edge], samples: int, seed: int
) -> Iterator[list[Edge]]:
    rng = random.Random(seed)
    universe = list(edge_universe)
    yield []
    for _ in range(samples - 1):
        k = rng.randint(0, len(universe))
        yield rng.sample(universe, k)


def _residuals(
    f: ExplicitFamily,
    edge_universe: Optional[Sequence[Edge]],
    mode: str,
    samples: int,
    seed: int,
    what: str,
) -> Iterator[tuple[list[int], list[int], list[Edge]]]:
    """The residual families the checkers scan, each as (alive member
    masks, their cores, a representative edge set realizing it).

    Exhaustive mode yields every distinct reachable residual family;
    sampled mode yields the residual of each sampled edge set, the empty
    set first.  Empty residual families are skipped: they have no cores.
    """
    universe = all_pairs(f.n) if edge_universe is None else list(edge_universe)
    validate_edges(f.n, universe)
    f_masks = f.masks()
    if mode == "exhaustive":
        _exhaustive_guard(f, universe, what)
        residuals = (
            ([m for i, m in enumerate(f_masks) if not covered >> i & 1], rep)
            for covered, rep in _reachable_residuals(f, universe).items()
        )
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        residuals = (
            ([s.mask for s in f.members if coverage(s, edges) == 0], edges)
            for edges in _sampled_edge_sets(universe, samples, seed)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for alive, edges in residuals:
        if alive:
            yield alive, _minimal_masks(alive), edges


def _result(name: str, counterexample: Optional[dict], mode: str, samples: int) -> CheckResult:
    return CheckResult(
        name, counterexample is None, counterexample, mode, samples if mode == "sampled" else 0
    )


def _members(n: int, mask: int) -> list[int]:
    return sorted(NodeSet(n, mask).members())


def _gamma_violation(
    n: int, alive: list[int], cores: list[int], edges: list[Edge]
) -> Optional[dict]:
    """A Property-violating (S1, S2, C, D) tuple in one residual family."""
    full = (1 << n) - 1
    present = set(alive)
    for s1 in alive:
        for s2 in alive:
            if s1 == s2 or s1 & ~s2 != 0:
                continue  # need S1 strictly inside S2
            for c in cores:
                if not (_crosses_masks(c, s1, full) and _crosses_masks(c, s2, full)):
                    continue
                d = s2 & ~(s1 | c)
                if d != 0 and d not in present:
                    return {
                        "edges": [list(e) for e in edges],
                        "s1": _members(n, s1),
                        "s2": _members(n, s2),
                        "core": _members(n, c),
                        "d": _members(n, d),
                    }
    return None


def is_gamma_pliable(
    f: ExplicitFamily,
    edge_universe: Optional[Sequence[Edge]] = None,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
) -> CheckResult:
    """Check the residual-core property over all edge sets from the universe.

    Exhaustive mode enumerates the distinct reachable residual families and
    is a decision procedure for the fixed edge universe; sampled mode only
    reports "no counterexample found in N samples".
    """
    for alive, cores, edges in _residuals(f, edge_universe, mode, samples, seed, "gamma-pliability"):
        violation = _gamma_violation(f.n, alive, cores, edges)
        if violation is not None:
            return _result("gamma-pliable", violation, mode, samples)
    return _result("gamma-pliable", None, mode, samples)


def is_sparse(
    f: ExplicitFamily,
    edge_universe: Optional[Sequence[Edge]] = None,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
) -> CheckResult:
    """No residual member may cross two distinct residual cores."""
    full = (1 << f.n) - 1
    for alive, cores, edges in _residuals(f, edge_universe, mode, samples, seed, "sparseness"):
        for s in alive:
            crossed = [c for c in cores if _crosses_masks(s, c, full)]
            if len(crossed) >= 2:
                violation = {
                    "edges": [list(e) for e in edges],
                    "s": _members(f.n, s),
                    "core1": _members(f.n, crossed[0]),
                    "core2": _members(f.n, crossed[1]),
                }
                return _result("sparse", violation, mode, samples)
    return _result("sparse", None, mode, samples)


def _max_disjoint_packing(cands: list[int]) -> int:
    """Maximum number of pairwise-disjoint masks, by branch and bound."""
    cands = sorted(cands, key=lambda m: bin(m).count("1"))
    best = 0

    def rec(idx: int, used: int, count: int) -> None:
        nonlocal best
        if count + (len(cands) - idx) <= best:
            return
        if idx == len(cands):
            best = max(best, count)
            return
        m = cands[idx]
        if m & used == 0:
            rec(idx + 1, used | m, count + 1)
        rec(idx + 1, used, count)

    rec(0, 0, 0)
    return best


def crossing_number(
    f: ExplicitFamily,
    edge_universe: Optional[Sequence[Edge]] = None,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
) -> int:
    """Least beta such that every residual core crosses at most beta
    pairwise disjoint residual members.  Clamped to >= 1 so that the result
    is always a usable ratio parameter.  In sampled mode this is only a
    lower-bound estimate over the sampled residuals.
    """
    full = (1 << f.n) - 1
    best = 0
    for alive, cores, _ in _residuals(f, edge_universe, mode, samples, seed, "crossing-number"):
        for c in cores:
            cands = [s for s in alive if _crosses_masks(c, s, full)]
            if len(cands) > best:  # packing can only be <= len(cands)
                best = max(best, _max_disjoint_packing(cands))
    return max(1, best)


class FamilyOracle:
    """Contract shared by family backends.

    cores(J) returns the inclusion-minimal uncovered members, pairwise
    disjoint for the families this package targets.  Every call re-verifies
    minimality and disjointness and fails loudly on a violation instead of
    letting a bad family corrupt a run; checkers never assume either.
    """

    def universe_size(self) -> int:
        raise NotImplementedError

    def _cores_impl(self, edges: Sequence[Edge]) -> list[NodeSet]:
        raise NotImplementedError

    def cores(self, edges: Sequence[Edge]) -> list[NodeSet]:
        out = self._cores_impl(edges)
        self._validate_cores(out)
        return out

    def is_covered(self, edges: Sequence[Edge]) -> bool:
        return not self.cores(edges)

    def _validate_cores(self, cores: list[NodeSet]) -> None:
        for i, a in enumerate(cores):
            for b in cores[i + 1 :]:
                if a.mask & b.mask:
                    raise OracleInvariantError(
                        f"cores not pairwise disjoint: {sorted(a.members())} and {sorted(b.members())}"
                    )
                if a.mask & ~b.mask == 0 or b.mask & ~a.mask == 0:
                    raise OracleInvariantError("cores not inclusion-minimal")


class ExplicitFamilyOracle(FamilyOracle):
    def __init__(self, family: ExplicitFamily) -> None:
        self.family = family

    def universe_size(self) -> int:
        return self.family.n

    def _cores_impl(self, edges: Sequence[Edge]) -> list[NodeSet]:
        return residual_cores(self.family, edges)
