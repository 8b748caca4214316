"""Set families over a finite universe and their structural checkers.

Universes are ``{0, ..., n-1}`` and node sets are stored as bitmasks, so all
set algebra is integer arithmetic and therefore exact.  `check_family`
decides, for an explicit family, each property in the `PROPERTIES` table
and reports the first violation it finds:

* pliability (every pair of members leaves at least two of the four derived
  sets inside the family) and uncrossability, both by one pair scan,
* properness (symmetric, and no member splits into two non-members),
* the residual-family property we call "gamma" here: for any edge set I and
  nested members S1 < S2 of the residual family, a residual core crossing
  both forces S2 - (S1 | C) to be empty or a residual member, and
* sparseness (no residual member crosses two distinct residual cores).

`crossing_number` computes the least beta such that in every residual
family every core crosses at most beta pairwise disjoint members.

The quantifier "for any edge set I" ranges over every edge set on V, that
is over the subsets of all node pairs.  Two edge sets with the same covered
members induce the same residual family, so the exhaustive mode enumerates
the distinct reachable residual families (the union closure of the per-edge
coverage masks) instead of all 2^|I| subsets.  A sampled mode draws random
edge subsets with a fixed seed for instances past the guards; a sampled "no
counterexample" is reported as such and never as a proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import OracleInvariantError, UniverseMismatchError, guard

# Hard guards for the exhaustive checkers.  Enumeration cost is governed by
# the union-closure size, which is capped explicitly; the remaining guards
# keep the per-residual scans (quadratic and cubic in |F|) at desk scale.
MAX_EXHAUSTIVE_UNIVERSE = 16
MAX_EXHAUSTIVE_FAMILY = 256
MAX_CLOSURE_SIZE = 120_000
# The pairwise scans (pliable, uncrossable) test at most 10^6 pairs.
MAX_PAIR_SCAN_FAMILY = 1000


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
        """Sorted members, computed at the first call and then cached."""
        return self._members

    @cached_property
    def _members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def sort_key(self) -> tuple[int, ...]:
        # Canonical order used everywhere: lexicographic on sorted members.
        return self.members()

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def _check(self, other: "NodeSet") -> None:
        if self.n != other.n:
            raise UniverseMismatchError(f"universe mismatch: {self.n} vs {other.n}")


def bits(mask: int) -> list[int]:
    """Indexes of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def incidence(n: int, masks: Iterable[int]) -> list[int]:
    """Per vertex, the bitmask of the indexes of the sets holding it.

    Edge (u, v) crosses set i exactly when bit i of inc[u] ^ inc[v] is set.
    This holds for any list of sets, overlapping or repeated ones included.
    """
    inc = [0] * n
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            inc[low.bit_length() - 1] |= bit
            m ^= low
    return inc


def over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of `values`:
    value i equals nums[i] / denom.  No values give ([], 1)."""
    values = list(values)
    # Unpack a list, not a generator: unpacking a generator here made peak
    # RSS grow with the number of calls (CPython 3.11).
    denom = lcm(*[x.denominator for x in values])
    return [x.numerator * (denom // x.denominator) for x in values], denom


def degree_sum(inc: Sequence[int], edges: Sequence[Edge]) -> int:
    """Summed d_J(S) over the sets behind the incidence list `inc`."""
    return sum((inc[u] ^ inc[v]).bit_count() for u, v in edges)


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


def _minimal_masks(masks: Sequence[int]) -> list[int]:
    """Inclusion-minimal masks, ascending by popcount then value.

    The kept masks are indexed by their least bit: a kept k lies inside m
    only if least(k) is in m, so m is tested only against the kept masks
    whose least bit is in `m & lows`.
    """
    order = sorted(masks, key=lambda m: (m.bit_count(), m))
    if order and not order[0]:
        return [0]  # the empty mask lies inside every other one
    kept: list[int] = []
    by_low: dict[int, list[int]] = {}
    lows = 0
    for m in order:
        hits = m & lows
        while hits:
            low = hits & -hits
            if any(k & ~m == 0 for k in by_low[low]):
                break
            hits ^= low
        else:
            kept.append(m)
            low = m & -m
            by_low.setdefault(low, []).append(m)
            lows |= low
    return kept


class _CoverageKernel:
    """One family's member masks and their incidence list.

    The coverage mask of an edge (bit i set when the edge crosses member i)
    is one XOR of two incidence entries, so a residual query costs one XOR
    and one OR per edge of J plus one pass over the members.  The incidence
    list is built at the first nonempty query.  A query that covers every
    member returns no cores after that OR; otherwise each core's NodeSet is
    built the first time `cores` returns it, and later calls return that
    same object.
    """

    def __init__(self, n: int, masks: Sequence[int]) -> None:
        self.n = n
        self.masks = tuple(masks)
        self._nodesets: dict[int, NodeSet] = {}

    @cached_property
    def inc(self) -> list[int]:
        return incidence(self.n, self.masks)

    def covered(self, edges: Sequence[Edge]) -> int:
        out = 0
        for u, v in edges:
            out |= self.inc[u] ^ self.inc[v]
        return out

    def alive(self, covered: int) -> list[int]:
        """Masks of the members whose bit in `covered` is clear, in order."""
        return [m for i, m in enumerate(self.masks) if not covered >> i & 1]

    def cores(self, edges: Sequence[Edge]) -> list[NodeSet]:
        """Inclusion-minimal members uncovered by `edges`, canonical order."""
        validate_edges(self.n, edges)
        covered = self.covered(edges)
        if covered == (1 << len(self.masks)) - 1:
            return []
        mins = _minimal_masks(self.alive(covered))
        sets = self._nodesets
        for m in mins:
            if m not in sets:
                sets[m] = NodeSet(self.n, m)
        return sorted((sets[m] for m in mins), key=NodeSet.sort_key)


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


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _reachable_residuals(
    kernel: _CoverageKernel, pairs: Sequence[Edge], what: str
) -> dict[int, list[Edge]]:
    """All distinct covered-member masks reachable as unions of per-edge
    coverage masks, each with one representative edge set realizing it."""
    check = f"exhaustive {what} check"
    gen: dict[int, Edge] = {}
    for u, v in pairs:
        cm = kernel.inc[u] ^ kernel.inc[v]
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
                guard(check, "residual families found before stopping", len(reached) + 1, MAX_CLOSURE_SIZE)
                reached[nxt] = base + [edge]
                frontier.append(nxt)
    return reached


def _sampled_edge_sets(pairs: list[Edge], samples: int, seed: int) -> Iterator[list[Edge]]:
    rng = random.Random(seed)
    yield []
    for _ in range(samples - 1):
        k = rng.randint(0, len(pairs))
        yield rng.sample(pairs, k)


def _residuals(
    f: ExplicitFamily, mode: str, samples: int, seed: int, what: str
) -> Iterator[tuple[list[int], list[int], list[Edge]]]:
    """The residual families the checkers scan, each as (alive member
    masks, their cores, a representative edge set on V realizing it).

    Exhaustive mode yields every distinct reachable residual family;
    sampled mode yields the residual of each sampled edge set, the empty
    set first.  Empty residual families are skipped: they have no cores.
    """
    pairs = all_pairs(f.n)
    kernel = _CoverageKernel(f.n, f.masks())
    if mode == "exhaustive":
        guard(f"exhaustive {what} check", "n", f.n, MAX_EXHAUSTIVE_UNIVERSE)
        guard(f"exhaustive {what} check", "|F|", len(f), MAX_EXHAUSTIVE_FAMILY)
        residuals = (
            (kernel.alive(covered), rep)
            for covered, rep in _reachable_residuals(kernel, pairs, what).items()
        )
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        residuals = (
            (kernel.alive(kernel.covered(edges)), edges)
            for edges in _sampled_edge_sets(pairs, samples, seed)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for alive, edges in residuals:
        if alive:
            yield alive, _minimal_masks(alive), edges


def _pliable_pair(a: int, b: int, present: set[int]) -> bool:
    """At least two of A&B, A|B, A-B, B-A are members."""
    # The empty set and the universe are never members, so a derived set
    # equal to either one counts as missing.
    return (a & b in present) + (a | b in present) + (a & ~b in present) + (b & ~a in present) >= 2


def _uncrossable_pair(a: int, b: int, present: set[int]) -> bool:
    """A&B and A|B are members, or A-B and B-A are."""
    return (a & b in present and a | b in present) or (a & ~b in present and b & ~a in present)


def _first_bad_pair(
    masks: Sequence[int], ok: Callable[[int, int, set[int]], bool], what: str
) -> Optional[tuple[int, int]]:
    """First pair (a, b) of `masks`, a before b, with not ok(a, b, present).

    Only overlapping pairs that are not nested are tested: for a disjoint
    or nested pair, A-B and B-A (or A&B and A|B) are the pair itself, so
    both pair properties hold.
    """
    guard(f"exhaustive {what} check", "|F|", len(masks), MAX_PAIR_SCAN_FAMILY)
    present = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            inter = a & b
            if inter and inter != a and inter != b and not ok(a, b, present):
                return a, b
    return None


def _pair_violation(ok, what: str, f: ExplicitFamily) -> Optional[dict]:
    pair = _first_bad_pair(f.masks(), ok, what)
    return None if pair is None else {"a": bits(pair[0]), "b": bits(pair[1])}


def _proper_violation(f: ExplicitFamily) -> Optional[dict]:
    """A member whose complement is missing, or else a split of a member
    into two disjoint nonempty halves neither of which is a member.

    Splits are enumerated per member (members are small at desk scale).
    """
    present = set(f.masks())
    full = (1 << f.n) - 1
    for m in f.masks():
        if full & ~m not in present:
            return {"s": bits(m), "complement": bits(full & ~m)}
    for m in f.masks():
        sub = (m - 1) & m
        while sub:
            if sub not in present and m & ~sub not in present:
                return {"s": bits(m), "a": bits(sub), "b": bits(m & ~sub)}
            sub = (sub - 1) & m
    return None


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
                        "s1": bits(s1),
                        "s2": bits(s2),
                        "core": bits(c),
                        "d": bits(d),
                    }
    return None


def _sparse_violation(
    n: int, alive: list[int], cores: list[int], edges: list[Edge]
) -> Optional[dict]:
    """A residual member crossing two distinct residual cores."""
    full = (1 << n) - 1
    for s in alive:
        crossed = [c for c in cores if _crosses_masks(s, c, full)]
        if len(crossed) >= 2:
            return {
                "edges": [list(e) for e in edges],
                "s": bits(s),
                "core1": bits(crossed[0]),
                "core2": bits(crossed[1]),
            }
    return None


def _residual_violation(
    violation, what: str, f: ExplicitFamily, mode: str, samples: int, seed: int
) -> Optional[dict]:
    """The first violation(n, alive, cores, edges) over `_residuals`."""
    for alive, cores, edges in _residuals(f, mode, samples, seed, what):
        found = violation(f.n, alive, cores, edges)
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class FamilyProperty:
    """One row of PROPERTIES.  An exact property quantifies over members
    only, so every mode decides it and its finder takes the family alone;
    the others' finders take (f, mode, samples, seed).  A
    finder returns the first violation as a JSON-ready dict, or None."""

    name: str  # as CheckResult reports it
    exact: bool
    find: Callable[..., Optional[dict]]


# The family properties `check_family` decides, by the name callers pass.
PROPERTIES: dict[str, FamilyProperty] = {
    "pliable": FamilyProperty("pliable", True, partial(_pair_violation, _pliable_pair, "pliability")),
    "gamma": FamilyProperty(
        "gamma-pliable", False, partial(_residual_violation, _gamma_violation, "gamma-pliability")
    ),
    "sparse": FamilyProperty(
        "sparse", False, partial(_residual_violation, _sparse_violation, "sparseness")
    ),
    "proper": FamilyProperty("proper", True, _proper_violation),
    "uncrossable": FamilyProperty(
        "uncrossable", True, partial(_pair_violation, _uncrossable_pair, "uncrossability")
    ),
}


def check_family(
    f: ExplicitFamily, prop: str, mode: str = "exhaustive", samples: int = 200, seed: int = 0
) -> CheckResult:
    """Decide property `prop`, a key of PROPERTIES, of `f`, with the first
    violation found.  The exact properties (pliable, uncrossable, proper)
    ignore the other arguments and report mode "exhaustive".  gamma and
    sparse range over every edge set on V; only exhaustive mode decides
    them, sampled mode reports "no counterexample found in `samples`
    draws"."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown family property {prop!r}")
    p = PROPERTIES[prop]
    if p.exact:
        found = p.find(f)
        return CheckResult(p.name, found is None, found, "exhaustive")
    found = p.find(f, mode, samples, seed)
    return CheckResult(p.name, found is None, found, mode, samples if mode == "sampled" else 0)


def _max_disjoint_packing(cands: list[int]) -> int:
    """Maximum number of pairwise-disjoint masks, by branch and bound."""
    cands = sorted(cands, key=lambda m: bin(m).count("1"))
    return _packing(cands, 0, 0, 0, 0)


def _packing(cands: list[int], idx: int, used: int, count: int, best: int) -> int:
    """The larger of `best` and the largest packing that extends `count`
    masks of union `used`, taken from cands[:idx], by masks from cands[idx:]."""
    if count + (len(cands) - idx) <= best:
        return best
    if idx == len(cands):
        return max(best, count)
    m = cands[idx]
    if m & used == 0:
        best = _packing(cands, idx + 1, used | m, count + 1, best)
    return _packing(cands, idx + 1, used, count, best)


def crossing_number(f: ExplicitFamily, mode: str = "exhaustive", samples: int = 200, seed: int = 0) -> int:
    """Least beta such that, for every edge set on V, every residual core
    crosses at most beta pairwise disjoint residual members.  Clamped to
    >= 1 so that the result is always a usable ratio parameter.  In sampled
    mode this is only a lower-bound estimate over the sampled residuals.
    """
    full = (1 << f.n) - 1
    best = 0
    for alive, cores, _ in _residuals(f, mode, samples, seed, "crossing-number"):
        for c in cores:
            cands = [s for s in alive if _crosses_masks(c, s, full)]
            if len(cands) > best:  # packing can only be <= len(cands)
                best = max(best, _max_disjoint_packing(cands))
    return max(1, best)


class FamilyOracle:
    """Contract shared by family backends.

    cores(J) returns the inclusion-minimal uncovered members, pairwise
    disjoint for the families this package targets.  Every call re-verifies
    that they are nonempty and pairwise disjoint (hence minimal) and fails
    loudly on a violation instead of letting a bad family corrupt a run;
    checkers never assume either.

    Both backends answer every call from a `_CoverageKernel` over their
    family's incidence list: the explicit backend builds it once per oracle,
    the small-cut backend reads the one its graph builds from a single cut
    scan.
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
        """True when `edges` leave no core.  The answer comes from `cores`,
        so the cores behind every False are validated; on the kernel-backed
        oracles a True costs the edge check and one OR per edge."""
        return not self.cores(edges)

    def contains(self, s: NodeSet) -> bool:
        """True when `s` is a member of the family.

        One `cores` call answers it: a path through s plus a path through
        V - s crosses every set except s and V - s, which are disjoint, so
        s is a member exactly when it is a core of that edge set.  Both
        kernel-backed oracles answer with a lookup in their member masks.
        """
        n = self.universe_size()
        if s.n != n:
            return False
        inside, outside = bits(s.mask), bits(~s.mask & ((1 << n) - 1))
        path = [*zip(inside, inside[1:]), *zip(outside, outside[1:])]
        return any(c.mask == s.mask for c in self.cores(path))

    def _validate_cores(self, cores: list[NodeSet]) -> None:
        seen = 0
        for i, b in enumerate(cores):
            if b.is_empty():
                raise OracleInvariantError("cores not inclusion-minimal: an empty core")
            if b.mask & seen:
                a = next(a for a in cores[:i] if a.mask & b.mask)
                raise OracleInvariantError(
                    f"cores not pairwise disjoint: {sorted(a.members())} and {sorted(b.members())}"
                )
            seen |= b.mask


class ExplicitFamilyOracle(FamilyOracle):
    """Oracle over an explicit member list, which is read once, when the
    oracle is built, into the kernel that answers every call."""

    def __init__(self, family: ExplicitFamily) -> None:
        self.family = family
        self._kernel = _CoverageKernel(family.n, family.masks())

    def universe_size(self) -> int:
        return self.family.n

    def contains(self, s: NodeSet) -> bool:
        return s.n == self.family.n and s.mask in self._kernel.masks

    def _cores_impl(self, edges: Sequence[Edge]) -> list[NodeSet]:
        return self._kernel.cores(edges)
