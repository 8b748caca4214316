"""Set families over a finite universe and their structural checkers.

Universes are ``{0, ..., n-1}`` and node sets are stored as bitmasks, so all
set algebra is integer arithmetic and therefore exact.  `check_family`
decides, for an explicit family, each property in the `PROPERTIES` table
and reports the first violation it finds:

* pliability (every pair of members leaves at least two of the four derived
  sets inside the family) and uncrossability, both by one pair scan,
* properness (symmetric, and no member splits into two non-members),
* the residual-family property we call "gamma" here: for any edge set I and
  nested members S1 < S2 of the residual family F^I, a core of F^I crossing
  both forces S2 - (S1 | C) to be empty or a member of F^I, and
* sparseness (no member of F^I crosses two distinct cores of F^I).

`crossing_number` computes the least beta such that in every residual
family every core crosses at most beta pairwise disjoint members.

An `ExplicitFamily` owns the one coverage kernel over its members
(`kernel`), and `FamilyOracle` answers every residual query from one.

The quantifier "for any edge set I" ranges over every edge set on V, yet
the checks list no residual family.  Fix the sets a violation names:
(S1, S2, C) for gamma, (S, C1, C2) for sparseness, (C, P1..Pr) for the
crossing number, and let I* be every node pair that crosses none of them.
An I that shows the violation crosses none of them, so I lies inside I*,
and F^{I*} is a subfamily of F^I that still holds the named sets: C stays
minimal, and a missing D stays missing.  So a violation exists at some I
exactly when it exists at I*.  The named sets cut V into atoms, and F^{I*}
is the members that are unions of atoms: C is a core of F^{I*} exactly
when no member strictly inside C is a union of the atoms inside C, and
D = S2 - (S1 | C), an atom, is in F^{I*} exactly when it is in F.  Each
check is then a scan over member tuples, exact at any n, and a reported
counterexample carries as `edges` a path through each atom, whose residual
family is F^{I*}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from math import lcm
from operator import index, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import Budget, OracleInvariantError, UniverseMismatchError

# The class checks charge the "class check" budget for the candidate tuples
# they examine: member pairs, then triples or packing branches.  A packing
# search stopping at its limit takes about 5 s, a pair or triple scan
# 0.3-1 s (2 vCPU, CPython 3.11).


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
        """The set of `members`, duplicates and order ignored.  Its sorted
        tuple is kept, so `members()` walks no bits; a bool or other int
        subclass is stored as its int value."""
        vals = list(map(index, members))
        ordered = sorted(set(vals))
        if ordered and (ordered[0] < 0 or ordered[-1] >= n):
            bad = next(v for v in vals if not 0 <= v < n)
            raise ValueError(f"node {bad} outside universe of size {n}")
        s = cls(n, sum(map((1).__lshift__, ordered)))
        s.__dict__["_members"] = tuple(ordered)
        return s

    def members(self) -> tuple[int, ...]:
        """Sorted members, computed at the first call (or kept by
        `from_members`) and then cached."""
        return self._members

    @cached_property
    def _members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def sort_key(self) -> tuple[int, ...]:
        # Canonical order used everywhere: lexicographic on sorted members.
        return self.members()

    def __len__(self) -> int:
        return self.mask.bit_count()

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
    """Edge sets are lists of (u, v) pairs of int nodes (a bool is refused,
    as in JSON input); loops are rejected, parallel copies are allowed and
    count with multiplicity."""
    for u, v in edges:
        if type(u) is not int or type(v) is not int:  # plain ints skip the full test
            if isinstance(u, bool) or isinstance(v, bool) or not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside universe of size {n}")
        if u == v:
            raise ValueError(f"edge ({u},{v}) is a loop")


def check_rational(x: object, what: str) -> None:
    """Refuse anything but an exact rational, an int (not a bool) or a
    Fraction: a float would make every sum over it inexact."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")


def validate_weighted_edges(n: int, edges: Sequence[tuple[int, int, Fraction]], weight: str) -> None:
    """`validate_edges`, and every weight an exact rational >= 0; the error
    for a bad weight names its edge."""
    validate_edges(n, [(u, v) for u, v, _ in edges])
    for u, v, w in edges:
        if type(w) is not Fraction:
            check_rational(w, f"{weight} on edge ({u},{v})")
        if w.numerator < 0:  # the denominator is positive
            raise ValueError(f"negative {weight} on edge ({u},{v})")


def edge_crosses_mask(mask: int, u: int, v: int) -> bool:
    return (mask >> u & 1) != (mask >> v & 1)


def coverage(s: NodeSet, edges: Sequence[Edge]) -> int:
    """d_J(S): number of edges with exactly one endpoint in S (multiplicity counts)."""
    return sum(1 for u, v in edges if edge_crosses_mask(s.mask, u, v))


def member_incidence(n: int, sets: Iterable[NodeSet]) -> list[int]:
    """Per vertex, the bitmask of the indexes of the sets holding it, read
    from their member tuples.

    Edge (u, v) crosses set i exactly when bit i of inc[u] ^ inc[v] is set.
    This holds for any list of sets, overlapping or repeated ones included.
    """
    inc = [0] * n
    for i, s in enumerate(sets):
        bit = 1 << i
        for v in s.members():
            inc[v] |= bit
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


def covered_masks(inc: Sequence[int], edges: Iterable[Edge]) -> tuple[int, int]:
    """Bitmasks of the sets behind the incidence list `inc` that `edges`
    cross at least once and at least twice (multiplicity counts)."""
    once = twice = 0
    for u, v in edges:
        c = inc[u] ^ inc[v]
        twice |= once & c
        once |= c
    return once, twice


@dataclass(frozen=True)
class ExplicitFamily:
    """A finite family of distinct node sets, none empty and none the full universe.

    Members are kept in canonical order (lexicographic on sorted member
    lists) so that identical families serialize identically.  `kernel` is
    the one coverage kernel over them, built at its first use.
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
                raise ValueError(f"duplicate family member {list(s.members())}")
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
        return s.n == self.n and s.mask in self.kernel.index

    def masks(self) -> tuple[int, ...]:
        return self.kernel.masks

    @cached_property
    def kernel(self) -> "_CoverageKernel":
        return _CoverageKernel(self.n, self.members)


class _CoverageKernel:
    """One family's members (`sets`, in canonical order, with their masks)
    and their incidence list; `ExplicitFamily.kernel` is the one builder.

    The coverage mask of an edge (bit i set when the edge crosses member i)
    is one XOR of two incidence entries.  `residual(J)` is the one query:
    one pass over J gives the members it covers, and the cores are
    `least(0, alive)`.  A J that covers every member leaves no candidate,
    so that answer costs the pass alone.  A walk of the bits of a mask over
    the members lists them in canonical order.

    `root` is `residual(())`; residuals are immutable (see
    `_KernelResidual`), so one per kernel serves every run.  The holders of
    member i (the members that contain it, itself included: the AND of
    `inc` over i's nodes) are computed the first time `least` asks for them
    and then kept, so no per-family index is built up front.
    """

    def __init__(self, n: int, sets: Sequence[NodeSet]) -> None:
        self.n = n
        self.sets = tuple(sets)
        self.masks = tuple(s.mask for s in self.sets)
        self._holders: dict[int, int] = {}

    @cached_property
    def inc(self) -> list[int]:
        return member_incidence(self.n, self.sets)

    @cached_property
    def index(self) -> dict[int, int]:
        """Member id by mask."""
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def root(self) -> "_KernelResidual":
        return self.residual(())

    def residual(self, edges: Sequence[Edge]) -> "_KernelResidual":
        """The residual of the edge multiset `edges`, built in one step."""
        validate_edges(self.n, edges)
        alive = ~covered_masks(self.inc, edges)[0] & ((1 << len(self.masks)) - 1)
        return _KernelResidual(self, alive, self.least(0, alive))

    def holders(self, i: int) -> int:
        """Bitmask of the members that contain member i, i included."""
        out = self._holders.get(i)
        if out is None:
            out = -1
            inc = self.inc
            for v in self.sets[i].members():
                out &= inc[v]
            self._holders[i] = out
        return out

    def least(self, kept: int, cands: int, blocked: int = 0) -> int:
        """The members of `kept`, plus the members of `cands` outside
        `blocked` (the members that hold a member of `kept`, 0 when there
        is none) that contain no smaller kept candidate.

        Candidates are taken by popcount: a member strictly inside another
        is smaller, so it is decided first and then blocks its holders.
        """
        if not cands:
            return kept
        masks = self.masks
        for j in sorted(bits(cands & ~blocked), key=lambda j: masks[j].bit_count()):
            if not blocked >> j & 1:
                kept |= 1 << j
                blocked |= self.holders(j)
        return kept


def _count_up(planes: list[int], members: int) -> None:
    """Add 1, in place, to the counter of each member in the bitmask
    `members`.  The counters are bit planes: bit j of plane b is bit b of
    member j's count, so a whole mask is counted by one carry pass."""
    for b, p in enumerate(planes):
        planes[b] = p ^ members
        members &= p  # the carry
        if not members:
            return
    planes.append(members)


def _count_down(planes: list[int], members: int) -> None:
    """Subtract 1, in place, from the counter of each member in `members`;
    each is positive (see `_count_up`)."""
    for b, p in enumerate(planes):
        planes[b] = p ^ members
        members &= ~p  # the borrow
        if not members:
            return


class _KernelResidual:
    """The residual of an edge multiset J, as bitmasks over the members of
    one `_CoverageKernel`: the members J leaves uncovered (`alive`) and the
    cores.  `_CoverageKernel.residual` builds one from J in one step; `add`
    derives the next one from this one.  Immutable: `add` returns a new
    residual and leaves this one as it was.

    `add(e)`: F^{J+e} is F^J less the members e crosses.  A core that e
    misses stays a minimal member.  A new core m is a member of F^J but
    not one of its cores, so m holds a core of F^J, and that core must be
    one e covers ("killed"), or m would not be minimal.  So the new cores
    are the kept cores plus the minimal alive holders of a killed core that
    hold no kept core.  The members that hold a kept core are read from
    per-member counts of the cores each one holds, carried from residual
    to residual and updated by the killed and the new cores alone, so an
    `add` costs no walk of the kept cores.

    `core_sets()` lists the cores unvalidated, by a walk of the core bits,
    as `analyze_trace` reads them; `cores` is that listing after one
    `_validate_cores` check of the core masks, and the stateless `cores(J)`
    reads it.  A residual made by `add` from one that holds its validated
    tuple derives its own from it (`_derive_cores`).
    """

    __slots__ = ("_kernel", "alive", "_core_bits", "_cores", "_span", "_held")

    def __init__(
        self,
        kernel: _CoverageKernel,
        alive: int,
        core_bits: int,
        cores: tuple[NodeSet, ...] | None = None,
        span: int = 0,
        held: list[int] | None = None,
    ) -> None:
        self._kernel = kernel
        self.alive = alive
        self._core_bits = core_bits
        self._cores = cores
        self._span = span  # the union of `_cores`, once that is set
        self._held = held  # per member, how many cores it holds (`_held_counts`)

    def core_sets(self) -> list[NodeSet]:
        """The cores in canonical order, unvalidated."""
        return [self._kernel.sets[i] for i in bits(self._core_bits)]

    @property
    def cores(self) -> tuple[NodeSet, ...]:
        """The cores in canonical order, validated as `FamilyOracle.cores` is."""
        if self._cores is None:
            self._span = _validate_cores([self._kernel.masks[i] for i in bits(self._core_bits)])
            self._cores = tuple(self.core_sets())
        return self._cores

    def _held_counts(self) -> list[int]:
        """Per member, how many cores it holds, as bit planes (`_count_up`),
        counted from the cores when first asked; an `add` with candidates
        derives the child's from a copy, by the killed and the new cores
        alone.  Never changed once set."""
        if self._held is None:
            held: list[int] = []
            for i in bits(self._core_bits):
                _count_up(held, self._kernel.holders(i))
            self._held = held
        return self._held

    def add(self, u: int, v: int) -> "_KernelResidual":
        k = self._kernel
        if not (type(u) is int and type(v) is int and 0 <= u < k.n and 0 <= v < k.n and u != v):
            validate_edges(k.n, ((u, v),))  # refuses a bad edge, naming it
        c = k.inc[u] ^ k.inc[v]
        alive = self.alive & ~c
        killed = self._core_bits & c
        if not killed:
            return _KernelResidual(k, alive, self._core_bits, self._cores, self._span, self._held)
        holders = 0
        for i in bits(killed):
            holders |= k.holders(i)
        kept = self._core_bits & ~c
        cands = alive & holders
        if not cands:  # no new core; the child counts its cores when asked
            child = _KernelResidual(k, alive, kept)
        else:
            held = self._held_counts().copy()
            for i in bits(killed):
                _count_down(held, k.holders(i))
            blocked = 0  # the members of nonzero count: they hold a kept core
            for plane in held:
                blocked |= plane
            core_bits = k.least(kept, cands, blocked)
            for j in bits(core_bits & ~kept):
                _count_up(held, k.holders(j))
            child = _KernelResidual(k, alive, core_bits, held=held)
        if self._cores is not None:
            child._derive_cores(self, killed)
        return child

    def _derive_cores(self, parent: "_KernelResidual", killed: int) -> None:
        """Set the validated tuple from the parent's: less its `killed`
        cores, plus the new ones, each placed by its rank among the core
        bits below its index.

        The parent's cores are nonempty and pairwise disjoint, so the whole
        tuple passes `_validate_cores` exactly when the new cores are
        nonempty and disjoint from the kept ones and from each other.  When
        they are not, no tuple is set, and `cores` refuses at the same step.
        """
        k = self._kernel
        masks = k.masks
        gone = 0
        for i in bits(killed):
            gone |= masks[i]
        new = bits(self._core_bits & ~parent._core_bits)
        span = _disjoint_union((masks[i] for i in new), parent._span & ~gone)
        if span is None:
            return
        cores = list(parent._cores)
        for i in reversed(bits(killed)):  # from the top, so lower ranks stay put
            del cores[(parent._core_bits & ((1 << i) - 1)).bit_count()]
        for i in new:  # from the bottom, so each rank counts the cores placed below it
            cores.insert((self._core_bits & ((1 << i) - 1)).bit_count(), k.sets[i])
        self._cores = tuple(cores)
        self._span = span


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a family checker run: whether the property holds, and the
    first violation found when it does not."""

    property_name: str
    holds: bool
    counterexample: Optional[dict]


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _atoms(whole: int, named: Iterable[int]) -> list[int]:
    """The atoms the masks `named` cut `whole` into: its nonempty classes of
    "on the same side of every named set"."""
    atoms = [whole]
    for s in named:
        atoms = [a for p in atoms for a in (p & s, p & ~s) if a]
    return atoms


def _stays_core(c: int, named: Sequence[int], inner: Sequence[int]) -> bool:
    """C is a core of F^{I*} for the sets `named` with it: no member strictly
    inside C (`inner`) is a union of the atoms they cut C into."""
    atoms = _atoms(c, named)
    return not any(all(m & a in (0, a) for a in atoms) for m in inner)


def _partners(n: int, masks: Sequence[int], steps: Budget) -> tuple[list[int], list[list[int]]]:
    """Per member C, as a bitmask over member indexes, the members S that
    cross C and keep C a core when named with it alone (neither C & S nor
    C - S is a member); and the list of members strictly inside C.  Every set
    a violation names next to a core C is among C's partners: C & S and
    C - S are unions of atoms of any sets that name S."""
    full = (1 << n) - 1
    present = set(masks)
    partners, inner = [], []
    for c in masks:
        steps.take(len(masks))
        found, inside = 0, []
        for j, s in enumerate(masks):
            if s & ~c == 0:
                if s != c:
                    inside.append(s)
            elif _crosses_masks(c, s, full) and c & s not in present and c & ~s not in present:
                found |= 1 << j
        partners.append(found)
        inner.append(inside)
    return partners, inner


def _counterexample(n: int, named: dict[str, int]) -> dict:
    """The named sets as member lists, with `edges`: a path through each atom
    they cut V into.  Those edges cross exactly the sets that are not unions
    of atoms, so their residual family is F^{I*}."""
    out: dict = {key: bits(m) for key, m in named.items()}
    atoms = [bits(a) for a in _atoms((1 << n) - 1, named.values())]
    out["edges"] = sorted([u, v] for a in atoms for u, v in zip(a, a[1:]))
    return out


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
    steps = Budget(f"exhaustive {what} check", "class check")
    present = set(masks)
    for i, a in enumerate(masks):
        steps.take(len(masks) - i - 1)
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


def _gamma_violation(f: ExplicitFamily) -> Optional[dict]:
    """The first (C, S1, S2), C in member order and S1, S2 in C's partner
    order, with S1 strictly inside S2, D = S2 - (S1 | C) nonempty and not a
    member, and C still a core once S1 and S2 are named (D is an atom, so
    it is in F^{I*} exactly when it is in F)."""
    masks = f.masks()
    present = set(masks)
    steps = Budget("exhaustive gamma-pliability check", "class check")
    partners, inner = _partners(f.n, masks, steps)
    for c, found, inside in zip(masks, partners, inner):
        ss = [masks[j] for j in bits(found)]
        for s1 in ss:
            steps.take(len(ss))
            for s2 in ss:
                if s1 & ~s2 or s1 == s2:
                    continue  # need S1 strictly inside S2
                d = s2 & ~(s1 | c)
                if d and d not in present and _stays_core(c, (s1, s2), inside):
                    return _counterexample(f.n, {"s1": s1, "s2": s2, "core": c, "d": d})
    return None


def _sparse_violation(f: ExplicitFamily) -> Optional[dict]:
    """The first pair of members C1 before C2 and the first S among their
    common partners with both still cores once S and the other are named."""
    masks = f.masks()
    steps = Budget("exhaustive sparseness check", "class check")
    partners, inner = _partners(f.n, masks, steps)
    live = [i for i, found in enumerate(partners) if found]
    for k, i in enumerate(live):
        steps.take(len(live) - k)
        for j in live[k + 1 :]:
            common = partners[i] & partners[j]
            if not common:
                continue
            c1, c2 = masks[i], masks[j]
            steps.take(common.bit_count())
            for s in (masks[x] for x in bits(common)):
                if _stays_core(c1, (s, c2), inner[i]) and _stays_core(c2, (s, c1), inner[j]):
                    return _counterexample(f.n, {"s": s, "core1": c1, "core2": c2})
    return None


@dataclass(frozen=True)
class FamilyProperty:
    """One row of PROPERTIES: the name CheckResult reports, and a finder
    that returns the family's first violation as a JSON-ready dict, or
    None."""

    name: str
    find: Callable[[ExplicitFamily], Optional[dict]]


# The family properties `check_family` decides, by the name callers pass.
PROPERTIES: dict[str, FamilyProperty] = {
    "pliable": FamilyProperty("pliable", partial(_pair_violation, _pliable_pair, "pliability")),
    "gamma": FamilyProperty("gamma-pliable", _gamma_violation),
    "sparse": FamilyProperty("sparse", _sparse_violation),
    "proper": FamilyProperty("proper", _proper_violation),
    "uncrossable": FamilyProperty("uncrossable", partial(_pair_violation, _uncrossable_pair, "uncrossability")),
}


def check_family(f: ExplicitFamily, prop: str) -> CheckResult:
    """Decide property `prop`, a key of PROPERTIES, of `f`, with the first
    violation found."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown family property {prop!r}")
    p = PROPERTIES[prop]
    found = p.find(f)
    return CheckResult(p.name, found is None, found)


def _max_disjoint_packing(cands: Sequence[int], core: int, inner: Sequence[int], best: int, steps: Budget) -> int:
    """The larger of `best` and the most pairwise-disjoint `cands` that keep
    `core` a core: no mask of `inner` a union of the atoms they cut it into.

    A search node keeps the masks of `inner` that every pick so far leaves
    whole or untouched; any other one is split by a pick's atom for good.
    A pick P splits the rest of the core, R, into R & P and R - P, so a kept
    mask becomes a union of atoms exactly when it leaves both whole or
    untouched, and then every extension fails as well: the search stops.
    """
    stack = [(0, 0, 0, tuple(inner))]  # (next candidate, union of picks, picks, kept masks)
    while stack:
        start, used, count, kept = stack.pop()
        steps.take(1)
        best = max(best, count)
        for j in range(len(cands) - 1, start - 1, -1):
            p = cands[j]
            if p & used or count + len(cands) - j <= best:
                continue
            part, rest = core & p, core & ~(used | p)
            still = tuple(m for m in kept if m & part in (0, part))
            if not any(m & rest in (0, rest) for m in still):
                stack.append((j + 1, used | p, count + 1, still))
    return best


def crossing_number(f: ExplicitFamily) -> int:
    """Least beta such that, for every edge set on V, every residual core
    crosses at most beta pairwise disjoint residual members.  Clamped to
    >= 1 so that the result is always a usable ratio parameter.

    For each member C, the largest packing of its partners that keeps C a
    core of F^{I*}: adding a set only refines the atoms, so a branch stops
    once a member strictly inside C becomes a union of atoms.
    """
    masks = f.masks()
    steps = Budget("exhaustive crossing-number check", "class check")
    partners, inner = _partners(f.n, masks, steps)
    best = 0
    for c, found, inside in zip(masks, partners, inner):
        if found.bit_count() > best:  # a packing is at most that large
            cands = sorted((masks[j] for j in bits(found)), key=int.bit_count)
            best = _max_disjoint_packing(cands, c, inside, best, steps)
    return max(1, best)


def _validate_cores(masks: Sequence[int]) -> int:
    """Refuse a list of core masks, in canonical order, that are not
    nonempty and pairwise disjoint; return their union."""
    seen = 0
    for i, b in enumerate(masks):
        if not b:
            raise OracleInvariantError("cores not inclusion-minimal: an empty core")
        if b & seen:
            a = next(a for a in masks[:i] if a & b)
            raise OracleInvariantError(f"cores not pairwise disjoint: {bits(a)} and {bits(b)}")
        seen |= b
    return seen


def _disjoint_union(masks: Iterable[int], seen: int = 0) -> int | None:
    """The union of `seen` and `masks` when the masks are nonempty, pairwise
    disjoint and disjoint from `seen`, else None: `_validate_cores`'s test
    on masks, without its error."""
    for m in masks:
        if not m or m & seen:
            return None
        seen |= m
    return seen


class FamilyOracle:
    """The family oracle: one coverage kernel answers every query.

    cores(J) returns the inclusion-minimal uncovered members in canonical
    order.  Every call re-verifies that they are nonempty and pairwise
    disjoint (hence minimal) and fails loudly on a violation instead of
    letting a bad family corrupt a run; checkers never assume either.
    residual() is the same query made incremental: an immutable residual of
    the empty edge set, whose `cores` answer for its J and whose
    `add(u, v)` returns the residual of J plus one copy of (u, v).
    reverse_delete(J) walks J from its last edge to its first, drops each
    edge whose removal leaves the kept edges covering the family, and
    returns the dropped positions, descending; J is inclusion-minimal
    exactly when it drops none, which is how `certify` checks a solution.

    A backend supplies `_kernel`, the `ExplicitFamily.kernel` of its
    family, and a `universe_size` that builds no kernel: the explicit
    backend reads its member list, the small-cut backend the family of its
    graph's one cut scan.  A wrapper sets `inner` instead, and every query
    it does not override is answered by `inner`'s kernel.
    """

    inner: Optional["FamilyOracle"] = None  # the oracle a wrapper wraps

    @property
    def _kernel(self) -> _CoverageKernel:
        return self._wrapped()._kernel

    def _wrapped(self) -> "FamilyOracle":
        if self.inner is None:
            raise NotImplementedError(
                f"{type(self).__name__} sets neither `_kernel` nor `inner`: a FamilyOracle backend "
                "supplies a coverage kernel, and a wrapper sets `inner` to the oracle it wraps"
            )
        return self.inner

    def universe_size(self) -> int:
        return self._wrapped().universe_size()

    def cores(self, edges: Sequence[Edge]) -> list[NodeSet]:
        return list(self._kernel.residual(edges).cores)

    def is_covered(self, edges: Sequence[Edge]) -> bool:
        """True when `edges` leave no core, by `cores`, so the cores behind
        every False are validated."""
        return not self.cores(edges)

    def residual(self) -> _KernelResidual:
        return self._kernel.root

    def contains(self, s: NodeSet) -> bool:
        """True when `s` is a member of the family."""
        return s.n == self.universe_size() and s.mask in self._kernel.index

    def reverse_delete(self, edges: Sequence[Edge]) -> list[int]:
        """One pass over J, counting per member, as bit planes
        (`_count_up`), the kept edges that cross it.  The kept edges less e
        leave the members J leaves plus those only e crosses: they cover
        when there are none, else their cores are checked on their masks.
        A dropped edge counts down the members it crosses."""
        k = self._kernel
        edges = list(edges)
        validate_edges(k.n, edges)
        inc, masks = k.inc, k.masks
        planes: list[int] = []  # per member, how many kept edges cross it
        for u, v in edges:
            _count_up(planes, inc[u] ^ inc[v])
        # A drop leaves every member it touches crossed, so `alive` is fixed.
        alive = ~reduce(or_, planes, 0) & ((1 << len(masks)) - 1)
        twice = reduce(or_, planes[1:], 0)
        dropped = []
        for i in range(len(edges) - 1, -1, -1):
            u, v = edges[i]
            c = inc[u] ^ inc[v]
            left = alive | (c & ~twice)  # the members the kept edges less e leave
            if left:
                _validate_cores([masks[j] for j in bits(k.least(0, left))])
            else:
                dropped.append(i)
                _count_down(planes, c)
                twice = reduce(or_, planes[1:], 0)
        return dropped


class ExplicitFamilyOracle(FamilyOracle):
    """Oracle over an explicit member list, answered by the family's one
    kernel (`ExplicitFamily.kernel`)."""

    def __init__(self, family: ExplicitFamily) -> None:
        self.family = family

    def universe_size(self) -> int:
        return self.family.n

    @cached_property
    def _kernel(self) -> _CoverageKernel:
        return self.family.kernel
