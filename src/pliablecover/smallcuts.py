"""Families of small cuts of a capacitated graph.

For a graph H with rational capacities and a rational threshold k, the
family of interest is F = {S : 0 < |S| < n, cut_H(S) < k}.  During a run the
residual family is F^J = {S in F : d_J(S) = 0}: a picked edge *covers* a cut
rather than adding capacity to it.  With every picked edge assigned capacity
at least k the two views coincide, which is why the residual family is again
a small-cuts family.

Cut values are computed exactly: capacities are scaled by their common
denominator once, after which everything is integer arithmetic.  The 2^n
cuts come from a meet-in-the-middle table scan: the cut values of one half
of the nodes form a row that is shifted by one precomputed table per step
through the other half's subsets.  The row is one Python integer of
fixed-width lanes, one per subset of the first half: with `total` the sum
of the scaled capacities, a lane is bitlen(3·total + 2) + 1 bits wide and
holds its value plus 2·total, so it is never negative and its top bit, a
guard bit, stays clear.  No lane then carries or borrows into the next, so
each step is one exact big-integer addition or subtraction, and the lanes
below a threshold are found with one subtraction against the guard bits;
only those lanes are read.  The scan does not depend on J, so it runs once
per graph, at the first use of the family or of the edge connectivity.
Its result is an `ExplicitFamily` of the small cuts, and that family
answers every residual query, the stateless `cores(J)` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import guard
from .setfam import (
    ExplicitFamily,
    FamilyOracle,
    NodeSet,
    check_rational,
    edge_crosses_mask,
    over_common_denominator,
    validate_weighted_edges,
)

MAX_CUT_ENUM_NODES = 22


@dataclass(frozen=True)
class CapGraph:
    """Undirected multigraph with rational capacities and threshold k."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    k: Fraction

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("capacitated graph needs at least two nodes")
        validate_weighted_edges(self.n, self.edges, "capacity")
        check_rational(self.k, "threshold k")

    @classmethod
    def build(cls, n: int, edges: Sequence[tuple[int, int, Fraction | int]], k: Fraction | int) -> "CapGraph":
        return cls(n, tuple((u, v, Fraction(c)) for u, v, c in edges), Fraction(k))

    @cached_property
    def _cuts(self) -> tuple[ExplicitFamily, Fraction]:
        """The small cuts as an explicit family, its members in canonical
        order, and the edge connectivity."""
        masks, lam = _enumerate_cut_masks(self)
        return ExplicitFamily(self.n, tuple(NodeSet(self.n, m) for m in masks)), lam


def cut_value(h: CapGraph, s: NodeSet) -> Fraction:
    """Total capacity of edges with exactly one endpoint in s."""
    if s.n != h.n:
        raise ValueError("node set over a different universe than the graph")
    total = Fraction(0)
    for u, v, cap in h.edges:
        if edge_crosses_mask(s.mask, u, v):
            total += cap
    return total


def _indicators(count: int, width: int) -> tuple[list[int], int]:
    """Packed 0/1 tables over the subsets A of range(count), lane A at bits
    A·width up: the i-th table holds 1 in the lanes of the A holding i, and
    the second value holds 1 in every lane.  Each element doubles the lanes,
    the new upper half being the lower half with the element added."""
    tables: list[int] = []
    ones = 1
    for i in range(count):
        shift = width << i
        tables = [x | x << shift for x in tables]
        tables.append(ones << shift)
        ones |= ones << shift
    return tables, ones


def _enumerate_cut_masks(h: CapGraph) -> tuple[tuple[int, ...], Fraction]:
    """Masks of all S with cut_H(S) < k, in ascending order, and the least
    cut value over proper nonempty subsets (0 if disconnected).

    Capacities are scaled to integers by their common denominator with k;
    `total` is their sum.  The nodes split into a low block L = {0..b-1},
    b = ceil(n/2), and a high block R = {b..n-1}; S = A ∪ B with A ⊆ L,
    B ⊆ R has cut(S) = cut(A) + cut(B) - 2·w(A, B).  The row
    c_B[A] = cut(A) - 2·w(A, B) over all A is one integer of 2^b lanes of
    W = bitlen(3·total + 2) + 1 bits, lane A holding c_B[A] + 2·total.
    As -total <= c_B[A] <= total, a lane is never negative and its top bit,
    the guard bit, is always clear, so adding or subtracting packed tables
    lane by lane never carries or borrows across lanes: the big-integer
    arithmetic is exact.  Each packed table is a sum of capacities times
    0/1 tables built by subset-sum doubling: an edge of capacity c adds c to
    cut(A) in the lanes of the A it crosses, and an edge from r to a ∈ L
    adds 2c to 2·w(r, A) in the lanes of the A holding a.

    The subsets B are visited in reflected-binary order, each step adding
    or removing one node r of R, so the row changes by one subtraction or
    addition of r's packed 2·w(r, A).  The lanes below a threshold t
    (0 < t < 2^(W-1)) are the set guard bits of ~((row | G) - t·ONES) & G,
    G the guard bits: setting a guard bit before subtracting t keeps each
    lane's borrow inside it, and the bit survives exactly when the lane is
    at least t.  Only those lanes are read; the guard bits of S = ∅ and
    S = V are masked out.  The least cut starts at the least vertex degree
    and each row is tested against max(k, least) - cut(B), capped at
    3·total + 1, so a lane is read only when it is a small cut or lowers
    the least cut.
    """
    n = h.n
    guard("cut enumeration", "n", n, MAX_CUT_ENUM_NODES)
    (k_scaled, *caps), denom = over_common_denominator([h.k, *(c for _, _, c in h.edges)])
    total = sum(caps)
    width = (3 * total + 2).bit_length() + 1
    b = (n + 1) // 2
    # cut(B) is read once per row, so its table has byte-aligned lanes that
    # unpack by slicing
    size = total.bit_length() // 8 + 1
    low, ones = _indicators(b, width)
    high, _ = _indicators(n - b, 8 * size)
    low += [0] * (n - b)
    high = [0] * b + high
    cut_low = cut_high = 0
    pair_tables = [0] * n  # read for the high nodes only
    deg = [0] * n
    for (u, v, _), c in zip(h.edges, caps):
        cut_low += c * (low[u] ^ low[v])
        cut_high += c * (high[u] ^ high[v])
        pair_tables[u] += 2 * c * low[v]
        pair_tables[v] += 2 * c * low[u]
        deg[u] += c
        deg[v] += c
    pair_tables = pair_tables[b:]
    raw = cut_high.to_bytes(size << (n - b), "little")
    cut_b = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    offset, cap, lane = 2 * total, 3 * total + 1, (1 << width) - 1
    guards = ones << (width - 1)
    row = cut_low + offset * ones
    least = min(deg)
    full_high = (1 << (n - b)) - 1
    small: list[int] = []
    for step in range(full_high + 1):
        bmask = step ^ (step >> 1)  # B, one high node away from the previous B
        if step:
            bit = (step & -step).bit_length() - 1  # the high node that moved
            row = row - pair_tables[bit] if bmask >> bit & 1 else row + pair_tables[bit]
        t = min(max(k_scaled, least) - cut_b[bmask] + offset, cap)
        if t <= 0:
            continue
        hits = ~((row | guards) - t * ones) & guards
        if bmask == 0:
            hits &= ~(1 << (width - 1))  # S = ∅ is not proper
        if bmask == full_high:
            hits &= ~(1 << ((width << b) - 1))  # nor is S = V
        while hits:  # most rows hold no lane below t
            top = hits.bit_length() - 1
            hits ^= 1 << top
            a = top // width
            cut = (row >> a * width & lane) - offset + cut_b[bmask]
            if cut < k_scaled:
                small.append(a | bmask << b)
            least = min(least, cut)
    return tuple(sorted(small)), Fraction(least, denom)


def materialize_family(h: CapGraph) -> ExplicitFamily:
    """The small-cuts family as an explicit family (guarded by n): the one
    the graph's cut scan yields, which answers the oracle's queries, so its
    members are the NodeSets the oracle's cores are."""
    return h._cuts[0]


def edge_connectivity(h: CapGraph) -> Fraction:
    """Minimum cut value over proper nonempty subsets (0 if disconnected)."""
    return h._cuts[1]


def beta_bound(h: CapGraph) -> int:
    """floor((k-1) / ceil((lam+1)/2)) for integer k and integer connectivity
    lam, clamped to >= 1.  Rejects non-integer inputs: the bound's counting
    argument rounds edge counts and has no rational analogue.
    """
    lam = edge_connectivity(h)
    if h.k.denominator != 1 or lam.denominator != 1:
        raise ValueError("beta bound requires integer threshold and integer edge connectivity")
    return max(1, (int(h.k) - 1) // ((int(lam) + 2) // 2))  # (lam + 2) // 2 = ceil((lam + 1) / 2)


class SmallCutsOracle(FamilyOracle):
    """Family oracle backed by cut enumeration rather than an explicit list:
    the family of small cuts (`materialize_family`) answers its queries.
    One exact scan of the 2^n cuts per graph yields that family at the
    first call that needs it (GuardError past MAX_CUT_ENUM_NODES)."""

    def __init__(self, h: CapGraph) -> None:
        self.h = h

    def universe_size(self) -> int:
        return self.h.n

    @property
    def _family(self) -> ExplicitFamily:
        return materialize_family(self.h)
