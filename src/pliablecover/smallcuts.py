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
through the other half's subsets, so each subset costs O(1) list work.
The scan does not depend on J, so it runs once per graph, at the first use
of the family or of the edge connectivity, and every residual is derived
from its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil
from operator import add, sub
from typing import Sequence

from .errors import guard
from .setfam import (
    Edge,
    ExplicitFamily,
    FamilyOracle,
    NodeSet,
    _CoverageKernel,
    _KernelResidual,
    edge_crosses_mask,
    over_common_denominator,
    validate_edges,
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
        validate_edges(self.n, [(u, v) for u, v, _ in self.edges])
        for u, v, cap in self.edges:
            if cap < 0:
                raise ValueError(f"negative capacity on edge ({u},{v})")

    @classmethod
    def build(cls, n: int, edges: Sequence[tuple[int, int, Fraction | int]], k: Fraction | int) -> "CapGraph":
        return cls(n, tuple((u, v, Fraction(c)) for u, v, c in edges), Fraction(k))

    @cached_property
    def _cuts(self) -> tuple[_CoverageKernel, Fraction]:
        """The small cuts' coverage kernel and the edge connectivity."""
        masks, lam = _enumerate_cut_masks(self)
        return _CoverageKernel(self.n, masks), lam


def cut_value(h: CapGraph, s: NodeSet) -> Fraction:
    """Total capacity of edges with exactly one endpoint in s."""
    if s.n != h.n:
        raise ValueError("node set over a different universe than the graph")
    total = Fraction(0)
    for u, v, cap in h.edges:
        if edge_crosses_mask(s.mask, u, v):
            total += cap
    return total


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """Sum of the chosen weights for every subset, indexed by subset mask."""
    table = [0]
    for weight in weights:
        table += [x + weight for x in table]
    return table


def _cut_table(w: list[list[int]], nodes: Sequence[int]) -> list[int]:
    """cut(A) in the whole graph for every A of `nodes`, indexed by A's mask
    over `nodes`: adding node u to A ⊆ nodes[:i] adds deg(u) - 2·w(u, A)."""
    table = [0]
    for i, u in enumerate(nodes):
        inner = _subset_sums([2 * w[u][v] for v in nodes[:i]])
        deg = sum(w[u])
        table += [x + deg - y for x, y in zip(table, inner)]
    return table


def _enumerate_cut_masks(h: CapGraph) -> tuple[tuple[int, ...], Fraction]:
    """Masks of all S with cut_H(S) < k, in ascending order, and the least
    cut value over proper nonempty subsets (0 if disconnected).

    Capacities are scaled to integers by their common denominator with k.
    The nodes split into a low block L = {0..b-1}, b = ceil(n/2), and a
    high block R = {b..n-1}; S = A ∪ B with A ⊆ L, B ⊆ R has
    cut(S) = cut(A) + cut(B) - 2·w(A, B).  The subsets B are visited in
    reflected-binary order, each step adding or removing one node r of R,
    so the row c_B[A] = cut(A) - 2·w(A, B) over all A changes by r's table
    2·w(r, A) alone; the row is then filtered against k - cut(B).
    """
    n = h.n
    guard("cut enumeration", "n", n, MAX_CUT_ENUM_NODES)
    (k_scaled, *caps), denom = over_common_denominator([h.k, *(c for _, _, c in h.edges)])
    w = [[0] * n for _ in range(n)]
    for (u, v, _), scaled in zip(h.edges, caps):
        w[u][v] += scaled
        w[v][u] += scaled
    b = (n + 1) // 2
    low, high = range(b), range(b, n)
    row = _cut_table(w, low)
    cut_high = _cut_table(w, high)
    pair_tables = [_subset_sums([2 * w[u][a] for a in low]) for u in high]
    full_high = (1 << len(high)) - 1
    rows: list[list[int]] = [[]] * (full_high + 1)
    row_least: list[int] = []
    for step in range(full_high + 1):
        bmask = step ^ (step >> 1)  # B, one high node away from the previous B
        if step:
            bit = (step & -step).bit_length() - 1  # the high node that moved
            row = list(map(sub if bmask >> bit & 1 else add, row, pair_tables[bit]))
        start = 1 if bmask == 0 else 0  # S = ∅ is not proper
        stop = len(row) - 1 if bmask == full_high else len(row)  # nor is S = V
        row_min = min(row[start:stop])
        cut_b = cut_high[bmask]
        row_least.append(row_min + cut_b)
        threshold = k_scaled - cut_b
        if row_min < threshold:  # most rows hold no small cut
            rows[bmask] = [a | bmask << b for a, x in enumerate(row) if x < threshold]
    # ∅ and V (cut 0) sort first and last; they are not proper subsets
    small = [m for r in rows for m in r]
    if small and small[0] == 0:
        small.pop(0)
    if small and small[-1] == (1 << n) - 1:
        small.pop()
    return tuple(small), Fraction(min(row_least), denom)


def materialize_family(h: CapGraph) -> ExplicitFamily:
    """The small-cuts family as an explicit family (guarded by n)."""
    return ExplicitFamily(h.n, tuple(NodeSet(h.n, m) for m in h._cuts[0].masks))


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
    k = int(h.k)
    lam_i = int(lam)
    denom = ceil((lam_i + 1) / 2)
    return max(1, (k - 1) // denom)


class SmallCutsOracle(FamilyOracle):
    """Family oracle backed by cut enumeration rather than an explicit list.

    Every call answers from the graph's small cuts, which come from one
    blocked table scan of the 2^n cuts per graph, at its first use
    (GuardError past MAX_CUT_ENUM_NODES).
    """

    def __init__(self, h: CapGraph) -> None:
        self.h = h

    def universe_size(self) -> int:
        return self.h.n

    def contains(self, s: NodeSet) -> bool:
        return s.n == self.h.n and s.mask in self.h._cuts[0].masks

    def residual(self) -> _KernelResidual:
        return self.h._cuts[0].root

    def _cores_impl(self, edges: Sequence[Edge]) -> list[NodeSet]:
        return self.h._cuts[0].cores(edges)
