"""Families of small cuts of a capacitated graph.

For a graph H with rational capacities and a rational threshold k, the
family of interest is F = {S : 0 < |S| < n, cut_H(S) < k}.  During a run the
residual family is F^J = {S in F : d_J(S) = 0}: a picked edge *covers* a cut
rather than adding capacity to it.  With every picked edge assigned capacity
at least k the two views coincide, which is why the residual family is again
a small-cuts family.

Cut values are computed exactly: capacities are scaled by their common
denominator once, after which everything is integer arithmetic, enumerated
over subsets with Gray-code incremental updates.  The scan does not depend
on J, so it runs once per graph, at the first use of the family or of the
edge connectivity, and every residual is derived from its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, lcm
from typing import Sequence

from .errors import GuardError
from .setfam import (
    Edge,
    ExplicitFamily,
    FamilyOracle,
    NodeSet,
    _CoverageKernel,
    edge_crosses_mask,
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


def _enumerate_cut_masks(h: CapGraph) -> tuple[tuple[int, ...], Fraction]:
    """Masks of all S with cut_H(S) < k, in Gray-code order, and the least
    cut value over proper nonempty subsets (0 if disconnected).

    Capacities are scaled to integers by their common denominator with k.
    Each Gray-code step flips one node, so the cut value is updated from
    that node's neighbour list only.
    """
    if h.n > MAX_CUT_ENUM_NODES:
        raise GuardError(f"instance too large for cut enumeration: n = {h.n} > {MAX_CUT_ENUM_NODES}")
    denom = lcm(h.k.denominator, *(c.denominator for _, _, c in h.edges))
    k_scaled = int(h.k * denom)
    scaled = [(u, v, int(c * denom)) for u, v, c in h.edges]
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for u, v, c in scaled:
        neighbours[u].append((v, c))
        neighbours[v].append((u, c))
    small: list[int] = []
    least = sum(c for _, _, c in scaled)  # no cut exceeds the total capacity
    full = (1 << h.n) - 1
    mask = 0
    cut = 0
    prev_gray = 0
    for g in range(1, 1 << h.n):
        gray = g ^ (g >> 1)
        bit = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        entering = not (mask >> bit & 1)
        delta = 0
        for other, c in neighbours[bit]:
            inside = bool(mask >> other & 1)
            # edge (bit, other): flipping `bit` toggles whether it crosses
            delta += -c if inside else c
        cut += delta if entering else -delta
        mask ^= 1 << bit
        if mask != full:
            if cut < k_scaled:
                small.append(mask)
            if cut < least:
                least = cut
    return tuple(small), Fraction(least, denom)


def small_cut_masks(h: CapGraph, j: Sequence[Edge] = ()) -> list[int]:
    """Masks of all S with cut_H(S) < k and d_J(S) = 0."""
    validate_edges(h.n, j)
    kernel = h._cuts[0]
    return kernel.alive(kernel.covered(j))


def small_cut_cores(h: CapGraph, j: Sequence[Edge] = ()) -> list[NodeSet]:
    """Inclusion-minimal members of the residual small-cuts family."""
    return h._cuts[0].cores(j)


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

    Every call answers from the graph's small cuts, which come from one scan
    of the 2^n cuts per graph, at its first use (GuardError past
    MAX_CUT_ENUM_NODES).
    """

    def __init__(self, h: CapGraph) -> None:
        self.h = h

    def universe_size(self) -> int:
        return self.h.n

    def _cores_impl(self, edges: Sequence[Edge]) -> list[NodeSet]:
        return self.h._cuts[0].cores(edges)
