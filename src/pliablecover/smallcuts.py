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
on J, so `SmallCutsOracle` enumerates the family once per oracle and
derives every residual from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Optional, Sequence

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


def cut_value(h: CapGraph, s: NodeSet) -> Fraction:
    """Total capacity of edges with exactly one endpoint in s."""
    if s.n != h.n:
        raise ValueError("node set over a different universe than the graph")
    total = Fraction(0)
    for u, v, cap in h.edges:
        if edge_crosses_mask(s.mask, u, v):
            total += cap
    return total


def _scaled_int_caps(h: CapGraph) -> tuple[list[tuple[int, int, int]], int]:
    """Capacities scaled to integers by the common denominator (with k)."""
    denom = lcm(h.k.denominator, *(c.denominator for _, _, c in h.edges)) if h.edges else h.k.denominator
    scaled = [(u, v, int(c * denom)) for u, v, c in h.edges]
    return scaled, denom


def _enumerate_cut_masks(h: CapGraph) -> list[tuple[int, int]]:
    """(mask, scaled cut value) for every proper nonempty subset.

    Gray-code order: each step flips one node, so the cut value is updated
    from that node's incidence list only.
    """
    if h.n > MAX_CUT_ENUM_NODES:
        raise GuardError(f"instance too large for cut enumeration: n = {h.n} > {MAX_CUT_ENUM_NODES}")
    scaled, _ = _scaled_int_caps(h)
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for u, v, c in scaled:
        incidence[u].append((v, c))
        incidence[v].append((u, c))
    out: list[tuple[int, int]] = []
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
        for other, c in incidence[bit]:
            inside = bool(mask >> other & 1)
            # edge (bit, other): flipping `bit` toggles whether it crosses
            delta += -c if inside else c
        cut += delta if entering else -delta
        mask ^= 1 << bit
        if mask != full:
            out.append((mask, cut))
    return out


def small_cut_masks(h: CapGraph, j: Sequence[Edge] = ()) -> list[int]:
    """Masks of all S with cut_H(S) < k and d_J(S) = 0."""
    validate_edges(h.n, j)
    _, denom = _scaled_int_caps(h)
    k_scaled = int(h.k * denom)
    out = []
    for mask, cut in _enumerate_cut_masks(h):
        if cut < k_scaled and all(not edge_crosses_mask(mask, u, v) for u, v in j):
            out.append(mask)
    return out


def small_cut_cores(h: CapGraph, j: Sequence[Edge] = ()) -> list[NodeSet]:
    """Inclusion-minimal members of the residual small-cuts family."""
    return _CoverageKernel(h.n, small_cut_masks(h)).cores(j)


def materialize_family(h: CapGraph) -> ExplicitFamily:
    """The small-cuts family as an explicit family (guarded by n)."""
    masks = small_cut_masks(h)
    return ExplicitFamily(h.n, tuple(NodeSet(h.n, m) for m in masks))


def edge_connectivity(h: CapGraph) -> Fraction:
    """Minimum cut value over proper nonempty subsets (0 if disconnected)."""
    _, denom = _scaled_int_caps(h)
    best: Optional[int] = None
    for _, cut in _enumerate_cut_masks(h):
        if best is None or cut < best:
            best = cut
    assert best is not None
    return Fraction(best, denom)


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

    The first `cores` call scans the 2^n cuts once (and raises GuardError
    past MAX_CUT_ENUM_NODES); every call answers from the small cuts found.
    """

    def __init__(self, h: CapGraph) -> None:
        self.h = h
        self._kernel: Optional[_CoverageKernel] = None

    def universe_size(self) -> int:
        return self.h.n

    def _cores_impl(self, edges: Sequence[Edge]) -> list[NodeSet]:
        if self._kernel is None:
            self._kernel = _CoverageKernel(self.h.n, small_cut_masks(self.h))
        return self._kernel.cores(edges)
