"""Witness sets: one family member per cover edge, laminar across edges.

For an inclusion-minimal cover I of a family F, each edge e in I must cover
some member uniquely (otherwise I minus e would still cover F).  Those
uniquely-covered members are e's witness candidates.  `laminar_witness`
searches for one candidate per edge such that the chosen sets are pairwise
non-crossing; the search is deterministic, so the first assignment found is
the lexicographically least under the canonical candidate order.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import Budget, CoverNotMinimalError, NoLaminarWitnessError
from .setfam import Edge, ExplicitFamily, NodeSet, bits, covered_masks, validate_edges


def laminar_tree(sets: Sequence[NodeSet]) -> tuple[list[int | None], dict[int, int]] | None:
    """Containment tree of the sets, or None when two of them cross.

    Returns (parents, holder): parents[i] indexes the smallest set strictly
    containing sets[i] (None when no set does, and for an empty set; a
    repeated set gets another copy), and holder[v] the smallest set
    containing vertex v.  The sets are visited by decreasing size.  If
    those visited so far are laminar, each one that meets the next set S
    contains it, so all of S's members share one holder, S's parent; members
    with two holders (one may be none) mean S crosses a larger set.  Time is
    linear in the total size of the sets, plus the sort.
    """
    parents: list[int | None] = [None] * len(sets)
    holder: dict[int, int] = {}
    for i in sorted(range(len(sets)), key=lambda i: len(sets[i]), reverse=True):
        members = sets[i].members()
        owners = {holder.get(v) for v in members}
        if len(owners) > 1:
            return None
        if owners:
            parents[i] = owners.pop()
        for v in members:
            holder[v] = i
    return parents, holder


def witness_candidates(f: ExplicitFamily, cover: Sequence[Edge]) -> list[tuple[NodeSet, ...]]:
    """Per-edge candidates: members covered by exactly that edge of the cover.

    Candidate lists are in canonical set order and are disjoint across edges
    by construction.  Raises CoverNotMinimalError when some edge has no
    candidate, and ValueError when the edges do not even cover the family.
    """
    validate_edges(f.n, cover)
    inc = f.kernel.inc
    crossed = [inc[u] ^ inc[v] for u, v in cover]
    once, twice = covered_masks(inc, cover)
    uncovered = ~once & ((1 << len(f)) - 1)
    if uncovered:
        s = f.members[bits(uncovered)[0]]
        raise ValueError(f"edges do not cover the family: {list(s.members())} is uncovered")
    cands = [tuple(f.members[i] for i in bits(x & ~twice)) for x in crossed]
    for i, lst in enumerate(cands):
        if not lst:
            raise CoverNotMinimalError(i)
    return cands


def laminar_witness(f: ExplicitFamily, cover: Sequence[Edge]) -> tuple[NodeSet, ...]:
    """Pick one witness per cover edge so the picked sets form a laminar family.

    Depth-first over edges in position order, candidates in canonical order,
    pruning as soon as a crossing appears; the first complete assignment is
    returned.  Each candidate tried charges one unit of the "witness"
    budget.  Raises NoLaminarWitnessError when no assignment exists.
    """
    cands = witness_candidates(f, cover)
    budget = Budget("exhaustive witness search", "witness")
    chosen: list[NodeSet] = []
    untried: list[Iterator[NodeSet]] = []  # per edge reached, its candidates not yet tried
    while len(chosen) < len(cands):
        if len(untried) == len(chosen):
            untried.append(iter(cands[len(chosen)]))
        for s in untried[-1]:
            budget.take()
            if all((s.mask & t.mask) in (0, s.mask, t.mask) for t in chosen):
                chosen.append(s)
                break
        else:
            if not chosen:
                raise NoLaminarWitnessError("no laminar witness assignment exists for this cover")
            untried.pop()
            chosen.pop()
    return tuple(chosen)
