"""Two-phase primal-dual edge cover of a set family.

Phase 1 repeatedly reads the cores of the residual family, raises all
their dual variables by the largest uniform amount that keeps every edge's
accumulated load at or below its cost, and picks one newly tight edge.
Phase 2 walks the picked edges in exact reverse order and drops any edge
whose removal keeps the family covered.  Both walk the oracle's incremental
residual (`FamilyOracle.residual`): phase 1 adds each pick to it, and phase
2 removes each edge from the residual phase 1 ended with, so no query
starts again from the whole edge set.

All arithmetic is over Fraction; an edge is tight when its slack, cost
minus load, is exactly 0.  Determinism is pinned down explicitly: cores are
listed in canonical order, ties are listed by id, and the lowest-id newly
tight edge is picked (the full tie list is recorded in the trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InfeasibleError
from .setfam import (
    Edge,
    FamilyOracle,
    NodeSet,
    Residual,
    bits,
    incidence,
    over_common_denominator,
    validate_edges,
)


@dataclass(frozen=True)
class CostedGraph:
    """Candidate edges with nonnegative rational costs; ids are positions."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        validate_edges(self.n, [(u, v) for u, v, _ in self.edges])
        for u, v, c in self.edges:
            if c < 0:
                raise ValueError(f"negative cost on edge ({u},{v})")

    @classmethod
    def build(cls, n: int, edges: Sequence[tuple[int, int, Fraction | int]]) -> "CostedGraph":
        return cls(n, tuple((u, v, Fraction(c)) for u, v, c in edges))

    def pair(self, edge_id: int) -> Edge:
        u, v, _ = self.edges[edge_id]
        return (u, v)

    def cost(self, edge_id: int) -> Fraction:
        return self.edges[edge_id][2]


@dataclass(frozen=True)
class IterationRecord:
    cores: tuple[NodeSet, ...]
    eps: Fraction
    added: int
    ties: tuple[int, ...]  # every candidate tight after the raise, ascending


@dataclass(frozen=True)
class DualState:
    """Final dual values and per-edge loads.

    Feasibility (load <= cost for every edge, exact comparison) is enforced
    during the run and can be re-derived from `values` alone.
    """

    values: tuple[tuple[NodeSet, Fraction], ...]  # canonical set order
    loads: tuple[Fraction, ...]

    def objective(self) -> Fraction:
        return sum((y for _, y in self.values), Fraction(0))


@dataclass(frozen=True)
class RunTrace:
    iterations: tuple[IterationRecord, ...]
    deleted: tuple[int, ...]  # subsequence of reversed addition order
    solution: tuple[int, ...]  # ascending edge ids
    dual: DualState

    def additions(self) -> tuple[int, ...]:
        return tuple(it.added for it in self.iterations)

    def solution_cost(self, g: CostedGraph) -> Fraction:
        return sum((g.cost(e) for e in self.solution), Fraction(0))


def edge_loads(g: CostedGraph, values: Iterable[tuple[NodeSet, Fraction]]) -> list[Fraction]:
    """Per-edge load: the summed dual value of the sets each edge crosses.

    The values are summed as integer numerators over their common
    denominator, so each edge makes one Fraction."""
    values = list(values)
    nums, denom = over_common_denominator(y for _, y in values)
    inc = incidence(g.n, (s.mask for s, _ in values))
    return [Fraction(sum(nums[i] for i in bits(inc[u] ^ inc[v])), denom) for u, v, _ in g.edges]


def _count_crossers(nbrs: list[list[tuple[int, int]]], core: NodeSet, cov: dict[int, int], step: int) -> int:
    """Add `step` to cov[e] for every edge e crossing `core` (an entry that
    reaches 0 is dropped) and return how many edges cross it."""
    m = core.mask
    found = 0
    for w in core.members():
        for e, x in nbrs[w]:
            if not m >> x & 1:
                c = cov.get(e, 0) + step
                if c:
                    cov[e] = c
                else:
                    del cov[e]
                found += 1
    return found


def phase1(
    g: CostedGraph, oracle: FamilyOracle
) -> tuple[list[int], list[IterationRecord], dict[NodeSet, Fraction], list[Fraction], Residual]:
    """Grow duals until the picked edges cover the family.

    Returns (picked edge ids in order of addition, iteration records, dual
    values, edge loads, the oracle's residual of the picked edges).  Raises
    InfeasibleError carrying an uncoverable core.  Each raise is charged to
    the unpicked edges only, and a picked edge crosses no later core, so
    the loads equal edge_loads of the values.

    Each iteration is derived from the last one.  The residual grows by one
    `add` per pick (`FamilyOracle.residual`).  The candidates, each with the
    number of cores it crosses, are kept across iterations and updated only
    for the cores that changed, through the edges at their nodes: a picked
    edge covers every core it crosses, so it crosses no later core, and a
    core that stays keeps its crossers.  For the same reason only a new
    core can be left without a crosser.

    The loop keeps one number per edge, its slack (cost minus load).  The
    ties are the candidates of slack 0; with any, the raise is zero and
    divides nothing.  A positive raise lowers each candidate's slack, the
    one place a slack falls, and checks it there.  Loads are cost - slack.
    """
    if oracle.universe_size() != g.n:
        raise ValueError("oracle universe does not match the graph")
    costs = [c for _, _, c in g.edges]
    slack = list(costs)
    values: dict[NodeSet, Fraction] = {}
    picked: list[int] = []
    records: list[IterationRecord] = []
    residual = oracle.residual()
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v, _) in enumerate(g.edges):
        nbrs[u].append((eid, v))
        nbrs[v].append((eid, u))
    cov: dict[int, int] = {}  # candidate edge -> number of cores it crosses
    last: dict[int, NodeSet] = {}  # the last iteration's cores by mask

    while True:
        cores = residual.cores
        if not cores:
            break
        now = {core.mask: core for core in cores}
        for m, core in last.items():
            if m not in now:
                _count_crossers(nbrs, core, cov, -1)
        for core in cores:
            if core.mask not in last and not _count_crossers(nbrs, core, cov, 1):
                raise InfeasibleError(core)
        last = now
        tight = sorted(e for e in cov if not slack[e])
        if tight:
            eps = Fraction(0)
        else:
            eps = min(slack[e] / c for e, c in cov.items())
            for core in cores:
                values[core] = values.get(core, Fraction(0)) + eps
            for e, c in cov.items():
                slack[e] -= eps * c
                assert slack[e] >= 0, "edge load exceeded its cost"
            tight = sorted(e for e in cov if not slack[e])
        assert tight, "the minimizing edge must be tight after the raise"
        added = tight[0]
        picked.append(added)
        residual = residual.add(*g.pair(added))
        records.append(IterationRecord(cores, eps, added, tuple(tight)))

    loads = [c - s for c, s in zip(costs, slack)]
    return picked, records, values, loads, residual


def phase2(g: CostedGraph, picked: Sequence[int], residual: Residual) -> tuple[list[int], list[int]]:
    """Reverse delete: drop each edge, newest first, if coverage survives.

    `residual` is the one phase 1 ended with, of the picked edges; each
    probe removes one edge from the residual of the edges kept so far."""
    deleted: list[int] = []
    for e in reversed(picked):
        probe = residual.remove(*g.pair(e))
        if probe.covered:
            residual = probe
            deleted.append(e)
    return sorted(set(picked).difference(deleted)), deleted


def solve(g: CostedGraph, oracle: FamilyOracle) -> RunTrace:
    """Run both phases and assemble the full trace."""
    picked, records, values, loads, residual = phase1(g, oracle)
    solution, deleted = phase2(g, picked, residual)
    ordered = tuple(sorted(values.items(), key=lambda kv: kv[0].sort_key()))
    dual = DualState(values=ordered, loads=tuple(loads))
    return RunTrace(tuple(records), tuple(deleted), tuple(solution), dual)
