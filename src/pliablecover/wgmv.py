"""Two-phase primal-dual edge cover of a set family.

Phase 1 repeatedly asks the family oracle for the cores of the residual
family, raises all their dual variables by the largest uniform amount that
keeps every edge's accumulated load at or below its cost, and picks one
newly tight edge.  Phase 2 walks the picked edges in exact reverse order and
drops any edge whose removal keeps the family covered.

All arithmetic is over Fraction; tightness means exact equality of load and
cost.  Determinism is pinned down explicitly: cores are listed in canonical
order, candidate edges are scanned by id, and the lowest-id newly tight edge
is picked (the full tie list is recorded in the trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InfeasibleError
from .setfam import Edge, FamilyOracle, NodeSet, edge_crosses_mask, validate_edges


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
    """Per-edge load: the summed dual value of the sets each edge crosses."""
    loads = [Fraction(0)] * len(g.edges)
    for s, y in values:
        for eid, (u, v, _) in enumerate(g.edges):
            if edge_crosses_mask(s.mask, u, v):
                loads[eid] += y
    return loads


def phase1(g: CostedGraph, oracle: FamilyOracle) -> tuple[list[int], list[IterationRecord], dict[NodeSet, Fraction]]:
    """Grow duals until the picked edges cover the family.

    Returns (picked edge ids in order of addition, iteration records, dual
    values).  Raises InfeasibleError carrying an uncoverable core.
    """
    if oracle.universe_size() != g.n:
        raise ValueError("oracle universe does not match the graph")
    loads = [Fraction(0)] * len(g.edges)
    values: dict[NodeSet, Fraction] = {}
    picked: list[int] = []
    picked_set: set[int] = set()
    records: list[IterationRecord] = []

    while True:
        cores = oracle.cores([g.pair(e) for e in picked])
        if not cores:
            break
        # Edges already picked never cover a residual core (its d_J is 0),
        # so candidates are exactly the unpicked edges crossing some core.
        cov: dict[int, int] = {}
        core_hit = [False] * len(cores)
        for eid, (u, v, _) in enumerate(g.edges):
            if eid in picked_set:
                continue
            c = 0
            for i, core in enumerate(cores):
                if edge_crosses_mask(core.mask, u, v):
                    c += 1
                    core_hit[i] = True
            if c:
                cov[eid] = c
        for i, hit in enumerate(core_hit):
            if not hit:
                raise InfeasibleError(cores[i])
        eps = min((g.cost(e) - loads[e]) / c for e, c in cov.items())
        assert eps >= 0, "dual feasibility violated before the raise"
        if eps:  # zero raises leave no dual variable behind
            for core in cores:
                values[core] = values.get(core, Fraction(0)) + eps
            for e, c in cov.items():
                loads[e] += eps * c
                assert loads[e] <= g.cost(e), "edge load exceeded its cost"
        tight = tuple(e for e in sorted(cov) if loads[e] == g.cost(e))
        assert tight, "the minimizing edge must be tight after the raise"
        added = tight[0]
        picked.append(added)
        picked_set.add(added)
        records.append(IterationRecord(tuple(cores), eps, added, tight))

    return picked, records, values


def phase2(g: CostedGraph, oracle: FamilyOracle, picked: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reverse delete: drop each edge, newest first, if coverage survives."""
    keep = list(picked)
    deleted: list[int] = []
    for e in reversed(picked):
        without = [x for x in keep if x != e]
        if oracle.is_covered([g.pair(x) for x in without]):
            keep = without
            deleted.append(e)
    return sorted(keep), deleted


def solve(g: CostedGraph, oracle: FamilyOracle) -> RunTrace:
    """Run both phases and assemble the full trace."""
    picked, records, values = phase1(g, oracle)
    solution, deleted = phase2(g, oracle, picked)
    ordered = tuple(sorted(values.items(), key=lambda kv: kv[0].sort_key()))
    dual = DualState(values=ordered, loads=tuple(edge_loads(g, ordered)))
    return RunTrace(tuple(records), tuple(deleted), tuple(solution), dual)
