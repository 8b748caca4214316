"""Two-phase primal-dual edge cover of a set family.

Phase 1 repeatedly reads the cores of the residual family, raises all
their dual variables by the largest uniform amount that keeps every edge's
accumulated load at or below its cost, and picks one newly tight edge.
Phase 2 walks the picked edges in exact reverse order and drops any edge
whose removal keeps the family covered.  Both walk the oracle's incremental
residual (`FamilyOracle.residual`): phase 1 adds each pick to it, and phase
2 removes each edge from the residual phase 1 ended with, so no query
starts again from the whole edge set.

All arithmetic is exact: costs, slacks, loads and dual values are integer
numerators over one common denominator (`CostedGraph.scaled_costs`), and
Fractions are built only for the records.  An edge is tight when its slack,
cost minus load, is exactly 0.  Determinism is pinned down explicitly:
cores are listed in canonical order, ties are listed by id, and the
lowest-id newly tight edge is picked (the full tie list is recorded in the
trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InfeasibleError
from .setfam import (
    Edge,
    FamilyOracle,
    NodeSet,
    Residual,
    bits,
    member_incidence,
    over_common_denominator,
    validate_weighted_edges,
)


@dataclass(frozen=True)
class CostedGraph:
    """Candidate edges with nonnegative rational costs; ids are positions."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        validate_weighted_edges(self.n, self.edges, "cost")

    @classmethod
    def build(cls, n: int, edges: Sequence[tuple[int, int, Fraction | int]]) -> "CostedGraph":
        return cls(n, tuple((u, v, Fraction(c)) for u, v, c in edges))

    def pair(self, edge_id: int) -> Edge:
        u, v, _ = self.edges[edge_id]
        return (u, v)

    def cost(self, edge_id: int) -> Fraction:
        return self.edges[edge_id][2]

    @cached_property
    def scaled_costs(self) -> tuple[tuple[int, ...], int]:
        """The costs as integer numerators over their least common
        denominator: cost(e) == nums[e] / denom."""
        nums, denom = over_common_denominator(c for _, _, c in self.edges)
        return tuple(nums), denom


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
        nums, denom = over_common_denominator(y for _, y in self.values)
        return Fraction(sum(nums), denom)


@dataclass(frozen=True)
class RunTrace:
    iterations: tuple[IterationRecord, ...]
    deleted: tuple[int, ...]  # subsequence of reversed addition order
    solution: tuple[int, ...]  # ascending edge ids
    dual: DualState

    def additions(self) -> tuple[int, ...]:
        return tuple(it.added for it in self.iterations)

    def solution_cost(self, g: CostedGraph) -> Fraction:
        nums, denom = g.scaled_costs
        return Fraction(sum(nums[e] for e in self.solution), denom)


def edge_loads(g: CostedGraph, values: Iterable[tuple[NodeSet, Fraction]]) -> tuple[list[int], list[int], int]:
    """Per-edge load, the summed dual value of the sets each edge crosses,
    and per-edge cost, both as integer numerators over one denominator:
    (loads, costs, denom) with load(e) == loads[e] / denom."""
    values = list(values)
    nums, vden = over_common_denominator(y for _, y in values)
    costs, cden = g.scaled_costs
    denom = lcm(vden, cden)
    vs, cs = denom // vden, denom // cden
    inc = member_incidence(g.n, (s for s, _ in values))
    loads = [sum(nums[i] for i in bits(inc[u] ^ inc[v])) * vs for u, v, _ in g.edges]
    return loads, [c * cs for c in costs], denom


def _crossers(nbrs: list[list[tuple[int, int]]], core: NodeSet) -> list[int]:
    """The edges that cross `core`, from the edges at its members."""
    inside = set(core.members())
    return [e for w in inside for e, x in nbrs[w] if x not in inside]


def check_universe(g: CostedGraph, oracle: FamilyOracle) -> None:
    """Refuse an oracle over another universe than the graph's nodes."""
    if oracle.universe_size() != g.n:
        raise ValueError("oracle universe does not match the graph")


def phase1(
    g: CostedGraph, oracle: FamilyOracle
) -> tuple[list[int], list[IterationRecord], dict[NodeSet, Fraction], list[Fraction], Residual]:
    """Grow duals until the picked edges cover the family.

    Returns (picked edge ids in order of addition, iteration records, dual
    values, edge loads, the oracle's residual of the picked edges).  Raises
    InfeasibleError carrying an uncoverable core.  Each raise is charged to
    the unpicked edges only, and a picked edge crosses no later core, so
    the loads equal edge_loads of the values.

    Each iteration is derived from the last one, and the work is per core,
    not per core entry.  The residual grows by one `add` per pick
    (`FamilyOracle.residual`).  A core is alive over one run of iterations,
    since F^{J+e} is a subfamily of F^J: a core stays one until an edge
    covers it.  So the cores that died and were born are read from the
    last iteration's cores by object identity, and only they update the
    candidates, each with the number of cores it crosses: a core's crossers
    are listed once, at its birth, and taken back at its death.  A picked
    edge covers every core it crosses, so it crosses no later core, and
    only a new core can be left without a crosser.  A residual that hands
    out a new object for an unchanged core costs a death and a birth, with
    the same result.

    The loop keeps one integer per edge, its slack (cost minus load) in
    units of 1/denom, where denom starts as the costs' common denominator,
    and the summed raise so far; a core's dual value is that sum at its
    death less the sum at its birth.  The ties are the candidates of slack
    0, kept as a set; with any, the raise is zero and divides nothing.  A
    positive raise is the least slack / crossings, found by
    cross-multiplying.  When it is not whole, denom, every slack, the sum
    and every birth are multiplied by its denominator, so denom stays the
    lcm of the costs' and the raises' denominators.  The raise lowers each
    candidate's slack, the one place a slack falls, checks it there and
    collects the slacks that reach 0.  Only the records are Fractions: each
    raise, each dual value once, and once at the end the loads (cost -
    slack).
    """
    check_universe(g, oracle)
    costs, cost_denom = g.scaled_costs
    denom = cost_denom
    slack = list(costs)
    total = 0  # the summed raise, in units of 1/denom
    zero = Fraction(0)
    picked: list[int] = []
    records: list[IterationRecord] = []
    residual = oracle.residual()
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v, _) in enumerate(g.edges):
        nbrs[u].append((eid, v))
        nbrs[v].append((eid, u))
    cov: dict[int, int] = {}  # candidate edge -> number of cores it crosses
    tight: set[int] = set()  # the candidates of slack 0
    live: dict[int, tuple[NodeSet, list[int], int]] = {}  # id(core) -> (core, crossers, sum at birth)
    values: dict[NodeSet, Fraction] = {}

    while True:
        cores = residual.cores
        now = dict(zip(map(id, cores), cores))
        for k in live.keys() - now.keys():
            core, crossers, birth = live.pop(k)
            for e in crossers:
                c = cov[e] - 1
                if c:
                    cov[e] = c
                else:
                    del cov[e]
                    tight.discard(e)
            if total != birth:
                y = Fraction(total - birth, denom)
                values[core] = values[core] + y if core in values else y
        if not cores:
            break
        bare = []
        for k in now.keys() - live.keys():
            core = now[k]
            crossers = _crossers(nbrs, core)
            if not crossers:
                bare.append(core)
            for e in crossers:
                cov[e] = cov.get(e, 0) + 1
                if not slack[e]:
                    tight.add(e)
            live[k] = (core, crossers, total)
        if bare:
            raise InfeasibleError(min(bare, key=NodeSet.sort_key))
        if tight:
            eps = zero
            ties = sorted(tight)
        else:
            p, q = 1, 0  # the least slack / crossings so far, first infinity
            for e, c in cov.items():
                if slack[e] * q < p * c:
                    p, q = slack[e], c
            r = gcd(p, q)
            p, q = p // r, q // r
            if q > 1:  # make the raise whole: denom becomes lcm(denom, its denominator)
                denom *= q
                slack = [s * q for s in slack]
                total *= q
                live = {k: (core, crossers, birth * q) for k, (core, crossers, birth) in live.items()}
            eps = Fraction(p, denom)
            total += p
            ties = []
            for e, c in cov.items():
                s = slack[e] - p * c
                assert s >= 0, "edge load exceeded its cost"
                slack[e] = s
                if not s:
                    ties.append(e)
            ties.sort()
            tight.update(ties)
        assert ties, "the minimizing edge must be tight after the raise"
        added = ties[0]
        picked.append(added)
        residual = residual.add(*g.pair(added))
        records.append(IterationRecord(cores, eps, added, tuple(ties)))

    scale = denom // cost_denom
    loads = [Fraction(c * scale - s, denom) for c, s in zip(costs, slack)]
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
