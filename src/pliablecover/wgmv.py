"""Two-phase primal-dual edge cover of a set family.

Phase 1 repeatedly reads the cores of the residual family, raises all
their dual variables by the largest uniform amount that keeps every edge's
accumulated load at or below its cost, and picks one newly tight edge.
Phase 2 walks the picked edges in exact reverse order and drops any edge
whose removal keeps the family covered.  Phase 1 walks the oracle's
incremental residual (`FamilyOracle.residual`), adding each pick to it, so
no query starts again from the whole edge set; phase 2 is one oracle query,
`FamilyOracle.reverse_delete`.

All arithmetic is exact: costs, slacks, loads and dual values are integer
numerators over one common denominator (`CostedGraph.scaled_costs`), and
Fractions are built only for the records.  An edge is tight when its slack,
cost minus load, is exactly 0.  Determinism is pinned down explicitly:
cores are listed in canonical order, ties are listed by id, and the
lowest-id newly tight edge is picked (the full tie list is recorded in the
trace).  A run is its iterations and its drops; `RunTrace` derives the
solution and the dual values from them.
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
    ties: tuple[int, ...]  # every candidate tight after the raise, ascending

    @property
    def added(self) -> int:  # the picked edge, the least tie
        return self.ties[0]


@dataclass(frozen=True)
class DualState:
    """Nonzero dual values in canonical set order; `edge_loads` gives the loads."""

    values: tuple[tuple[NodeSet, Fraction], ...]

    def objective(self) -> Fraction:
        nums, denom = over_common_denominator(y for _, y in self.values)
        return Fraction(sum(nums), denom)


@dataclass(frozen=True)
class RunTrace:
    """A run: its iterations and reverse-delete drops, which give the rest."""

    iterations: tuple[IterationRecord, ...]
    deleted: tuple[int, ...]  # subsequence of reversed addition order

    def additions(self) -> tuple[int, ...]:
        return tuple(it.added for it in self.iterations)

    @cached_property
    def solution(self) -> tuple[int, ...]:
        """The picked edges less the drops, ascending."""
        return tuple(sorted(set(self.additions()).difference(self.deleted)))

    @cached_property
    def dual(self) -> DualState:
        """Each core's summed raises, as integers over their common denominator."""
        nums, denom = over_common_denominator(it.eps for it in self.iterations)
        sums: dict[NodeSet, int] = {}
        for it, p in zip(self.iterations, nums):
            if p:
                for core in it.cores:
                    sums[core] = sums.get(core, 0) + p
        ordered = sorted((s for s, y in sums.items() if y), key=NodeSet.sort_key)
        return DualState(tuple((s, Fraction(sums[s], denom)) for s in ordered))

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
    crossed = [inc[u] ^ inc[v] for u, v, _ in g.edges]  # the sets each edge crosses
    load_of = {c: sum(nums[i] for i in bits(c)) * vs for c in set(crossed)}
    return [load_of[c] for c in crossed], [c * cs for c in costs], denom


def _crossers(nbrs: list[list[tuple[int, int]]], core: NodeSet) -> list[int]:
    """The edges that cross `core`, from the edges at its members."""
    inside = set(core.members())
    return [e for w in inside for e, x in nbrs[w] if x not in inside]


def check_universe(g: CostedGraph, oracle: FamilyOracle) -> None:
    """Refuse an oracle over another universe than the graph's nodes."""
    if oracle.universe_size() != g.n:
        raise ValueError("oracle universe does not match the graph")


def phase1(g: CostedGraph, oracle: FamilyOracle) -> tuple[list[int], list[IterationRecord]]:
    """Grow duals until the picked edges cover the family.

    Returns (picked edge ids in order of addition, iteration records), or
    raises InfeasibleError carrying an uncoverable core.

    Each iteration is derived from the last one, and the work is per core,
    not per core entry.  The family's residual grows by one `add` per pick
    (`FamilyOracle.residual`).  A core is alive over one run of iterations,
    since F^{J+e} is a subfamily of F^J: a core stays one until an edge
    covers it.  So the cores that died and were born are read from the
    last iteration's cores by object identity, and only they update the
    candidates, each with the number of cores it crosses: a core's crossers
    are listed once, at its birth, and taken back at its death.  A picked
    edge covers every core it crosses, so it crosses no later core, and
    only a new core can be left without a crosser.  The family hands out
    one object per member; a residual that handed out a new object for an
    unchanged core would cost a death and a birth, with the same result.

    The loop keeps one integer per edge, its slack (cost minus load) in
    units of 1/denom, where denom starts as the costs' common denominator.
    With a candidate of slack 0 the raise is zero; otherwise it is the
    least slack / crossings, found by cross-multiplying.  When it is not
    whole, denom and every slack are multiplied by its denominator, so denom
    stays the lcm of the costs' and the raises' denominators.  The raise
    lowers each candidate's slack, the one place a slack falls, and checks
    it there.  Either way the ties are then read from the slacks, in one
    place: the candidates of slack 0, by id.  Only the raises are Fractions.
    """
    check_universe(g, oracle)
    costs, denom = g.scaled_costs
    slack = list(costs)
    picked: list[int] = []
    records: list[IterationRecord] = []
    residual = oracle.residual()
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v, _) in enumerate(g.edges):
        nbrs[u].append((eid, v))
        nbrs[v].append((eid, u))
    cov: dict[int, int] = {}  # candidate edge -> number of cores it crosses
    live: dict[int, list[int]] = {}  # id(core) -> its crossers

    while True:
        cores = residual.cores
        now = dict(zip(map(id, cores), cores))
        for k in live.keys() - now.keys():
            for e in live.pop(k):
                c = cov[e] - 1
                if c:
                    cov[e] = c
                else:
                    del cov[e]
        if not cores:
            break
        bare = []
        for k in now.keys() - live.keys():
            crossers = _crossers(nbrs, now[k])
            if not crossers:
                bare.append(now[k])
            for e in crossers:
                cov[e] = cov.get(e, 0) + 1
            live[k] = crossers
        if bare:
            raise InfeasibleError(min(bare, key=NodeSet.sort_key))
        eps = Fraction(0)  # the raise while a candidate has slack 0
        if all(map(slack.__getitem__, cov)):
            p, q = 1, 0  # the least slack / crossings so far, first infinity
            for e, c in cov.items():
                if slack[e] * q < p * c:
                    p, q = slack[e], c
            r = gcd(p, q)
            p, q = p // r, q // r
            if q > 1:  # make the raise whole: denom becomes lcm(denom, its denominator)
                denom *= q
                slack = [s * q for s in slack]
            eps = Fraction(p, denom)
            for e, c in cov.items():
                s = slack[e] - p * c
                assert s >= 0, "edge load exceeded its cost"
                slack[e] = s
        ties = sorted(e for e in cov if not slack[e])
        assert ties, "the minimizing edge must be tight after the raise"
        picked.append(ties[0])
        residual = residual.add(*g.pair(ties[0]))
        records.append(IterationRecord(cores, eps, tuple(ties)))
    return picked, records


def phase2(g: CostedGraph, oracle: FamilyOracle, picked: Sequence[int]) -> list[int]:
    """Reverse delete: the picked edges dropped, newest first, because
    coverage survives without them (one `FamilyOracle.reverse_delete`)."""
    check_universe(g, oracle)
    return [picked[i] for i in oracle.reverse_delete([g.pair(e) for e in picked])]


def solve(g: CostedGraph, oracle: FamilyOracle) -> RunTrace:
    """Run both phases and assemble the full trace."""
    picked, records = phase1(g, oracle)
    return RunTrace(tuple(records), tuple(phase2(g, oracle, picked)))
