"""Exact optimum by depth-first search, and certification of solver runs.

`brute_force_opt` is the reference optimum.  It returns the exact cost
together with the lexicographically least optimal edge set (ids as a sorted
tuple, compared element by element with a shorter prefix winning).  One
depth-first search adds edge ids in increasing order; its pre-order is tuple
order, so the first cover it finds at the optimum cost is that edge set.

The costs are scaled once by their common denominator, so the search runs
on integers and only the optimum becomes a Fraction again.  A node whose
edge set J leaves cores bounds each child e from below by the cheapest
crosser with id > e of every core e misses; one walk down the ids gives
these suffix minima for all children.  Each child's residual is its
parent's plus one `add` (`FamilyOracle.residual`), so the search needs no
undo.  A child that crosses no core of J has the same cores, because
F^{J+e} is a subfamily of F^J that still holds every core, so the default
residual asks the oracle only when the child crosses one.

`certify` re-derives everything checkable about a finished run from first
principles: dual feasibility (every dual set a member and no edge over
its cost, so by weak duality the dual objective is at most OPT), tightness
of the solution, per-iteration load bounds for the claimed family class, and
the approximation-factor inequality against the dual objective (and against
the true optimum when supplied).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError, guard
from .setfam import Edge, FamilyOracle, Residual, bits, incidence, over_common_denominator
from .wgmv import CostedGraph, RunTrace, edge_loads

MAX_BRUTE_EDGES = 24


def brute_force_opt(g: CostedGraph, oracle: FamilyOracle) -> tuple[Fraction, tuple[int, ...]]:
    """Exact optimum cost and the lexicographically least optimal edge set."""
    m = len(g.edges)
    guard("exhaustive optimum", "edges", m, MAX_BRUTE_EDGES)
    pairs = [g.pair(e) for e in range(m)]
    leftover = oracle.cores(pairs)
    if leftover:
        raise InfeasibleError(leftover[0])
    costs, denom = over_common_denominator(c for _, _, c in g.edges)
    best = _search(g.n, pairs, costs, [], 0, None, oracle.residual())
    assert best is not None
    return Fraction(best[0], denom), best[1]


def _search(
    n: int,
    pairs: list[Edge],
    costs: list[int],
    chosen: list[int],
    cost: int,
    best: tuple[int, tuple[int, ...]] | None,
    residual: Residual,
) -> tuple[int, tuple[int, ...]] | None:
    """The best cover found so far, after searching the covers that extend
    `chosen` (ids ascending, costing `cost`, whose residual is `residual`)
    with larger ids."""
    cores = residual.cores
    if not cores:
        return (cost, tuple(chosen))  # the caller let in only cheaper covers
    inc = incidence(n, (c.mask for c in cores))
    crossed = [inc[u] ^ inc[v] for u, v in pairs]
    first = chosen[-1] + 1 if chosen else 0
    # Every edge after child e has a larger id, so a core that e misses must
    # be crossed by a later edge, at no less than its cheapest.  Walking the
    # ids down, low[i] is the cheapest crosser of core i after e (above every
    # cost while there is none) and `later` the cores crossed after e.  A
    # child that misses a core with no later crosser is hopeless, and so is
    # every later child; `need` bounds the children before the first of them.
    full = (1 << len(cores)) - 1
    low = [sum(costs) + 1] * len(cores)
    later = 0
    need: dict[int, int] = {}
    for e in range(len(pairs) - 1, first - 1, -1):
        c = crossed[e]
        if later | c == full:
            need[e] = max((low[i] for i in bits(full & ~c)), default=0)
        for i in bits(c):
            if costs[e] < low[i]:
                low[i] = costs[e]
        later |= c
    for e in range(first, len(pairs)):
        if e not in need:
            break
        if best is None or cost + costs[e] + need[e] < best[0]:
            chosen.append(e)
            best = _search(n, pairs, costs, chosen, cost + costs[e], best, residual.add(*pairs[e]))
            chosen.pop()
    return best


# Per family class: the approximation factor (None for class beta, whose
# factor 6 - 1/(beta+1) depends on the crossing number) and the slack of the
# per-iteration load bound factor * #cores - slack.
_GUARANTEES: dict[str, tuple[Fraction | None, int]] = {
    "gamma": (Fraction(7), 0),
    "sparse": (Fraction(6), 2),
    "beta": (None, 0),
    "uncrossable": (Fraction(2), 0),
}
FAMILY_CLASSES = tuple(_GUARANTEES)


def guarantee_factor(family_class: str, beta: int | None = None) -> Fraction:
    """Approximation factor the run is certified against, per family class.

    The one check of a (class, beta) pair: it refuses an unknown class,
    class beta without a crossing number >= 1, and a beta with any other class.
    """
    if family_class not in _GUARANTEES:
        raise ValueError(f"unknown family class {family_class!r}")
    factor = _GUARANTEES[family_class][0]
    if factor is not None:
        if beta is not None:
            raise ValueError(f"family class {family_class!r} takes no crossing number; only 'beta' does")
        return factor
    if not isinstance(beta, int) or isinstance(beta, bool) or beta < 1:
        raise ValueError("family class 'beta' needs a crossing number >= 1")
    return 6 - Fraction(1, beta + 1)


def iteration_load_bound(family_class: str, num_cores: int, beta: int | None = None) -> Fraction:
    """Upper bound on the summed final-solution degree of one iteration's cores."""
    return guarantee_factor(family_class, beta) * num_cores - _GUARANTEES[family_class][1]


@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class IterationRow:
    index: int
    num_cores: int
    load: int
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.load <= self.bound


@dataclass(frozen=True)
class Certificate:
    instance_digest: str
    family_class: str
    beta: int | None
    factor: Fraction
    primal_cost: Fraction
    dual_objective: Fraction
    opt_cost: Fraction | None
    checks: tuple[CheckRow, ...]
    iteration_rows: tuple[IterationRow, ...]
    verdict: bool


def certify(
    g: CostedGraph,
    oracle: FamilyOracle,
    trace: RunTrace,
    family_class: str,
    *,
    beta: int | None = None,
    opt: Fraction | None = None,
    instance_digest: str = "",
) -> Certificate:
    factor = guarantee_factor(family_class, beta)
    checks: list[CheckRow] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append(CheckRow(name, ok, detail))

    # Recompute edge loads from the dual values alone.
    loads = edge_loads(g, trace.dual.values)
    neg = [s for s, y in trace.dual.values if y < 0]
    add("dual-nonnegative", not neg, f"{len(neg)} negative dual values" if neg else "")
    over = [e for e in range(len(g.edges)) if loads[e] > g.cost(e)]
    # Weak duality (dual objective <= OPT) needs every dual set to be a member.
    strays = [list(s.members()) for s, _ in trace.dual.values if not oracle.contains(s)]
    found = []
    if over:
        found.append(f"edges over cost: {over}")
    if strays:
        found.append(f"dual values on non-members: {strays}")
    add("dual-feasible", not found, "; ".join(found))
    slack = [e for e in trace.solution if loads[e] != g.cost(e)]
    add("solution-tight", not slack, f"non-tight solution edges: {slack}" if slack else "")

    sol_pairs = [g.pair(e) for e in trace.solution]
    covered = oracle.is_covered(sol_pairs)
    add("solution-covers-family", covered)
    loose = [e for i, e in enumerate(trace.solution) if oracle.is_covered(sol_pairs[:i] + sol_pairs[i + 1 :])]
    add("solution-minimal", not loose, f"removable edges: {loose}" if loose else "")

    # Consecutive iterations share most cores, so d_J(C) is counted once per
    # distinct core, from one incidence list over them all.
    masks = list(dict.fromkeys(c.mask for it in trace.iterations for c in it.cores))
    index = {m: i for i, m in enumerate(masks)}
    degree = [0] * len(masks)
    inc = incidence(g.n, masks)
    for u, v in sol_pairs:
        for i in bits(inc[u] ^ inc[v]):
            degree[i] += 1
    rows: list[IterationRow] = []
    for idx, it in enumerate(trace.iterations):
        load = sum(degree[index[c.mask]] for c in it.cores)
        rows.append(IterationRow(idx, len(it.cores), load, iteration_load_bound(family_class, len(it.cores), beta)))
    bad_rows = [r.index for r in rows if not r.ok]
    add("iteration-load-bounds", not bad_rows, f"iterations over bound: {bad_rows}" if bad_rows else "")

    cost = trace.solution_cost(g)
    dual_obj = trace.dual.objective()
    add("cost-vs-dual", cost <= factor * dual_obj, f"{cost} vs {factor} * {dual_obj}")
    if opt is not None:
        add("cost-vs-opt", cost <= factor * opt, f"{cost} vs {factor} * {opt}")
        add("dual-below-opt", dual_obj <= opt, f"{dual_obj} vs {opt}")

    return Certificate(
        instance_digest=instance_digest,
        family_class=family_class,
        beta=beta,
        factor=factor,
        primal_cost=cost,
        dual_objective=dual_obj,
        opt_cost=opt,
        checks=tuple(checks),
        iteration_rows=tuple(rows),
        verdict=all(c.ok for c in checks) and not bad_rows,
    )
