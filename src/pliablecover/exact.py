"""Exact optimum by depth-first search, and certification of solver runs.

`brute_force_opt` is the reference optimum.  It returns the exact cost
together with the lexicographically least optimal edge set (ids as a sorted
tuple, compared element by element with a shorter prefix winning).  One
depth-first search adds edge ids in increasing order; its pre-order is tuple
order, so the first cover it finds at the optimum cost is that edge set.
It starts from an upper bound, the cost of one reverse delete
(`FamilyOracle.reverse_delete`) over the edges by ascending cost, so the
dearest are dropped first: until it finds a cover, it cuts every child
whose lower bound is above that cost.  The cut is strict, so the bound
changes neither the optimum nor the edge set, and the search tries a subset
of the nodes it would try without it (see `_search`).

The search runs on the graph's costs over their common denominator
(`CostedGraph.scaled_costs`, shared with the solver), so only the optimum
becomes a Fraction again.  A node whose edge set J leaves cores bounds
each child e from below by the cheapest crosser with id > e of every core
e misses; one walk down the ids gives these suffix minima for all
children.  Each child's residual is its parent's plus one `add` on the
family's residual (`FamilyOracle.residual`), so the search needs no undo.
A child that crosses no core of J has the same cores, because F^{J+e} is
a subfamily of F^J that still holds every core, so its residual keeps its
parent's core tuple and derives nothing.

`certify` re-derives everything checkable about a finished run from first
principles: dual feasibility (every dual set a member and no edge over
its cost, so by weak duality the dual objective is at most OPT), tightness
of the solution (both compare loads and costs as integer numerators over
one denominator, from `wgmv.edge_loads` by way of `RunTrace.derived`, which
the trace writer reads too), cover and minimality of the
solution (it is minimal exactly when reverse delete keeps every edge of
it), per-iteration load bounds for the claimed family class, and the
approximation-factor inequality against the dual objective (and against
the true optimum when supplied).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Budget, InfeasibleError
from .setfam import Edge, FamilyOracle, NodeSet, _Residual, bits, member_incidence
from .wgmv import CostedGraph, RunTrace, check_universe


def brute_force_opt(g: CostedGraph, oracle: FamilyOracle) -> tuple[Fraction, tuple[int, ...]]:
    """Exact optimum cost and the lexicographically least optimal edge set."""
    check_universe(g, oracle)
    pairs = [g.pair(e) for e in range(len(g.edges))]
    leftover = oracle.cores(pairs)
    if leftover:
        raise InfeasibleError(leftover[0])
    costs, denom = g.scaled_costs
    # Reverse delete over the ids by ascending cost tries the dearest first.
    order = sorted(range(len(pairs)), key=lambda e: (costs[e], e))
    dropped = oracle.reverse_delete([pairs[e] for e in order])
    upper = sum(costs) - sum(costs[order[i]] for i in dropped)
    cost, ids = _search(g.n, pairs, costs, oracle.residual(), upper)
    return Fraction(cost, denom), ids


def _search(
    n: int, pairs: list[Edge], costs: tuple[int, ...], residual: _Residual, upper: int
) -> tuple[int, tuple[int, ...]]:
    """The cheapest cover and its ids, least among equals, of the feasible
    instance whose empty edge set has the residual `residual` and which has
    a cover of cost `upper`.

    Depth first, one node (one unit of the "optimum" budget) per ascending
    id tuple.  `stack` holds the children still to try, as (parent's ids,
    cost and residual, id, bound), the next in pre-order on top; a child is
    tried when popped, against the best cover found by then, and cut when
    its bound is not below it.  Before the first cover that best is
    upper + 1, so the cut is strict: a child of bound `upper` is still
    tried.  A node reads only its children's crossing masks, each computed
    in its walk.

    The result is the search's without `upper`: every prefix of the least
    optimal cover has a bound of at most OPT <= upper, so it is never cut,
    and every cover found before it in pre-order costs more than OPT.  Nor
    are there more nodes: at every point of the pre-order the threshold is
    at most the one an unseeded search would have, so the nodes tried are a
    subset of its nodes.
    """
    budget = Budget("exhaustive optimum", "optimum")
    best = (upper + 1, ())
    stack: list[tuple[tuple[int, ...], int, _Residual, int, int]] = []
    ids: tuple[int, ...] = ()
    cost = 0
    while True:
        budget.take()
        cores = residual.cores
        if not cores:
            best = (cost, ids)  # only cheaper covers were let in
        else:
            inc = member_incidence(n, cores)
            first = ids[-1] + 1 if ids else 0
            # Every edge after child e has a larger id, so a core that e misses
            # must be crossed by a later edge, at no less than its cheapest.
            # Walking the ids down, low[i] is the cheapest crosser of core i
            # after e (above every cost while there is none) and `later` the
            # cores crossed after e.  A child that misses a core with no later
            # crosser is hopeless, and so is every later child: the children
            # pushed so far are dropped again.
            full = (1 << len(cores)) - 1
            low = [sum(costs) + 1] * len(cores)
            later = 0
            top = len(stack)
            for e in range(len(pairs) - 1, first - 1, -1):
                u, v = pairs[e]
                c = inc[u] ^ inc[v]
                if later | c == full:
                    need = max((low[i] for i in bits(full & ~c)), default=0)
                    stack.append((ids, cost, residual, e, cost + costs[e] + need))
                else:
                    del stack[top:]
                for i in bits(c):
                    if costs[e] < low[i]:
                        low[i] = costs[e]
                later |= c
        while stack and stack[-1][4] >= best[0]:
            stack.pop()
        if not stack:
            assert best[0] <= upper
            return best
        ids, cost, residual, e, _ = stack.pop()
        ids, cost, residual = ids + (e,), cost + costs[e], residual.add(*pairs[e])


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
    """Upper bound on the summed final-solution degree of one iteration's
    cores, factor * num_cores - slack, over the factor's denominator."""
    factor = guarantee_factor(family_class, beta)
    den = factor.denominator
    return Fraction(factor.numerator * num_cores - _GUARANTEES[family_class][1] * den, den)


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
        return self.load * self.bound.denominator <= self.bound.numerator


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
    check_universe(g, oracle)
    checks: list[CheckRow] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append(CheckRow(name, ok, detail))

    # Recompute edge loads from the dual values alone, over one integer
    # denominator with the costs.
    loads, costs, _, cost, dual_obj = trace.derived(g)
    neg = [s for s, y in trace.dual.values if y < 0]
    add("dual-nonnegative", not neg, f"{len(neg)} negative dual values" if neg else "")
    over = [e for e in range(len(g.edges)) if loads[e] > costs[e]]
    # Weak duality (dual objective <= OPT) needs every dual set to be a member.
    strays = [list(s.members()) for s, _ in trace.dual.values if not oracle.contains(s)]
    found = []
    if over:
        found.append(f"edges over cost: {over}")
    if strays:
        found.append(f"dual values on non-members: {strays}")
    add("dual-feasible", not found, "; ".join(found))
    slack = [e for e in trace.solution if loads[e] != costs[e]]
    add("solution-tight", not slack, f"non-tight solution edges: {slack}" if slack else "")

    sol_pairs = [g.pair(e) for e in trace.solution]
    covered = oracle.is_covered(sol_pairs)
    add("solution-covers-family", covered)
    # J is minimal exactly when reverse delete drops nothing: if J does not
    # cover, no J - e covers, and if it does, its first drop is removable.
    loose: list[int] = []
    if oracle.reverse_delete(sol_pairs):
        loose = [e for i, e in enumerate(trace.solution) if oracle.is_covered(sol_pairs[:i] + sol_pairs[i + 1 :])]
    add("solution-minimal", not loose, f"removable edges: {loose}" if loose else "")

    # d_J(C) is counted once per core object, from one incidence list over
    # them all: a solved or a read trace shares one object per core across
    # its iterations, and a trace of fresh copies gets one row per copy.
    objs: dict[int, NodeSet] = {}
    for it in trace.iterations:
        objs.update(zip(map(id, it.cores), it.cores))
    degree = [0] * len(objs)
    inc = member_incidence(g.n, objs.values())
    for u, v in sol_pairs:
        for i in bits(inc[u] ^ inc[v]):
            degree[i] += 1
    degree_of = dict(zip(objs, degree))
    bounds: dict[int, Fraction] = {}  # by core count
    rows: list[IterationRow] = []
    for idx, it in enumerate(trace.iterations):
        num = len(it.cores)
        bound = bounds.get(num)
        if bound is None:
            bound = bounds[num] = iteration_load_bound(family_class, num, beta)
        rows.append(IterationRow(idx, num, sum(map(degree_of.__getitem__, map(id, it.cores))), bound))
    bad_rows = [r.index for r in rows if not r.ok]
    add("iteration-load-bounds", not bad_rows, f"iterations over bound: {bad_rows}" if bad_rows else "")

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
