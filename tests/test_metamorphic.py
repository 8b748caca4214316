"""Metamorphic relations: runs that must agree, checked without a reference.

Every reference and golden elsewhere shares the node labels of the instance
it checks, while the family's bit planes, the canonical order and the cut
scan all depend on those labels.  These tests transform an instance and
require exact relations between the two runs instead:

* relabelling the nodes by a permutation pi, on both backends: the same
  `added`, eps, `ties` and `deleted` in every iteration, the cores mapped by
  pi, the same optimum and argmin, and the same `analyze_trace` verdicts;
* relabelling a small-cut instance and its materialized family: the
  small-cut oracle of pi(h) and the explicit oracle of pi applied to h's
  family run alike on pi(g), with the cores mapped by pi;
* scaling every cost by a positive rational c: every eps and the optimum
  times c, with the same argmin;
* appending an edge that costs more than (|F| + 2) times the summed costs:
  every trace field the same, except that `dual.loads` gains one entry.

Under the first, third and fourth, `certify` keeps its row names, `ok` values and verdict.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pliablecover.exact import brute_force_opt, certify
from pliablecover.gens import instance_rng, random_cap_graph, random_instance, tight_seven, tight_six
from pliablecover.jsonio import trace_to_json
from pliablecover.setfam import ExplicitFamily, ExplicitFamilyOracle, NodeSet, all_pairs
from pliablecover.smallcuts import CapGraph, SmallCutsOracle, materialize_family
from pliablecover.treeanal import analyze_trace
from pliablecover.wgmv import CostedGraph, solve


@dataclass(frozen=True)
class Case:
    """An instance on one backend: the family is an ExplicitFamily or the
    CapGraph whose small cuts it is.  `small` marks an instance whose
    optimum the exhaustive search finds at once."""

    g: CostedGraph
    family: ExplicitFamily | CapGraph
    family_class: str
    small: bool

    def oracle(self):
        if isinstance(self.family, CapGraph):
            return SmallCutsOracle(self.family)
        return ExplicitFamilyOracle(self.family)

    def explicit(self) -> ExplicitFamily:
        if isinstance(self.family, CapGraph):
            return materialize_family(self.family)
        return self.family


@st.composite
def random_cases(draw):
    kind = draw(st.sampled_from(["gamma", "sparse", "uncrossable"]))
    g, f = random_instance(kind, instance_rng(draw(st.integers(0, 10**6)), 0), draw(st.integers(4, 7)))
    return Case(g, f, kind, True)


@st.composite
def cut_cases(draw):
    """A random capacitated graph and, as candidates, a random spanning
    tree (it crosses every cut, so every draw is feasible) plus n random
    pairs, with costs 1-9."""
    n = draw(st.integers(4, 9))
    rng = instance_rng(draw(st.integers(0, 10**6)), n)
    h = random_cap_graph(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[rng.randrange(i)], order[i]))) for i in range(1, n)}
    pairs |= set(rng.sample(all_pairs(n), n))
    g = CostedGraph.build(n, [(u, v, rng.randint(1, 9)) for u, v in sorted(pairs)])
    return Case(g, h, "sparse", len(g.edges) <= 14)


@st.composite
def tight_cases(draw):
    make, cls = draw(st.sampled_from([(tight_six, "sparse"), (tight_seven, "gamma")]))
    b = make(draw(st.sampled_from([2, 4, 8, 16, 32, 64])))
    return Case(b.graph, b.family, cls, False)


cases = st.one_of(random_cases(), cut_cases(), tight_cases())


def relabelled(case: Case, pi: list[int]) -> Case:
    """The same instance with node v renamed pi[v]; edge ids are kept."""

    def edge(u, v, w):
        return (min(pi[u], pi[v]), max(pi[u], pi[v]), w)

    g = CostedGraph(case.g.n, tuple(edge(*e) for e in case.g.edges))
    if isinstance(case.family, CapGraph):
        h = case.family
        return Case(g, CapGraph(h.n, tuple(edge(*e) for e in h.edges), h.k), case.family_class, case.small)
    family = ExplicitFamily(case.family.n, tuple(mapped(s, pi) for s in case.family))
    return Case(g, family, case.family_class, case.small)


def mapped(s: NodeSet, pi: list[int]) -> NodeSet:
    return NodeSet.from_members(s.n, [pi[v] for v in s.members()])


def verdict_rows(case: Case, trace, opt=None):
    """What `certify` must keep: its row names and `ok` values, its
    per-iteration rows and its verdict."""
    cert = certify(case.g, case.oracle(), trace, case.family_class, opt=opt)
    return [(c.name, c.ok) for c in cert.checks], cert.iteration_rows, cert.verdict


def optimum(case: Case):
    return brute_force_opt(case.g, case.oracle()) if case.small else None


@given(cases, st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=30)
def test_relabelling_the_nodes_maps_the_run(case, rnd):
    pi = list(range(case.g.n))
    rnd.shuffle(pi)
    other = relabelled(case, pi)
    run, run_pi = solve(case.g, case.oracle()), solve(other.g, other.oracle())
    assert len(run.iterations) == len(run_pi.iterations)
    for it, it_pi in zip(run.iterations, run_pi.iterations):
        assert (it.added, it.eps, it.ties) == (it_pi.added, it_pi.eps, it_pi.ties)
        assert len(it.cores) == len(it_pi.cores)
        assert {mapped(c, pi) for c in it.cores} == set(it_pi.cores)
    assert run.deleted == run_pi.deleted
    opt = optimum(case)
    assert optimum(other) == opt
    opt_cost = opt and opt[0]
    assert verdict_rows(case, run, opt_cost) == verdict_rows(other, run_pi, opt_cost)
    report = analyze_trace(case.g, case.explicit(), run, case.family_class)
    report_pi = analyze_trace(other.g, other.explicit(), run_pi, other.family_class)
    assert report.ok == report_pi.ok
    assert [_summary(it) for it in report.iterations] == [_summary(it) for it in report_pi.iterations]


@given(cut_cases(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=30)
def test_a_relabelled_small_cut_instance_runs_as_its_relabelled_family(case, rnd):
    """On pi(g), the small-cut oracle of pi(h) and the explicit oracle of
    pi(materialize_family(h)) give one run, and its cores are those of the
    run of materialize_family(h) on g, mapped by pi."""
    pi = list(range(case.g.n))
    rnd.shuffle(pi)
    cut = relabelled(case, pi)
    explicit = relabelled(replace(case, family=materialize_family(case.family)), pi)
    run = solve(case.g, ExplicitFamilyOracle(materialize_family(case.family)))
    run_cut = solve(cut.g, SmallCutsOracle(cut.family))
    run_explicit = solve(explicit.g, ExplicitFamilyOracle(explicit.family))
    assert len(run.iterations) == len(run_cut.iterations) == len(run_explicit.iterations)
    for it, it_cut, it_explicit in zip(run.iterations, run_cut.iterations, run_explicit.iterations):
        assert (it_cut.added, it_cut.eps, it_cut.ties) == (it_explicit.added, it_explicit.eps, it_explicit.ties)
        assert (it.added, it.eps, it.ties) == (it_cut.added, it_cut.eps, it_cut.ties)
        assert it_cut.cores == it_explicit.cores
        assert len(it.cores) == len(it_cut.cores) and {mapped(c, pi) for c in it.cores} == set(it_cut.cores)
    assert run.deleted == run_cut.deleted == run_explicit.deleted


def _summary(it):
    """What relabelling keeps of an iteration's analysis: its verdict, its
    cover and the cover's summed core degree (the tree's total weight)."""
    return it.ok, it.cover_edge_ids, bool(it.violations), it.report and it.report.total_weight


@given(cases, st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50))
@settings(deadline=None, max_examples=30)
def test_scaling_the_costs_scales_every_raise(case, c):
    scaled = replace(case, g=CostedGraph(case.g.n, tuple((u, v, w * c) for u, v, w in case.g.edges)))
    run, run_c = solve(case.g, case.oracle()), solve(scaled.g, scaled.oracle())
    assert len(run.iterations) == len(run_c.iterations)
    for it, it_c in zip(run.iterations, run_c.iterations):
        assert (it.added, it.eps * c, it.ties, it.cores) == (it_c.added, it_c.eps, it_c.ties, it_c.cores)
    assert run.deleted == run_c.deleted
    opt, opt_c = optimum(case), optimum(scaled)
    if opt is not None:
        assert opt_c == (opt[0] * c, opt[1])
    opt_cost = opt and opt[0]
    opt_cost_c = opt_c and opt_c[0]
    assert verdict_rows(case, run, opt_cost) == verdict_rows(scaled, run_c, opt_cost_c)


@given(cases, st.data())
@settings(deadline=None, max_examples=30)
def test_an_edge_too_dear_to_pick_changes_only_the_loads(case, data):
    u, v = data.draw(st.sampled_from(all_pairs(case.g.n)))
    dear = (len(case.explicit()) + 2) * sum(w for _, _, w in case.g.edges) + 1
    more = replace(case, g=CostedGraph(case.g.n, case.g.edges + ((u, v, dear),)))
    run, run_more = solve(case.g, case.oracle()), solve(more.g, more.oracle())
    assert run_more == run
    doc, doc_more = trace_to_json(case.g, run), trace_to_json(more.g, run_more)
    loads, loads_more = doc["dual"].pop("loads"), doc_more["dual"].pop("loads")
    assert doc == doc_more and loads_more[:-1] == loads and len(loads_more) == len(loads) + 1
    opt = optimum(case)
    assert optimum(more) == opt
    opt_cost = opt and opt[0]
    assert verdict_rows(case, run, opt_cost) == verdict_rows(more, run_more, opt_cost)
