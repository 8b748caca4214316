"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line and enforcing its wall-clock budget.

The heavy criteria draw seeded random instances from the generators, so
every run exercises the same inputs and the failures, if any, reproduce.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pliablecover import gens, smallcuts
from pliablecover.exact import brute_force_opt, certify
from pliablecover.errors import InfeasibleError
from pliablecover.jsonio import (
    Instance,
    bundle_to_json,
    certificate_to_json,
    dumps_canonical,
    instance_to_json,
    trace_to_json,
)
from pliablecover.setfam import (
    ExplicitFamilyOracle,
    all_pairs,
    crossing_number,
    is_sparse,
)
from pliablecover.smallcuts import SmallCutsOracle
from pliablecover.treeanal import analyze_trace
from pliablecover.wgmv import CostedGraph, solve

# Structural-lemma results accumulated by criteria 3-6 and judged by
# criterion 7.  "runs" counts analyzed iterations, "violations" collects
# every reported problem.
LEMMA_LOG: dict = {"runs": 0, "violations": []}


def _log_analysis(report) -> None:
    for it in report.iterations:
        LEMMA_LOG["runs"] += 1
        LEMMA_LOG["violations"].extend(it.violations)
        if it.report is not None:
            LEMMA_LOG["violations"].extend(
                f"{row.name}: {row.lhs} > {row.rhs}"
                for row in it.report.bounds
                if not row.ok
            )


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    print(f"criterion {num}: PASS - {label}")


def test_criterion_1_tight_example_arithmetic():
    with criterion(1, "tight-example weights and core counts"):
        for leaves in (2, 4, 8, 16):
            t0 = time.monotonic()
            seven = gens.tight_seven(leaves)
            assert seven.total_cost == 7 * leaves - 2
            assert len(seven.cores) == leaves + 2
            assert time.monotonic() - t0 < 1.0

            t0 = time.monotonic()
            six = gens.tight_six(leaves)
            assert six.total_cost == 6 * leaves - 2
            assert len(six.cores) == leaves + 1
            assert time.monotonic() - t0 < 1.0

        for i, j in [(1, 0), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 4)]:
            leaves, beta = 2**i, 2**j
            t0 = time.monotonic()
            bundle = gens.tight_beta(leaves, beta)
            assert bundle.total_cost == 6 * 2**i - 2
            assert len(bundle.cores) == 2**i + 2 ** (i - j)
            assert time.monotonic() - t0 < 1.0


def test_criterion_2_ratio_convergence():
    with criterion(2, "ratios reach 6.5 and 5.6 at 64 leaves"):
        t0 = time.monotonic()
        assert gens.tight_seven(64).ratio >= Fraction(13, 2)
        assert gens.tight_six(64).ratio >= Fraction(28, 5)
        assert time.monotonic() - t0 < 5.0


def test_criterion_3_certificates_on_gamma_instances():
    with criterion(3, "500 verified gamma instances certify at factor 7"):
        t0 = time.monotonic()
        count = 0
        for g, f in gens.random_instances("gamma", 500, seed=1301):
            oracle = ExplicitFamilyOracle(f)
            trace = solve(g, oracle)
            opt, _ = brute_force_opt(g, oracle)
            cert = certify(g, oracle, trace, "gamma", opt=opt)
            assert cert.verdict, [c for c in cert.checks if not c.ok]
            assert cert.primal_cost <= 7 * cert.dual_objective
            assert cert.dual_objective <= opt
            for row in cert.iteration_rows:
                assert row.load <= 7 * row.num_cores
            _log_analysis(analyze_trace(g, f, trace, "gamma"))
            count += 1
        assert count >= 500
        assert time.monotonic() - t0 < 300.0


def test_criterion_4_certificates_on_sparse_and_beta_instances():
    with criterion(4, "sparse instances certify at 6, beta-crossing at 6-1/(beta+1)"):
        t0 = time.monotonic()
        count = 0
        for g, f in gens.random_instances("sparse", 500, seed=1402):
            oracle = ExplicitFamilyOracle(f)
            trace = solve(g, oracle)
            opt, _ = brute_force_opt(g, oracle)

            cert = certify(g, oracle, trace, "sparse", opt=opt)
            assert cert.verdict, [c for c in cert.checks if not c.ok]
            for row in cert.iteration_rows:
                assert row.load <= 6 * row.num_cores - 2
            _log_analysis(analyze_trace(g, f, trace, "sparse"))

            beta = crossing_number(f)
            bcert = certify(g, oracle, trace, "beta", beta=beta, opt=opt)
            assert bcert.verdict, [c for c in bcert.checks if not c.ok]
            assert bcert.factor == 6 - Fraction(1, beta + 1)
            for row in bcert.iteration_rows:
                assert row.load <= (6 - Fraction(1, beta + 1)) * row.num_cores
            _log_analysis(analyze_trace(g, f, trace, "beta", beta=beta))
            count += 1
        assert count >= 500
        assert time.monotonic() - t0 < 300.0


def test_criterion_5_factor_two_on_proper_families():
    with criterion(5, "200 proper-family instances stay within twice optimum"):
        t0 = time.monotonic()
        count = 0
        for g, f in gens.random_instances("uncrossable", 200, seed=1503):
            oracle = ExplicitFamilyOracle(f)
            trace = solve(g, oracle)
            opt, _ = brute_force_opt(g, oracle)
            assert trace.solution_cost(g) <= 2 * opt
            _log_analysis(analyze_trace(g, f, trace, "uncrossable"))
            count += 1
        assert count >= 200
        assert time.monotonic() - t0 < 120.0


def test_criterion_6_small_cut_families_are_sparse_with_bounded_crossing():
    with criterion(6, "small-cut families sparse; crossing number within cut bound"):
        t0 = time.monotonic()
        rng = random.Random(1604)
        graphs = beta_checked = 0
        while graphs < 100:
            n = rng.randint(3, 8)
            h = gens.random_cap_graph(rng, n)
            fam = smallcuts.materialize_family(h)
            res = is_sparse(fam)
            assert res.holds, (h, res.counterexample)
            graphs += 1

            lam = smallcuts.edge_connectivity(h)
            if len(fam) and lam >= 1 and lam.denominator == 1:
                bound = (int(h.k) - 1) // math.ceil((int(lam) + 1) / 2)
                assert crossing_number(fam) <= bound, (h, bound)
                beta_checked += 1

            if len(fam):
                uni = all_pairs(n)
                m = rng.randint(n - 1, min(10, len(uni)))
                costs = [
                    (u, v, Fraction(rng.randint(1, 5)))
                    for u, v in rng.sample(uni, m)
                ]
                g = CostedGraph.build(n, costs)
                try:
                    trace = solve(g, SmallCutsOracle(h))
                except InfeasibleError:
                    continue
                _log_analysis(analyze_trace(g, fam, trace, "sparse"))
        assert graphs >= 100 and beta_checked >= 30
        assert time.monotonic() - t0 < 300.0


def test_criterion_7_structural_lemmas_hold_on_every_run():
    with criterion(7, "zero shortcut-tree violations across criteria 3-6"):
        if LEMMA_LOG["runs"] == 0:  # standalone invocation: replay a sweep
            for kind in ("gamma", "sparse", "uncrossable"):
                for g, f in gens.random_instances(kind, 100, seed=1707):
                    trace = solve(g, ExplicitFamilyOracle(f))
                    cls = "uncrossable" if kind == "uncrossable" else kind
                    _log_analysis(analyze_trace(g, f, trace, cls))
        assert LEMMA_LOG["runs"] > 0
        assert LEMMA_LOG["violations"] == []


def test_criterion_8_cut_oracle_matches_the_explicit_route():
    with criterion(8, "1000 cut-core queries match; duals never beat optimum"):
        t0 = time.monotonic()
        rng = random.Random(1808)
        solved = 0
        for trial in range(1000):
            n = rng.randint(3, 7)
            h = gens.random_cap_graph(rng, n)
            uni = all_pairs(n)
            j = rng.sample(uni, rng.randint(0, min(4, len(uni))))
            direct = sorted(s.mask for s in SmallCutsOracle(h).cores(j))
            fam = smallcuts.materialize_family(h)
            explicit = sorted(s.mask for s in ExplicitFamilyOracle(fam).cores(j))
            assert direct == explicit, (h, j)

            if trial % 4 == 0:
                m = rng.randint(n - 1, min(10, len(uni)))
                costs = [
                    (u, v, Fraction(rng.randint(1, 6)))
                    for u, v in rng.sample(uni, m)
                ]
                g = CostedGraph.build(n, costs)
                oracle = SmallCutsOracle(h)
                try:
                    trace = solve(g, oracle)
                except InfeasibleError:
                    continue
                opt, _ = brute_force_opt(g, oracle)
                assert opt >= trace.dual.objective(), (h, costs)
                solved += 1
        assert solved >= 100
        assert time.monotonic() - t0 < 120.0


def test_criterion_9_outputs_are_byte_identical_across_runs():
    with criterion(9, "traces, certificates, and generator output reproduce"):
        def trace_bytes():
            out = []
            for g, f in gens.random_instances("gamma", 5, seed=1909):
                oracle = ExplicitFamilyOracle(f)
                trace = solve(g, oracle)
                out.append(dumps_canonical(trace_to_json(g, trace)))
                opt, _ = brute_force_opt(g, oracle)
                cert = certify(g, oracle, trace, "gamma", opt=opt)
                out.append(dumps_canonical(certificate_to_json(cert)))
            return out

        assert trace_bytes() == trace_bytes()

        def gen_bytes():
            docs = [
                bundle_to_json(gens.tight_seven(8)),
                bundle_to_json(gens.tight_six(8)),
                bundle_to_json(gens.tight_beta(8, 2)),
            ]
            docs.extend(
                instance_to_json(Instance(g, f))
                for g, f in gens.random_instances("sparse", 5, seed=1910)
            )
            return [dumps_canonical(d) for d in docs]

        assert gen_bytes() == gen_bytes()
