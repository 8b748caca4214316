"""End-to-end tests of the command line interface via subprocess."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest

import pliablecover
import pliablecover.cli as cli
from pliablecover.gens import tight_six
from pliablecover.jsonio import Instance, instance_from_json, instance_to_json, trace_from_json, trace_to_json
from pliablecover.setfam import NodeSet, bits
from pliablecover.smallcuts import beta_bound
from pliablecover.wgmv import IterationRecord, RunTrace

CMD = [sys.executable, "-m", "pliablecover"]
# The subprocess imports the same package as these tests, installed or not.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(pliablecover.__file__)))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

TRIANGLE = {
    "version": "1",
    "graph": {"n": 3, "edges": [[0, 1, [1, 1]], [1, 2, [1, 1]], [0, 2, [2, 1]]]},
    "family": {"kind": "explicit", "n": 3, "members": [[0], [2]]},
}

INFEASIBLE = {
    "version": "1",
    "graph": {"n": 3, "edges": [[1, 2, [1, 1]]]},
    "family": {"kind": "explicit", "n": 3, "members": [[0]]},
}


def run_cli(*args, stdin=None):
    return subprocess.run(
        CMD + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=ENV,
    )


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_version_banner():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == "pliablecover 0.1.0 (schema 1)"


# ---------------------------------------------------------------------------
# solve / exact / certify / witness


def test_solve_reads_stdin_and_prints_a_trace():
    r = run_cli("solve", stdin=json.dumps(TRIANGLE))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["version"] == "1"
    assert doc["solution"] == [0, 1]
    assert doc["cost"] == [2, 1]
    assert len(doc["instance_digest"]) == 64


def test_exact_optimum(tmp_path):
    r = run_cli("exact", write(tmp_path, "i.json", TRIANGLE))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["opt_cost"] == [2, 1]
    assert doc["solution"] == [0, 1]


def test_certify_fresh_run_and_stored_trace(tmp_path):
    inst = write(tmp_path, "i.json", TRIANGLE)
    r = run_cli("certify", inst, "--with-opt")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["verdict"] is True
    assert doc["factor"] == [7, 1]
    assert {c["name"] for c in doc["checks"]} >= {"cost-vs-opt", "dual-below-opt"}

    trace_path = tmp_path / "t.json"
    trace_path.write_text(run_cli("solve", inst).stdout)
    r = run_cli("certify", inst, "--trace", str(trace_path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] is True


def written(inst_doc, iterations, deleted=()):
    """The trace document of a forged run, written as `trace_to_json` writes
    an honest one: its solution, dual, loads and sums agree with it."""
    graph = instance_from_json(inst_doc).graph
    return trace_to_json(graph, RunTrace(tuple(iterations), tuple(deleted)))


def test_certify_rejects_a_tampered_trace(tmp_path):
    inst = write(tmp_path, "i.json", TRIANGLE)
    honest = run_cli("solve", inst).stdout
    doc = json.loads(honest)
    for row in doc["dual"]["values"]:
        row[1] = [row[1][0] * 3, row[1][1]]
    trace_path = tmp_path / "t.json"
    trace_path.write_text(json.dumps(doc))
    r = run_cli("certify", inst, "--trace", str(trace_path))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: trace.dual.values: differs from what")

    # the same tripled dual, from tripled raises written as a run, certifies false
    run = trace_from_json(json.loads(honest), instance_from_json(TRIANGLE).graph)
    forged = written(TRIANGLE, [dataclasses.replace(it, eps=3 * it.eps) for it in run.iterations], run.deleted)
    assert forged["dual"]["values"] == doc["dual"]["values"]
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", forged))
    assert r.returncode == 1, r.stderr
    out = json.loads(r.stdout)
    assert out["verdict"] is False
    failed = {c["name"] for c in out["checks"] if not c["ok"]}
    assert "dual-feasible" in failed


TWO_EDGES = {
    "version": "1",
    "graph": {"n": 3, "edges": [[0, 1, [1, 1]], [0, 2, [100, 1]]]},
    "family": {"kind": "explicit", "n": 3, "members": [[0]]},
}


def test_certify_refuses_duals_on_non_members(tmp_path):
    # {2} is not a member, so its dual value bounds nothing: OPT is 1, not 100.
    # The run raises {0} and {2} by 1, then {2} alone by 98, and drops edge 0.
    def forged(first):
        return written(
            TWO_EDGES,
            [
                IterationRecord((NodeSet(3, 0b001), NodeSet(3, 0b100)), Fraction(first), (0,)),
                IterationRecord((NodeSet(3, 0b100),), Fraction(99 - first), (1,)),
            ],
            deleted=(0,),
        )

    doc = forged(1)
    assert (doc["solution"], doc["dual"]["values"]) == ([1], [[[0], [1, 1]], [[2], [99, 1]]])
    inst = write(tmp_path, "i.json", TWO_EDGES)
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", doc), "--family-class", "uncrossable")
    assert r.returncode == 1, r.stderr
    out = json.loads(r.stdout)
    assert out["verdict"] is False
    assert [c for c in out["checks"] if not c["ok"]] == [
        {"name": "dual-feasible", "ok": False, "detail": "dual values on non-members: [[2]]"}
    ]

    doc = forged(2)  # loads: edge 0 carries 2 > 1, edge 1 101 > 100
    assert doc["dual"]["values"] == [[[0], [2, 1]], [[2], [99, 1]]]
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", doc), "--family-class", "uncrossable")
    row = next(c for c in json.loads(r.stdout)["checks"] if c["name"] == "dual-feasible")
    assert row["detail"] == "edges over cost: [0, 1]; dual values on non-members: [[2]]"


def test_certify_refuses_a_trace_of_another_instance(tmp_path):
    inst = write(tmp_path, "i.json", TRIANGLE)
    honest = run_cli("solve", inst).stdout
    expected = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", json.loads(honest)))
    assert expected.returncode == 0

    # every edge id of this trace is in range for TRIANGLE; only the digest tells
    other = json.loads(run_cli("solve", write(tmp_path, "o.json", TWO_EDGES)).stdout)
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", other))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "trace.instance_digest" in r.stderr and other["instance_digest"] in r.stderr

    doc = json.loads(honest)
    doc["instance_digest"] = 7
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", doc))
    assert r.returncode == 2 and "expected a string" in r.stderr

    # library callers of trace_to_json write an empty digest, which is accepted
    doc["instance_digest"] = ""
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", doc))
    assert (r.returncode, r.stdout) == (0, expected.stdout)


@pytest.mark.parametrize("forged", [[0, 1, 1], [1, 0]], ids=["repeated", "descending"])
def test_certify_refuses_a_solution_that_is_not_strictly_ascending(tmp_path, forged):
    # the solution is the picks less the drops, ascending, so no other list is read
    inst = write(tmp_path, "i.json", TRIANGLE)
    doc = json.loads(run_cli("solve", inst).stdout)
    assert doc["solution"] == [0, 1]
    doc["solution"] = forged
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", doc))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: trace.solution: differs from what the trace's iterations and deleted edges give\n"


@pytest.mark.parametrize("forged", [{}, 5], ids=["object", "number"])
def test_certify_refuses_iterations_that_are_not_a_list(tmp_path, forged):
    # an object once read as no iterations (exit 0), a number crashed (exit 4)
    inst = write(tmp_path, "i.json", TRIANGLE)
    doc = json.loads(run_cli("solve", inst).stdout)
    doc["iterations"] = forged
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", doc))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: trace.iterations: expected a list\n")


@pytest.mark.parametrize(
    "field, forged",
    [
        ("solution", [-2]),  # would wrap around to edge 0
        ("solution", [7]),  # would end in an IndexError
        ("deleted", [2]),
        ("added", "0"),
        ("ties", [0, -1]),
    ],
)
def test_certify_refuses_edge_ids_outside_the_graph(tmp_path, field, forged):
    inst = write(tmp_path, "i.json", TWO_EDGES)
    doc = json.loads(run_cli("solve", inst).stdout)
    if field in ("added", "ties"):
        doc["iterations"][0][field] = forged
        where = f"trace.iterations[0].{field}"
    else:
        doc[field] = forged
        where = f"trace.{field}"
    r = run_cli("certify", inst, "--trace", write(tmp_path, "t.json", doc))
    assert r.returncode == 2
    assert r.stdout == ""
    # the solution is not read but compared with the one the run gives
    reason = "differs from what the trace's iterations" if field == "solution" else "not an edge id of a graph with 2 edges"
    assert where in r.stderr and reason in r.stderr


def test_witness_assignment(tmp_path):
    r = run_cli("witness", write(tmp_path, "i.json", TRIANGLE))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["solution"] == [0, 1]
    assert doc["witness"] == [[0], [2]]


def test_solve_infeasible_instance_reports_the_core():
    r = run_cli("solve", stdin=json.dumps(INFEASIBLE))
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"version": "1", "error": "infeasible", "core": [0]}


# ---------------------------------------------------------------------------
# analyze


def test_analyze_bundle_pipeline(tmp_path):
    gen = run_cli("gen", "--kind", "tight6", "--leaves", "8")
    assert gen.returncode == 0
    r = run_cli("analyze", "-", "--family-class", "sparse", stdin=gen.stdout)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["mode"] == "bundle"
    assert doc["ok"] is True
    assert doc["report"]["total_weight"] == 46
    assert doc["report"]["counts"]["black"] == 9
    assert doc["report"]["counts"]["leaves"] == 8


def test_analyze_bundle_uses_its_own_beta(tmp_path):
    gen = run_cli("gen", "--kind", "tight-beta", "--leaves", "4", "--beta", "2")
    r = run_cli("analyze", "-", "--family-class", "beta", stdin=gen.stdout)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["beta"] == 2
    names = {b["name"] for b in doc["report"]["bounds"]}
    assert "total-weight-beta" in names


@pytest.mark.parametrize("cls", ["gamma", "sparse", "uncrossable"])
def test_analyze_bundle_takes_its_beta_only_for_class_beta(cls, monkeypatch, capsys):
    assert cli.main(["gen", "--kind", "tight-beta", "--leaves", "4", "--beta", "2"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    # the 6-ratio construction is over the uncrossable bound of 2
    assert cli.main(["analyze", "-", "--family-class", cls]) == (1 if cls == "uncrossable" else 0)
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta"] is None and doc["report"]["beta"] is None
    assert "total-weight-beta" not in {b["name"] for b in doc["report"]["bounds"]}


EMPTY = {
    "version": "1",
    "graph": {"n": 3, "edges": []},
    "family": {"kind": "explicit", "n": 3, "members": []},
}


def _no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no work may run before the (class, beta) check")

    for name in ("solve", "brute_force_opt", "build_tree", "analyze_trace", "certify"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", "{inst}", "--family-class", "beta"], "needs a crossing number"),
        (["analyze", "{inst}", "--family-class", "sparse", "--beta", "2"], "takes no crossing number"),
        (["certify", "{inst}", "--family-class", "gamma", "--beta", "3"], "takes no crossing number"),
        (["certify", "{inst}", "--family-class", "beta", "--with-opt"], "needs a crossing number"),
        (["certify", "{inst}", "--family-class", "beta", "--beta", "0"], "needs a crossing number"),
    ],
    ids=["analyze-beta", "analyze-sparse-beta", "certify-gamma-beta", "certify-beta-opt", "certify-beta-0"],
)
def test_class_and_beta_are_checked_before_any_work(argv, message, tmp_path, monkeypatch, capsys):
    # The empty family gives a run with no iterations, where nothing later
    # would look at the crossing number.
    _no_work(monkeypatch)
    inst = write(tmp_path, "i.json", EMPTY)
    assert cli.main([inst if a == "{inst}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and "Traceback" not in err


# A path 0-1-2-3 of unit capacities under k = 5: every proper subset is a
# small cut, the edge connectivity is 1, and beta_bound is (5-1) // 1 = 4.
SMALL_CUTS = {
    "version": "1",
    "graph": {"n": 4, "edges": [[0, 1, [1, 1]], [1, 2, [2, 1]], [2, 3, [1, 1]], [0, 3, [3, 1]], [0, 2, [1, 1]]]},
    "family": {
        "kind": "small-cuts",
        "n": 4,
        "capacities": [[0, 1, [1, 1]], [1, 2, [1, 1]], [2, 3, [1, 1]]],
        "threshold": [5, 1],
    },
}


def test_certify_class_beta_takes_the_beta_bound_of_a_small_cut_instance(tmp_path, capsys):
    inst = write(tmp_path, "i.json", SMALL_CUTS)
    assert beta_bound(instance_from_json(SMALL_CUTS).family) == 4
    assert cli.main(["certify", inst, "--family-class", "beta"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["beta"], doc["factor"], doc["verdict"]) == (4, [29, 5], True)  # 6 - 1/(4+1)
    assert cli.main(["certify", inst, "--family-class", "beta", "--beta", "2"]) == 0  # a given beta wins
    assert json.loads(capsys.readouterr().out)["beta"] == 2


@pytest.mark.parametrize(
    "family",
    [{"threshold": [9, 2]}, {"capacities": [[0, 1, [1, 2]], [1, 2, [1, 1]], [2, 3, [1, 1]]]}],
    ids=["fractional-k", "fractional-connectivity"],
)
def test_certify_class_beta_refuses_a_small_cut_instance_without_an_integer_bound(family, tmp_path, monkeypatch, capsys):
    # On an explicit instance it refuses too: test_class_and_beta_are_checked_before_any_work.
    doc = {**SMALL_CUTS, "family": {**SMALL_CUTS["family"], **family}}
    _no_work(monkeypatch)
    assert cli.main(["certify", write(tmp_path, "i.json", doc), "--family-class", "beta"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "beta bound requires integer threshold and integer edge connectivity" in err and "Traceback" not in err


def test_analyze_bundle_checks_its_beta_before_building_the_tree(monkeypatch, capsys):
    assert cli.main(["gen", "--kind", "tight6", "--leaves", "2"]) == 0
    bundle = capsys.readouterr().out  # a tight6 bundle carries beta null
    _no_work(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(bundle))
    assert cli.main(["analyze", "-", "--family-class", "beta"]) == 2
    assert "needs a crossing number" in capsys.readouterr().err


@pytest.mark.parametrize("field,index", [("witness", 1), ("cores", 1)])
def test_analyze_malformed_bundle_exits_2(field, index, monkeypatch, capsys):
    # a repeated witness set, or a core repeated so that two cores overlap
    assert cli.main(["gen", "--kind", "tight6", "--leaves", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc[field][index] = doc[field][0]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["analyze", "-", "--family-class", "sparse"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "pairwise" in err and "Traceback" not in err


@pytest.mark.parametrize("field,forged", [("witness", 5), ("cores", {})], ids=["witness-number", "cores-object"])
def test_analyze_bundle_with_a_field_that_is_not_a_list_exits_2(field, forged, monkeypatch, capsys):
    # a number witness list crashed (exit 4); an object core list read as no
    # cores, a negative verdict (exit 1)
    assert cli.main(["gen", "--kind", "tight6", "--leaves", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc[field] = forged
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["analyze", "-", "--family-class", "sparse"]) == 2
    assert capsys.readouterr() == ("", f"error: bundle.{field}: expected a list\n")


def test_overlapping_residual_cores_are_a_finding(monkeypatch, capsys):
    doc = {
        "version": "1",
        "graph": {"n": 4, "edges": [[0, 1, [1, 1]], [1, 2, [1, 1]], [2, 3, [1, 1]]]},
        "family": {"kind": "explicit", "n": 4, "members": [[0, 1], [1, 2]]},
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["solve", "-"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "version": "1",
        "error": "finding",
        "detail": "cores not pairwise disjoint: [0, 1] and [1, 2]",
    }
    assert err == ""


def test_analyze_instance_mode(tmp_path):
    r = run_cli("analyze", write(tmp_path, "i.json", TRIANGLE))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["mode"] == "trace"
    assert doc["ok"] is True
    assert len(doc["iterations"]) >= 1


def test_analyze_writes_dot_output(tmp_path):
    gen = run_cli("gen", "--kind", "tight7", "--leaves", "2")
    dot_path = tmp_path / "tree.dot"
    r = run_cli("analyze", "-", "--dot", str(dot_path), stdin=gen.stdout)
    assert r.returncode == 0
    text = dot_path.read_text()
    assert text.startswith("digraph shortcut_tree {")
    assert text.endswith("}\n")


def test_analyze_refuses_dot_for_an_instance_before_solving(tmp_path, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("solve must not run")

    monkeypatch.setattr(cli, "solve", no_solve)
    dot_path = tmp_path / "tree.dot"
    code = cli.main(["analyze", write(tmp_path, "i.json", TRIANGLE), "--dot", str(dot_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "--dot applies to bundle input only" in err
    assert not dot_path.exists()


def test_analyze_a_1024_leaf_bundle_in_process(monkeypatch, capsys):
    # A scaling smoke test with no time limit: an analyzer quadratic in the
    # tree size needs tens of seconds here, which shows in the suite time.
    assert cli.main(["gen", "--kind", "tight6", "--leaves", "1024"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert cli.main(["analyze", "-", "--family-class", "sparse"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["report"]["ok"] is True
    assert doc["report"]["total_weight"] == 6 * 1024 - 2


# ---------------------------------------------------------------------------
# check-family


def test_check_family_accepts_and_rejects(tmp_path):
    laminar = {"kind": "explicit", "n": 4, "members": [[0], [0, 1], [0, 1, 2]]}
    r = run_cli("check-family", "--property", "sparse", stdin=json.dumps(laminar))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["holds"] is True and doc["counterexample"] is None

    nested = {"kind": "explicit", "n": 6, "members": [[0, 1], [0, 1, 2, 3], [1, 4]]}
    r = run_cli("check-family", "--property", "gamma", stdin=json.dumps(nested))
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["holds"] is False
    assert doc["counterexample"]["d"] == [2, 3]


def test_reading_a_file_leaves_no_unclosed_handle(tmp_path):
    laminar = {"kind": "explicit", "n": 4, "members": [[0], [0, 1]]}
    path = write(tmp_path, "f.json", laminar)
    r = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pliablecover", "check-family", path, "--property", "pliable"],
        capture_output=True,
        text=True,
        timeout=120,
        env=ENV,
    )
    assert r.returncode == 0, r.stderr
    assert "ResourceWarning" not in r.stderr


def test_check_family_reports_pairwise_counterexamples():
    crossing = json.dumps({"kind": "explicit", "n": 4, "members": [[0, 1], [1, 2]]})
    expected = {
        "pliable": {"a": [0, 1], "b": [1, 2]},
        "uncrossable": {"a": [0, 1], "b": [1, 2]},
        "proper": {"complement": [2, 3], "s": [0, 1]},
    }
    for prop, counterexample in expected.items():
        r = run_cli("check-family", "--property", prop, stdin=crossing)
        assert r.returncode == 1, (prop, r.stderr)
        doc = json.loads(r.stdout)
        assert doc["holds"] is False and doc["counterexample"] == counterexample


def test_check_family_names_a_bad_member_by_its_path():
    doc = json.dumps({"kind": "explicit", "n": 3, "members": [[0], "x"]})
    r = run_cli("check-family", "--property", "pliable", stdin=doc)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: family.members[1]: expected a list of integers\n"


def test_check_family_crossing_number():
    laminar = {"kind": "explicit", "n": 4, "members": [[0], [0, 1], [0, 1, 2]]}
    r = run_cli("check-family", "--property", "crossing-number", stdin=json.dumps(laminar))
    assert r.returncode == 0
    assert json.loads(r.stdout)["crossing_number"] == 1


def test_check_family_materializes_small_cut_families():
    doc = {
        "kind": "small-cuts",
        "n": 3,
        "capacities": [[0, 1, [1, 1]], [1, 2, [1, 1]], [0, 2, [1, 1]]],
        "threshold": [3, 1],
    }
    r = run_cli("check-family", "--property", "pliable", stdin=json.dumps(doc))
    assert r.returncode == 0
    assert json.loads(r.stdout)["holds"] is True


# ---------------------------------------------------------------------------
# gen


def test_gen_random_batch_is_parallel_safe():
    args = ("gen", "--kind", "gamma", "--count", "4", "--seed", "5")
    serial = run_cli(*args, "--jobs", "1")
    parallel = run_cli(*args, "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout
    doc = json.loads(serial.stdout)
    assert doc["kind"] == "gamma" and len(doc["instances"]) == 4


def test_gen_jobs_is_capped_by_count_and_cpus(monkeypatch, capsys):
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, starts no
        process and maps serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    args = ["gen", "--kind", "gamma", "--count", "3", "--seed", "5"]
    assert cli.main([*args, "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for cpus, expected in ((8, [3]), (2, [2]), (None, [])):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert cli.main([*args, "--jobs", "100000"]) == 0
        assert capsys.readouterr().out == serial
        assert sizes == expected


def test_gen_usage_errors():
    assert run_cli("gen", "--kind", "tight7").returncode == 2
    assert run_cli("gen", "--kind", "tight-beta", "--leaves", "4").returncode == 2
    assert run_cli("gen", "--kind", "tight7", "--leaves", "3").returncode == 2
    assert run_cli("gen", "--kind", "gamma", "--count", "0").returncode == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--kind", "gamma", "--jobs", "0"], "--jobs must be at least 1"),
        (["--kind", "sparse", "--jobs", "-3"], "--jobs must be at least 1"),
        (["--kind", "tight6", "--leaves", "4", "--n", "5"], "--n applies to the random kinds only"),
        (["--kind", "gamma", "--leaves", "4"], "--leaves and --beta apply to the tight kinds only"),
        (["--kind", "uncrossable", "--beta", "2"], "--leaves and --beta apply to the tight kinds only"),
        (["--kind", "tight6", "--leaves", "4", "--beta", "2"], "applies to it only"),
        (["--kind", "tight7", "--leaves", "4", "--beta", "2"], "applies to it only"),
        (["--kind", "tight6", "--leaves", "2", "--count", "3"], "--count applies to the random kinds only"),
        (["--kind", "tight7", "--leaves", "2", "--seed", "0"], "--seed applies to the random kinds only"),
        (["--kind", "tight-beta", "--leaves", "2", "--beta", "2", "--jobs", "1"], "--jobs applies to the random kinds only"),
    ],
)
def test_gen_refuses_arguments_of_another_kind(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("generation must not start")

    monkeypatch.setattr(cli, "random_instance", refuse)
    for kind in cli._TIGHT_KINDS:
        monkeypatch.setitem(cli._TIGHT_KINDS, kind, refuse)
    assert cli.main(["gen", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tight6", "--leaves", "1"], "leaves must be a power of two and at least 2, got 1"),
        (["tight-beta", "--leaves", "2", "--beta", "4"], "beta must be a power of two and at most leaves = 2, got 4"),
        (["tight7", "--leaves", "3"], "leaves must be a power of two and at least 2, got 3"),
        (["tight6", "--leaves", "0"], "leaves must be a power of two and at least 2, got 0"),
    ],
)
def test_gen_refuses_sizes_the_tight_constructions_cannot_take(argv, message):
    r = run_cli("gen", "--kind", *argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["gamma", "sparse", "uncrossable"])
def test_gen_refuses_universes_below_two(kind):
    for n in ("1", "0", "-3"):
        r = run_cli("gen", "--kind", kind, "--n", n)
        assert r.returncode == 2, (n, r.stderr)
        assert r.stderr == f"error: universe size n = {n} is below 2\n"
    assert run_cli("gen", "--kind", kind, "--n", "2").returncode == 0


@pytest.mark.parametrize("kind,n,limit", [("uncrossable", 12, 2_000_000)])
def test_gen_refuses_sizes_no_proposal_can_pass(kind, n, limit):
    r = run_cli("gen", "--kind", kind, "--n", str(n))
    assert r.returncode == 3
    assert r.stdout == ""
    pairs = comb(2 ** (n - 1), 2)
    assert r.stderr == f"error: instance too large for verified {kind} generation: member pairs = {pairs} > {limit}\n"


def test_gen_draws_uncrossable_families_at_eleven_nodes():
    r = run_cli("gen", "--kind", "uncrossable", "--n", "11")
    assert r.returncode == 0, r.stderr
    assert [doc["family"]["n"] for doc in json.loads(r.stdout)["instances"]] == [11]


def test_gen_draws_gamma_families_past_sixteen_nodes():
    # The gamma check has no universe guard, so neither has its generator.
    r = run_cli("gen", "--kind", "gamma", "--n", "20", "--count", "4", "--seed", "0")
    assert r.returncode == 0, r.stderr
    assert [doc["family"]["n"] for doc in json.loads(r.stdout)["instances"]] == [20] * 4


# ---------------------------------------------------------------------------
# error channels


def test_malformed_json_exits_2_with_position():
    r = run_cli("solve", stdin='{"graph": ')
    assert r.returncode == 2
    assert r.stdout == ""
    assert "malformed JSON at line" in r.stderr


def test_schema_error_exits_2():
    r = run_cli("solve", stdin='{"version": "1"}')
    assert r.returncode == 2
    assert "missing key" in r.stderr


def test_missing_file_exits_2():
    r = run_cli("solve", "/nonexistent/instance.json")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_directory_input_exits_2(tmp_path):
    r = run_cli("solve", str(tmp_path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error:" in r.stderr and "Traceback" not in r.stderr


def test_closed_stdout_exits_141_silently():
    # The read end is closed before the command writes, so its first write
    # fails with EPIPE, as when `head` has read all it wants.
    proc = subprocess.Popen(
        CMD + ["gen", "--kind", "tight6", "--leaves", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_guard_refusal_exits_3():
    # All 4094 proper nonempty subsets of 12 nodes: a pliable family, so the
    # pair scan runs until a row of pairs passes the class-check budget.
    members = range(1, 2**12 - 1)
    crowded = {"kind": "explicit", "n": 12, "members": [bits(m) for m in members]}
    r = run_cli("check-family", "--property", "pliable", stdin=json.dumps(crowded))
    assert r.returncode == 3
    rows = accumulate(range(len(members) - 1, -1, -1))
    used = next(x for x in rows if x > 2_000_000)
    assert r.stderr == f"error: instance too large for exhaustive pliability check: candidate tuples examined = {used} > 2000000\n"


def test_pair_scan_completes_on_a_thousand_and_one_members():
    crowded = {"kind": "explicit", "n": 10, "members": [bits(m) for m in range(1, 1002)]}
    r = run_cli("check-family", "--property", "pliable", stdin=json.dumps(crowded))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["holds"] is True


def test_exhaustive_commands_run_on_the_tight_six_instance(tmp_path):
    # 38 edges and a 38-edge solution: cheap searches, whatever the size.
    b = tight_six(8)
    path = write(tmp_path, "i.json", instance_to_json(Instance(b.graph, b.family)))
    r = run_cli("exact", path)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["opt_cost"] == [46, 1]
    r = run_cli("certify", path, "--with-opt", "--family-class", "sparse")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["opt_cost"] == [46, 1]
    r = run_cli("witness", path)
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["witness"]) == 38
    r = run_cli("analyze", path, "--family-class", "sparse")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["ok"] is True


@pytest.mark.parametrize("cmd", ["solve", "exact", "certify", "analyze", "witness"])
def test_subcommands_share_the_instance_reader(cmd, tmp_path):
    r = run_cli(cmd, write(tmp_path, "i.json", TRIANGLE))
    assert r.returncode == 0, (cmd, r.stderr)
    assert r.stdout.strip()


def test_unexpected_exception_exits_4_with_traceback(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "solve", crash)
    assert cli.main(["solve", "-"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err
