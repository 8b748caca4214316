"""End-to-end tests of the command line interface via subprocess."""

import json
import os
import subprocess
import sys

import pytest

import pliablecover

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


def test_certify_rejects_a_tampered_trace(tmp_path):
    inst = write(tmp_path, "i.json", TRIANGLE)
    doc = json.loads(run_cli("solve", inst).stdout)
    for row in doc["dual"]["values"]:
        row[1] = [row[1][0] * 3, row[1][1]]
    trace_path = tmp_path / "t.json"
    trace_path.write_text(json.dumps(doc))
    r = run_cli("certify", inst, "--trace", str(trace_path))
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["verdict"] is False
    failed = {c["name"] for c in out["checks"] if not c["ok"]}
    assert "dual-feasible" in failed


TWO_EDGES = {
    "version": "1",
    "graph": {"n": 3, "edges": [[0, 1, [1, 1]], [0, 2, [100, 1]]]},
    "family": {"kind": "explicit", "n": 3, "members": [[0]]},
}


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
    assert where in r.stderr and "not an edge id of a graph with 2 edges" in r.stderr


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


def test_check_family_refuses_nonpositive_samples():
    laminar = json.dumps({"kind": "explicit", "n": 4, "members": [[0], [0, 1]]})
    for prop in ("gamma", "sparse", "crossing-number"):
        r = run_cli(
            "check-family", "--property", prop, "--mode", "sampled", "--samples", "-5", stdin=laminar
        )
        assert r.returncode == 2, (prop, r.stderr)
        assert r.stdout == ""
        assert "samples must be at least 1, got -5" in r.stderr


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


def test_gen_usage_errors():
    assert run_cli("gen", "--kind", "tight7").returncode == 2
    assert run_cli("gen", "--kind", "tight-beta", "--leaves", "4").returncode == 2
    assert run_cli("gen", "--kind", "tight7", "--leaves", "3").returncode == 2
    assert run_cli("gen", "--kind", "gamma", "--count", "0").returncode == 2


@pytest.mark.parametrize("kind", ["gamma", "sparse", "uncrossable"])
def test_gen_refuses_universes_below_two(kind):
    for n in ("1", "0", "-3"):
        r = run_cli("gen", "--kind", kind, "--n", n)
        assert r.returncode == 2, (n, r.stderr)
        assert r.stderr == f"error: universe size n = {n} is below 2\n"
    assert run_cli("gen", "--kind", kind, "--n", "2").returncode == 0


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


def test_guard_refusal_exits_3():
    big = {"kind": "explicit", "n": 18, "members": [[0]]}
    r = run_cli("check-family", "--property", "gamma", stdin=json.dumps(big))
    assert r.returncode == 3
    assert "error:" in r.stderr


@pytest.mark.parametrize("cmd", ["solve", "exact", "certify", "analyze", "witness"])
def test_subcommands_share_the_instance_reader(cmd, tmp_path):
    r = run_cli(cmd, write(tmp_path, "i.json", TRIANGLE))
    assert r.returncode == 0, (cmd, r.stderr)
    assert r.stdout.strip()
