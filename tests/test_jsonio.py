"""Tests for the wire formats: canonical bytes, round trips, schema errors."""

import json
import random
import re
from fractions import Fraction

import pytest

from pliablecover.exact import brute_force_opt, certify
from pliablecover.gens import instance_rng, random_instance, tight_seven, tight_six
from pliablecover.jsonio import (
    Instance,
    SchemaError,
    analysis_to_json,
    bound_report_to_json,
    bundle_parts_from_json,
    bundle_to_json,
    capgraph_to_json,
    certificate_to_json,
    check_result_to_json,
    dumps_canonical,
    family_spec_from_json,
    family_to_json,
    frac_from_json,
    frac_to_json,
    graph_from_json,
    graph_to_json,
    instance_digest,
    instance_from_json,
    instance_to_json,
    trace_from_json,
    trace_to_json,
)
from pliablecover.setfam import (
    ExplicitFamily,
    ExplicitFamilyOracle,
    NodeSet,
    check_family,
)
from pliablecover.smallcuts import CapGraph
from pliablecover.treeanal import analyze_trace, build_tree, verify_bounds
from pliablecover.wgmv import CostedGraph, solve


def small_instance():
    g = CostedGraph.build(3, [(0, 1, 2), (1, 2, Fraction(1, 2))])
    f = ExplicitFamily.from_sets(3, [[0], [2]])
    return Instance(g, f)


# ---------------------------------------------------------------------------
# scalars and canonical form


def test_frac_round_trip():
    assert frac_to_json(Fraction(3, 4)) == [3, 4]
    assert frac_to_json(Fraction(-5)) == [-5, 1]
    assert frac_from_json([3, 4], "x") == Fraction(3, 4)
    assert frac_from_json([2, 4], "x") == Fraction(1, 2)


@pytest.mark.parametrize("bad", [[1], [1, 0], [1, -2], ["1", 2], [True, 1], 7, None])
def test_frac_rejects_malformed_values(bad):
    with pytest.raises(SchemaError):
        frac_from_json(bad, "x")


def test_dumps_canonical_sorts_keys_and_strips_spaces():
    assert dumps_canonical({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    # key order of the input dict must not matter
    assert dumps_canonical({"a": [1, 2], "b": 1}) == dumps_canonical({"b": 1, "a": [1, 2]})


# ---------------------------------------------------------------------------
# families and graphs


def test_family_round_trip():
    f = ExplicitFamily.from_sets(4, [[0], [1, 2], [0, 1, 2]])
    doc = family_to_json(f)
    assert doc == {"kind": "explicit", "n": 4, "members": [[0], [0, 1, 2], [1, 2]]}
    assert family_spec_from_json(doc) == f


def test_capgraph_round_trip():
    h = CapGraph(3, ((0, 1, Fraction(2)), (1, 2, Fraction(1, 2))), Fraction(3))
    doc = capgraph_to_json(h)
    assert doc["kind"] == "small-cuts"
    assert family_spec_from_json(doc) == h


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"n": 3, "members": []}, "missing key 'kind'"),
        ({"kind": "explicit", "members": []}, "missing key 'n'"),
        ({"kind": "explicit", "n": -1, "members": []}, "nonnegative"),
        ({"kind": "explicit", "n": 3, "members": [[]]}, "family"),
        ({"kind": "explicit", "n": 3, "members": [[0, "x"]]}, "list of integers"),
        ({"kind": "laminar", "n": 3}, "unknown family kind"),
        ({"kind": "small-cuts", "n": 3, "capacities": [[0, 1]], "threshold": [1, 1]}, "expected [u, v, cap]"),
        ({"kind": "small-cuts", "n": 3, "capacities": [[0, 1, [1, 0]]], "threshold": [1, 1]}, "denominator"),
    ],
)
def test_family_spec_schema_errors(doc, fragment):
    with pytest.raises(SchemaError) as ei:
        family_spec_from_json(doc)
    assert fragment in str(ei.value).replace("'", "'")


def test_graph_round_trip_and_errors():
    g = CostedGraph.build(4, [(0, 1, Fraction(7, 2)), (2, 3, 1)])
    assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(SchemaError, match="expected"):
        graph_from_json({"n": 4, "edges": [[0, 1]]})
    with pytest.raises(SchemaError, match="endpoints"):
        graph_from_json({"n": 4, "edges": [[0, "1", [1, 1]]]})
    with pytest.raises(SchemaError, match="graph"):
        graph_from_json({"n": 2, "edges": [[0, 0, [1, 1]]]})  # self-loop


def test_booleans_are_not_json_integers():
    # True == 1 in Python, so a boolean endpoint or size would read as an
    # integer yet serialize differently from it, with a different digest.
    with pytest.raises(SchemaError, match="graph.edges\\[0\\]: endpoints must be integers"):
        graph_from_json({"n": 2, "edges": [[False, True, [1, 1]]]})
    with pytest.raises(SchemaError, match="capacities\\[0\\]: endpoints must be integers"):
        family_spec_from_json(
            {"kind": "small-cuts", "n": 2, "capacities": [[0, True, [1, 1]]], "threshold": [1, 1]}
        )
    with pytest.raises(SchemaError, match="graph.n: expected a nonnegative integer"):
        graph_from_json({"n": True, "edges": []})
    with pytest.raises(SchemaError, match="family.n: expected a nonnegative integer"):
        family_spec_from_json({"kind": "explicit", "n": True, "members": []})


# ---------------------------------------------------------------------------
# instances and digests


def test_instance_round_trip_both_family_kinds():
    inst = small_instance()
    assert instance_from_json(instance_to_json(inst)) == inst
    h = CapGraph(3, ((0, 1, Fraction(1)), (1, 2, Fraction(1))), Fraction(2))
    inst2 = Instance(CostedGraph.build(3, [(0, 2, 3)]), h)
    assert instance_from_json(instance_to_json(inst2)) == inst2


def test_instance_rejects_mismatched_universes():
    doc = instance_to_json(small_instance())
    doc["family"]["n"] = 4
    doc["family"]["members"] = [[0], [3]]
    with pytest.raises(SchemaError, match="differs from family universe"):
        instance_from_json(doc)


def test_instance_digest_is_stable():
    inst = small_instance()
    assert (
        instance_digest(inst)
        == "fda429eef65b2c93a726965274051ac36ff33d220551135c4e72c97b1e9f2679"
    )
    # any change to the data changes the digest
    other = Instance(CostedGraph.build(3, [(0, 1, 2), (1, 2, 1)]), inst.family)
    assert instance_digest(other) != instance_digest(inst)


def test_instance_canonical_bytes_are_frozen():
    expected = (
        '{"family":{"kind":"explicit","members":[[0],[2]],"n":3},'
        '"graph":{"edges":[[0,1,[2,1]],[1,2,[1,2]]],"n":3},"version":"1"}'
    )
    assert dumps_canonical(instance_to_json(small_instance())) == expected


# ---------------------------------------------------------------------------
# traces, certificates, reports


def solved_instance():
    g = CostedGraph.build(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
    f = ExplicitFamily.from_sets(4, [[0], [3], [0, 1]])
    trace = solve(g, ExplicitFamilyOracle(f))
    return g, f, trace


def test_trace_round_trip():
    g, _f, trace = solved_instance()
    doc = trace_to_json(g, trace, digest="abc")
    assert doc["version"] == "1" and doc["instance_digest"] == "abc"
    # canonical text survives a JSON round trip unchanged
    assert json.loads(dumps_canonical(doc)) == doc
    assert trace_from_json(doc, g) == trace


def test_read_trace_shares_one_nodeset_per_distinct_core():
    """A read trace shares one object per distinct member list across its
    iterations and dual values, as a solved one does, and certifies the
    same."""
    b = tight_six(8)
    oracle = ExplicitFamilyOracle(b.family)
    trace = solve(b.graph, oracle)
    read = trace_from_json(json.loads(dumps_canonical(trace_to_json(b.graph, trace))), b.graph)
    assert read == trace
    sets = [c for it in read.iterations for c in it.cores] + [s for s, _ in read.dual.values]
    by_mask: dict = {}
    for s in sets:
        by_mask.setdefault(s.mask, set()).add(id(s))
    assert len(sets) > len(by_mask) and all(len(ids) == 1 for ids in by_mask.values())
    assert certify(b.graph, oracle, read, "sparse") == certify(b.graph, oracle, trace, "sparse")


def test_dumps_canonical_matches_json_dumps():
    """The cycle check is skipped, with the same bytes, on every kind of
    document."""
    g, f, trace = solved_instance()
    oracle = ExplicitFamilyOracle(f)
    b = tight_six(4)
    cover = [(i, b.graph.pair(i)) for i in range(len(b.graph.edges))]
    report = verify_bounds(build_tree(b.n, cover, list(b.witness), list(b.cores)), "sparse")
    docs = [
        trace_to_json(g, trace, "d"),
        certificate_to_json(certify(g, oracle, trace, "gamma")),
        bundle_to_json(b),
        analysis_to_json(analyze_trace(g, f, trace, "gamma")),
        bound_report_to_json(report),
        instance_to_json(small_instance()),
    ]
    for doc in docs:
        assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_trace_from_json_checks_a_given_digest():
    g, _f, trace = solved_instance()
    doc = trace_to_json(g, trace, digest="abc")
    assert trace_from_json(doc, g, "abc") == trace
    assert trace_from_json(trace_to_json(g, trace), g, "abc") == trace  # empty digest
    with pytest.raises(SchemaError, match="trace.instance_digest: the trace is of instance abc"):
        trace_from_json(doc, g, "def")
    with pytest.raises(SchemaError, match="expected a string"):
        trace_from_json({**doc, "instance_digest": None}, g, "abc")


def test_trace_from_json_schema_errors():
    g, _f, trace = solved_instance()
    doc = trace_to_json(g, trace)
    bad = json.loads(dumps_canonical(doc))
    del bad["solution"]
    with pytest.raises(SchemaError, match="missing key 'solution'"):
        trace_from_json(bad, g)
    # the fields the run determines must be the bytes it gives
    for keys, forged in (
        (["dual", "values", 0], [[0], [1, 1], "extra"]),
        (["dual", "loads", 0], [2, 2]),
        (["solution"], [-1]),
        (["solution"], [True]),
        (["cost"], [3, 1]),
        (["dual_objective"], [3, 1]),
    ):
        bad = json.loads(dumps_canonical(doc))
        node = bad
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = forged
        where = ".".join(["trace"] + [k for k in keys if isinstance(k, str)])
        with pytest.raises(SchemaError, match=f"^{where}: differs from what the trace's iterations"):
            trace_from_json(bad, g)
    bad = json.loads(dumps_canonical(doc))
    bad["deleted"] = [4]
    with pytest.raises(SchemaError, match="trace.deleted"):
        trace_from_json(bad, g)
    for field, forged in (("added", 4), ("added", None), ("ties", [0, 9])):
        bad = json.loads(dumps_canonical(doc))
        bad["iterations"][0][field] = forged
        with pytest.raises(SchemaError, match=f"trace.iterations\\[0\\].{field}"):
            trace_from_json(bad, g)
    # `added` is the least of the ties, which ascend strictly
    assert (doc["iterations"][0]["added"], doc["iterations"][0]["ties"]) == (0, [0, 2, 3])
    for field, forged in (("ties", []), ("ties", [2, 0, 3]), ("ties", [0, 2, 2]), ("added", 2)):
        bad = json.loads(dumps_canonical(doc))
        bad["iterations"][0][field] = forged
        ties = bad["iterations"][0]["ties"]
        added = bad["iterations"][0]["added"]
        with pytest.raises(SchemaError) as exc:
            trace_from_json(bad, g)
        assert str(exc.value) == f"trace.iterations[0]: added {added} is not the least of strictly ascending ties {ties}"


def test_trace_node_sets_outside_the_universe_name_their_path():
    g, _f, trace = solved_instance()
    doc = trace_to_json(g, trace)
    bad = json.loads(dumps_canonical(doc))
    bad["iterations"][0]["cores"][-1] = [0, 99]
    where = "trace.iterations\\[0\\].cores\\[1\\]"
    with pytest.raises(SchemaError, match=f"{where}: node 99 outside universe of size 4"):
        trace_from_json(bad, g)
    # the dual's sets are derived from the iterations, and any other list is refused
    bad = json.loads(dumps_canonical(doc))
    bad["dual"]["values"][1][0] = [99]
    with pytest.raises(SchemaError, match="^trace.dual.values: differs from what"):
        trace_from_json(bad, g)


def _int_leaves(node, path=()):
    """The path of every integer leaf of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_leaves(value, path + (i,))
    elif type(node) is int:
        yield path


def test_an_edited_trace_is_refused_or_reads_as_the_honest_run():
    """Moving one integer of an honest trace by -1, +1 or +2 gives a
    document that the reader refuses or reads as the honest run, except in
    what no field determines yet: the cores of a zero-raise iteration and
    the ties after the first."""
    rng = random.Random(2026)
    refused = edits = 0
    for i in range(60):
        g, f = random_instance(("gamma", "sparse", "uncrossable")[i % 3], instance_rng(900, i), 6)
        trace = solve(g, ExplicitFamilyOracle(f))
        text = dumps_canonical(trace_to_json(g, trace))
        leaves = list(_int_leaves(json.loads(text)))
        for _ in range(30):
            path, delta = rng.choice(leaves), rng.choice((-1, 1, 2))
            doc = json.loads(text)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += delta
            edits += 1
            try:
                read = trace_from_json(doc, g)
            except SchemaError:
                refused += 1
                continue
            unchecked = path[0] == "iterations" and (
                (path[2] == "cores" and trace.iterations[path[1]].eps == 0) or (path[2] == "ties" and path[3] > 0)
            )
            assert read == trace or unchecked, (i, path, delta)
    assert edits == 1800 and refused > 1600


def test_certificate_to_json_shape():
    g, f, trace = solved_instance()
    oracle = ExplicitFamilyOracle(f)
    opt, _ = brute_force_opt(g, oracle)
    cert = certify(g, oracle, trace, "gamma", opt=opt, instance_digest="d")
    doc = certificate_to_json(cert)
    assert doc["version"] == "1"
    assert doc["family_class"] == "gamma"
    assert doc["factor"] == [7, 1]
    assert doc["verdict"] is True
    assert [c["name"] for c in doc["checks"]][:3] == [
        "dual-nonnegative",
        "dual-feasible",
        "solution-tight",
    ]
    assert all(set(r) == {"index", "num_cores", "load", "bound", "ok"} for r in doc["iterations"])
    json.dumps(doc)  # must be serializable as-is


def test_bound_report_to_json():
    t = build_tree(
        4,
        [(0, (0, 3)), (1, (1, 3)), (2, (2, 3))],
        [NodeSet.from_members(4, [v]) for v in (0, 1, 2)],
        [NodeSet.from_members(4, [v]) for v in (0, 1, 2)],
    )
    rep = verify_bounds(t, "gamma")
    doc = bound_report_to_json(rep)
    assert doc["ok"] is True
    assert doc["counts"] == {
        "black": 3,
        "white": 1,
        "white_surviving": 1,
        "leaves": 3,
        "cores": 3,
        "tree_edges": 3,
    }
    assert {b["name"] for b in doc["bounds"]} >= {"total-weight-gamma", "leaves-vs-black"}
    json.dumps(doc)


def test_analysis_to_json_shape():
    g, f, trace = solved_instance()
    rep = analyze_trace(g, f, trace, "gamma")
    doc = analysis_to_json(rep)
    assert doc["version"] == "1" and doc["ok"] is True
    assert len(doc["iterations"]) == len(trace.iterations)
    json.dumps(doc)


def test_check_result_to_json_carries_the_version():
    doc = check_result_to_json(check_family(ExplicitFamily.from_sets(3, [[0]]), "gamma"))
    assert doc["version"] == "1"
    assert doc["property"] == "gamma-pliable"
    assert doc["holds"] is True


# ---------------------------------------------------------------------------
# bundles


def test_bundle_round_trip_rebuilds_a_verifiable_tree():
    b = tight_six(4)
    doc = json.loads(dumps_canonical(bundle_to_json(b)))
    graph, fam, witness, cores = bundle_parts_from_json(doc)
    assert graph == b.graph and fam == b.family
    assert tuple(witness) == b.witness and tuple(cores) == b.cores
    tree = build_tree(graph.n, [(i, graph.pair(i)) for i in range(len(graph.edges))], witness, cores)
    assert verify_bounds(tree, "sparse").ok


def test_bundle_witness_and_cores_are_the_family_members():
    """A read bundle's witness and core sets are the family's own NodeSets,
    so each set's member tuple is built once."""
    doc = json.loads(dumps_canonical(bundle_to_json(tight_seven(8))))
    _graph, fam, witness, cores = bundle_parts_from_json(doc)
    members = {id(s) for s in fam.members}
    assert all(id(s) in members for s in [*witness, *cores])


@pytest.mark.parametrize("key", ["witness", "cores"])
def test_bundle_node_sets_outside_the_universe_name_their_path(key):
    doc = json.loads(dumps_canonical(bundle_to_json(tight_six(2))))
    doc[key][1] = [0, 99]
    with pytest.raises(SchemaError, match=f"bundle.{key}\\[1\\]: node 99 outside universe of size"):
        bundle_parts_from_json(doc)


def test_bundle_rejects_smallcut_family():
    b = tight_six(2)
    doc = bundle_to_json(b)
    doc["family"] = capgraph_to_json(CapGraph(b.n, (), Fraction(1)))
    with pytest.raises(SchemaError, match="expected an explicit family"):
        bundle_parts_from_json(doc)


# ---------------------------------------------------------------------------
# every array field


def _trace_doc():
    g, _f, trace = solved_instance()
    return json.loads(dumps_canonical(trace_to_json(g, trace))), lambda doc: trace_from_json(doc, g)


def _bundle_doc():
    return json.loads(dumps_canonical(bundle_to_json(tight_six(2)))), bundle_parts_from_json


# JSON path of each array field -> (a valid document and its reader, the
# keys that lead from the document to the field)
ARRAY_FIELDS = {
    "family.members": (lambda: (family_to_json(small_instance().family), family_spec_from_json), ["members"]),
    "family.capacities": (
        lambda: (capgraph_to_json(CapGraph(3, ((0, 1, Fraction(1)),), Fraction(2))), family_spec_from_json),
        ["capacities"],
    ),
    "graph.edges": (lambda: (graph_to_json(small_instance().graph), graph_from_json), ["edges"]),
    "trace.iterations": (_trace_doc, ["iterations"]),
    "trace.iterations[0].cores": (_trace_doc, ["iterations", 0, "cores"]),
    "trace.dual.values": (_trace_doc, ["dual", "values"]),
    "trace.dual.loads": (_trace_doc, ["dual", "loads"]),
    "bundle.witness": (_bundle_doc, ["witness"]),
    "bundle.cores": (_bundle_doc, ["cores"]),
}


@pytest.mark.parametrize("bad", [5, {}, ""], ids=["number", "object", "string"])
@pytest.mark.parametrize("where", list(ARRAY_FIELDS))
def test_every_array_field_must_be_a_list(where, bad):
    # six of these fields once read an object or a string as an empty list
    # and crashed on a number
    make, keys = ARRAY_FIELDS[where]
    doc, read = make()
    read(doc)  # the untouched document is valid
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = bad
    # the dual's arrays are not read but compared with what the run gives
    message = "expected a list"
    if where.startswith("trace.dual."):
        message = "differs from what the trace's iterations and deleted edges give"
    with pytest.raises(SchemaError, match=f"^{re.escape(where)}: {message}$"):
        read(doc)


# ---------------------------------------------------------------------------
# member paths and schema versions


def test_a_bad_member_is_named_by_its_path_once():
    doc = {"kind": "explicit", "n": 3, "members": [[0], "x"]}
    with pytest.raises(SchemaError) as exc:
        family_spec_from_json(doc)
    assert str(exc.value) == "family.members[1]: expected a list of integers"
    bundle, _ = _bundle_doc()
    bundle["family"]["members"][2] = "x"
    with pytest.raises(SchemaError) as exc:
        bundle_parts_from_json(bundle)
    assert str(exc.value) == "bundle.family.members[2]: expected a list of integers"
    # a set that from_sets refuses keeps its single family prefix
    doc["members"] = [[0], [5]]
    with pytest.raises(SchemaError) as exc:
        family_spec_from_json(doc)
    assert str(exc.value) == "family: node 5 outside universe of size 3"


@pytest.mark.parametrize("bad,message", [("x", "expected a list of integers"), ([99], "node 99 outside")])
def test_a_bad_core_deep_in_a_trace_is_named_by_its_path(bad, message):
    # a valid list is read without a name per element; the names are made
    # only when an element fails, and must still lead to that element
    bundle = tight_six(4)
    g = bundle.graph
    doc = json.loads(dumps_canonical(trace_to_json(g, solve(g, ExplicitFamilyOracle(bundle.family)))))
    cores = doc["iterations"][3]["cores"]
    assert len(doc["iterations"]) > 4 and len(cores) > 1
    cores[1] = bad
    with pytest.raises(SchemaError, match=f"^{re.escape('trace.iterations[3].cores[1]: ' + message)}"):
        trace_from_json(doc, g)


# document name -> a valid document and its reader
VERSIONED = {
    "instance": lambda: (instance_to_json(small_instance()), instance_from_json),
    "trace": _trace_doc,
    "bundle": _bundle_doc,
}


@pytest.mark.parametrize(
    "version,got",
    [(None, "no version"), (5, "5"), ({}, "{}"), ("2", "'2'")],
    ids=["missing", "number", "object", "other"],
)
@pytest.mark.parametrize("where", list(VERSIONED))
def test_readers_refuse_a_missing_or_foreign_version(where, version, got):
    doc, read = VERSIONED[where]()
    read(doc)  # the untouched document is valid
    if version is None:
        del doc["version"]
    else:
        doc["version"] = version
    with pytest.raises(SchemaError) as exc:
        read(doc)
    assert str(exc.value) == f"{where}.version: expected '1', got {got}"
