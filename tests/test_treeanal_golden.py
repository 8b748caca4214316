"""Golden analyzer outputs, captured before the analyzer was indexed.

Each entry is the first 16 hex digits of the SHA-256 of one canonical
output: `bound_report_to_json` of a tight bundle's tree under every family
class (beta 4 for class beta), `emit_dot` of that tree, and
`analysis_to_json` of a solved random instance under its own class.  Any
change to a report, violation string, bad-pair order or DOT line shows up
here.
"""

import hashlib

import pytest

from pliablecover.exact import FAMILY_CLASSES
from pliablecover.gens import instance_rng, random_instance, tight_beta, tight_seven, tight_six
from pliablecover.jsonio import analysis_to_json, bound_report_to_json, dumps_canonical
from pliablecover.setfam import ExplicitFamilyOracle
from pliablecover.treeanal import analyze_trace, build_tree, emit_dot, verify_bounds
from pliablecover.wgmv import solve

CONSTRUCTIONS = {
    "tight6": tight_six,
    "tight7": tight_seven,
    "tightbeta4": lambda leaves: tight_beta(leaves, 4),
}
LEAVES = (4, 16, 64, 128)
SEED = 55
KINDS = ("gamma", "sparse", "uncrossable")
DRAWS = 10  # per kind

GOLDEN = {
    "analysis:gamma-0:gamma": "3efa08c541fa89ca",
    "analysis:gamma-1:gamma": "a26fd7525719bf0f",
    "analysis:gamma-2:gamma": "e0b5d96c58768d02",
    "analysis:gamma-3:gamma": "7d3f83a3b5ecf8d1",
    "analysis:gamma-4:gamma": "52e5b18eec7a4c25",
    "analysis:gamma-5:gamma": "ce4ce4c955263634",
    "analysis:gamma-6:gamma": "0abc23e645ff322c",
    "analysis:gamma-7:gamma": "617a2bd217f3606c",
    "analysis:gamma-8:gamma": "bc47af2416a83da9",
    "analysis:gamma-9:gamma": "4822ca51a8e68180",
    "analysis:sparse-0:sparse": "a91e05d4adc610c8",
    "analysis:sparse-1:sparse": "893f3afebfb0b81f",
    "analysis:sparse-2:sparse": "7218635a63c0bc90",
    "analysis:sparse-3:sparse": "4fd8b009d30a2236",
    "analysis:sparse-4:sparse": "f66baa20bc5509a4",
    "analysis:sparse-5:sparse": "c11bb4108c4d60f6",
    "analysis:sparse-6:sparse": "ddbb6c3fb26a91d4",
    "analysis:sparse-7:sparse": "d547003c48890cea",
    "analysis:sparse-8:sparse": "5bd9967be4b585b2",
    "analysis:sparse-9:sparse": "3040ae1b534b5524",
    "analysis:uncrossable-0:uncrossable": "872e6354ef06d30f",
    "analysis:uncrossable-1:uncrossable": "59ae721cb096f53a",
    "analysis:uncrossable-2:uncrossable": "9c6e0259924fd1d7",
    "analysis:uncrossable-3:uncrossable": "74d554f97a834399",
    "analysis:uncrossable-4:uncrossable": "890f338aef34ab29",
    "analysis:uncrossable-5:uncrossable": "7ea9dbb9ba92a3b2",
    "analysis:uncrossable-6:uncrossable": "2f02c41bcdc7d585",
    "analysis:uncrossable-7:uncrossable": "c34d66d96aa78bf3",
    "analysis:uncrossable-8:uncrossable": "d20a41d0cff8c426",
    "analysis:uncrossable-9:uncrossable": "2c3ad692e85f678c",
    "dot:tight6-128": "981edf4e0466da51",
    "dot:tight6-16": "8bfad55c6662fd21",
    "dot:tight6-4": "ee7d68f315288ecb",
    "dot:tight6-64": "73226bf5be6886cb",
    "dot:tight7-128": "560ba10046f16871",
    "dot:tight7-16": "abb7201932b223da",
    "dot:tight7-4": "ea48e87e63af77cb",
    "dot:tight7-64": "e046f8e9d6afbc41",
    "dot:tightbeta4-128": "af6cb229238ffbad",
    "dot:tightbeta4-16": "b56ca31483257b78",
    "dot:tightbeta4-4": "f73526591b07b7d9",
    "dot:tightbeta4-64": "801cd482b604f797",
    "report:tight6-128:beta": "366801bf57098638",
    "report:tight6-128:gamma": "480e57d7bbaf6882",
    "report:tight6-128:sparse": "28ef257f980fde6c",
    "report:tight6-128:uncrossable": "ec2dcecdefd25c6c",
    "report:tight6-16:beta": "585d7fbb1451b6d7",
    "report:tight6-16:gamma": "f2b3cfab4708c06a",
    "report:tight6-16:sparse": "55749774ee109091",
    "report:tight6-16:uncrossable": "f7f95acc23fde4b7",
    "report:tight6-4:beta": "d89b35e4c58f64b0",
    "report:tight6-4:gamma": "3dd4765b33fa9322",
    "report:tight6-4:sparse": "23101d7723f07356",
    "report:tight6-4:uncrossable": "8ebb912d8a986487",
    "report:tight6-64:beta": "06e1326d6ed1a706",
    "report:tight6-64:gamma": "e0dcf61464c6ac90",
    "report:tight6-64:sparse": "1b5d2e0ba42f9079",
    "report:tight6-64:uncrossable": "ffe833c1261fcce2",
    "report:tight7-128:beta": "c68fa37f282c3d3d",
    "report:tight7-128:gamma": "c56011aa91c6101e",
    "report:tight7-128:sparse": "9e82b32a45742c3f",
    "report:tight7-128:uncrossable": "728e1c9aa1bc3de5",
    "report:tight7-16:beta": "d2be77edbbcc06b6",
    "report:tight7-16:gamma": "fe6c435e6df090f6",
    "report:tight7-16:sparse": "0f5a681a2e7d2b45",
    "report:tight7-16:uncrossable": "04ed193a98d1cdb0",
    "report:tight7-4:beta": "5f74633271e2f558",
    "report:tight7-4:gamma": "e2cfdb179c724c03",
    "report:tight7-4:sparse": "97c8eb4e199f3acd",
    "report:tight7-4:uncrossable": "9cd60b823ce2c919",
    "report:tight7-64:beta": "04d4682e578a3a19",
    "report:tight7-64:gamma": "7b02ae539be8a464",
    "report:tight7-64:sparse": "649f2fbda9525a3c",
    "report:tight7-64:uncrossable": "17dc6b15673eda8b",
    "report:tightbeta4-128:beta": "204ca2db57c839e7",
    "report:tightbeta4-128:gamma": "d4dbac75e97dc8e5",
    "report:tightbeta4-128:sparse": "72dfd25700a82544",
    "report:tightbeta4-128:uncrossable": "22e7f7c056627647",
    "report:tightbeta4-16:beta": "88e194ce241c4f7b",
    "report:tightbeta4-16:gamma": "082cc99657fe2b0c",
    "report:tightbeta4-16:sparse": "1465694a54bd41f5",
    "report:tightbeta4-16:uncrossable": "4c01949a9473d8a9",
    "report:tightbeta4-4:beta": "de1108612c6a0f83",
    "report:tightbeta4-4:gamma": "e7c3cfc53b63e838",
    "report:tightbeta4-4:sparse": "9275e08d8519e07e",
    "report:tightbeta4-4:uncrossable": "e5ca20868eb39839",
    "report:tightbeta4-64:beta": "55a499797386e14d",
    "report:tightbeta4-64:gamma": "e143e0771f1eedcc",
    "report:tightbeta4-64:sparse": "9795d6a06bef1752",
    "report:tightbeta4-64:uncrossable": "df8b8a4bf4480b21",
}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
@pytest.mark.parametrize("leaves", LEAVES)
def test_tight_tree_reports_and_dot(name, leaves):
    bundle = CONSTRUCTIONS[name](leaves)
    cover = [(i, bundle.graph.pair(i)) for i in range(len(bundle.graph.edges))]
    tree = build_tree(bundle.n, cover, list(bundle.witness), list(bundle.cores))
    for cls in FAMILY_CLASSES:
        report = verify_bounds(tree, cls, 4 if cls == "beta" else None)
        text = dumps_canonical(bound_report_to_json(report))
        assert sha(text) == GOLDEN[f"report:{name}-{leaves}:{cls}"], cls
    assert sha(emit_dot(tree)) == GOLDEN[f"dot:{name}-{leaves}"]


@pytest.mark.parametrize("kind", KINDS)
def test_random_instance_analyses(kind):
    for i in range(DRAWS):
        g, f = random_instance(kind, instance_rng(SEED, i))
        report = analyze_trace(g, f, solve(g, ExplicitFamilyOracle(f)), kind)
        assert sha(dumps_canonical(analysis_to_json(report))) == GOLDEN[f"analysis:{kind}-{i}:{kind}"], i


def test_every_golden_entry_is_checked():
    cases = set()
    for name in CONSTRUCTIONS:
        for leaves in LEAVES:
            cases.add(f"dot:{name}-{leaves}")
            cases |= {f"report:{name}-{leaves}:{cls}" for cls in FAMILY_CLASSES}
    for kind in KINDS:
        cases |= {f"analysis:{kind}-{i}:{kind}" for i in range(DRAWS)}
    assert cases == set(GOLDEN)
