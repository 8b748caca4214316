"""Golden small-cut solve outputs past the benchmark's sizes (n 13-16).

Each entry is the first 16 hex digits of the SHA-256 of the canonical
`solve` trace, the `certify --family-class sparse` certificate and the edge
connectivity of one seeded `random_cap_graph` instance with 3n random
candidate edges, as in the benchmark's `smallcut` items.  The digests were
captured with the Gray-code cut scan, before the blocked table scan
replaced it, so any change to the small-cut family, its order-sensitive
consumers or the edge connectivity shows up here.  They held unchanged
through the blocked table scan with list rows and through the packed-lane
scan that replaced it, which holds each row as one integer.
"""

import hashlib

import pytest

from pliablecover.exact import certify
from pliablecover.gens import instance_rng, random_cap_graph
from pliablecover.jsonio import (
    Instance,
    certificate_to_json,
    dumps_canonical,
    instance_digest,
    trace_to_json,
)
from pliablecover.setfam import all_pairs
from pliablecover.smallcuts import SmallCutsOracle, edge_connectivity
from pliablecover.wgmv import CostedGraph, solve

SEED = 13
CASES = tuple((n, i) for n in range(13, 17) for i in range(3))

GOLDEN = {
    "13-0": "1a60c94e7897c571",
    "13-1": "ed88c77b82b1bb53",
    "13-2": "7f72a1dcae80aa2a",
    "14-0": "013e9e84e92c7fad",
    "14-1": "9777c5ea748d3427",
    "14-2": "febcffc3f8410a75",
    "15-0": "901633b9ddebe2fd",
    "15-1": "3bd106573729c50d",
    "15-2": "d3870cc0de9d41dc",
    "16-0": "b017eb35c29e4d68",
    "16-1": "6d2f0c48e167d9f9",
    "16-2": "385cbe25d2484412",
}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def solve_and_certify(n, i):
    rng = instance_rng(SEED, 100 * n + i)
    h = random_cap_graph(rng, n)
    g = CostedGraph.build(n, [(u, v, rng.randint(1, 9)) for u, v in sorted(rng.sample(all_pairs(n), 3 * n))])
    inst = Instance(g, h)
    oracle = SmallCutsOracle(h)
    trace = solve(g, oracle)
    cert = certify(g, oracle, trace, "sparse")
    assert cert.verdict
    docs = [
        trace_to_json(g, trace, instance_digest(inst)),
        certificate_to_json(cert),
        {"edge_connectivity": str(edge_connectivity(h))},
    ]
    return "\n".join(dumps_canonical(d) for d in docs)


@pytest.mark.parametrize("n,i", CASES)
def test_small_cut_solve_bytes(n, i):
    assert sha(solve_and_certify(n, i)) == GOLDEN[f"{n}-{i}"]


def test_every_golden_entry_is_checked():
    assert {f"{n}-{i}" for n, i in CASES} == set(GOLDEN)
