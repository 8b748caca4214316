"""Golden `gen` output: batches of the verified random kinds and bundles of
the tight constructions.

Each entry is the SHA-256 of the canonical stdout of one `pliablecover gen
--kind KIND --seed SEED --count COUNT [--n N]` run.  The digests were
captured before the family checkers were folded into `check_family`, so
any change to a proposal, to the order in which its class properties are
checked, or to the pliability repair of random families shows up here.

The tight digests, of `pliablecover gen --kind KIND --leaves L [--beta B]`,
were captured while `tight_six` and `tight_beta` still had separate
builders, so they pin every node id, edge order and core order of the
shared weight-6 construction.
"""

import hashlib

import pytest

from pliablecover.cli import main as cli_main

# (kind, seed, count, n): sha256 of the stdout; n None draws 4-7 per instance
GOLDEN = {
    ("gamma", 0, 40, None): "88f891d4a10c22f37771ee64ec2024a613108663bb26e5dd1fae5dcc6778f79a",
    ("gamma", 1, 20, 5): "ec58a335e791314498bb035e9cec0e94807740961ca761809155e531f23ea360",
    ("gamma", 2, 8, 9): "2261304bc68b38d342ae4ec8fe222e1aedd212f96a0d087794e817bc8993ef23",
    ("sparse", 0, 40, None): "10e0de3c6f49d97bb6dc615cd94621b9e7272d26b5b09595d21b1227a5bb7492",
    ("sparse", 1, 20, 5): "c26859eb5d5db126b4764aef4cbb8254e8506253e642e41cd953f911e7984b00",
    ("sparse", 2, 8, 9): "8ab30e43718b522a4f45767dc3e2d05eb5ccb14697311c5b69403ad877581a59",
    ("uncrossable", 0, 40, None): "b4b286fee0d5cfd93019caf432bd2ad836f3e0cea7df42be6a018e20a8316908",
    ("uncrossable", 1, 20, 5): "42ce88bd601f6a4be9a00949ee7251a0608da316a869dc8c0a54c51b40c367a4",
    ("uncrossable", 2, 3, 9): "6fd7facb09ea5ad688b22cdb2e199d745ae5d778b1a9ed4eae1113832ae83579",
}

# (kind, leaves, beta): sha256 of the stdout
TIGHT_GOLDEN = {
    ("tight6", 2, None): "91956ab3801d7a1289149a697d280d5f8d3f9921557e374fa4d198c749d5f113",
    ("tight6", 8, None): "307440e507f9c5aa9b58587764e8b0b407b4d7f59dc6b31171c7d4d4384d17d6",
    ("tight6", 64, None): "122e1cedf78755739222edea04da456f5340e8a531f3268572c23108e43eafcd",
    ("tight7", 2, None): "6a94b76aee9a577ffd166fa61a69891fda5a773c29531dc57703b3607e311898",
    ("tight7", 8, None): "bf2e5d5f6f2c0dc0faa5a02539126b6d51808ea4817629563763def47fc36ab1",
    ("tight-beta", 8, 1): "31ddba83ce16447af8effcae7db896f9a4d3b60aa1c96fd4a34fffcd850cd5a0",
    ("tight-beta", 8, 2): "176dbed2e09afc56076f2e9deec689f559ba1152a68cb0d57995c853b08be347",
    ("tight-beta", 8, 8): "ba4bf552d8120affade44e2d94acfa5493e1f1d3984e140fc44e07f7dfe3175a",
    ("tight-beta", 64, 4): "d4cacf8a7102de6d97483e73e94d14b291851836b9a576252b7893198e4c7f17",
}


@pytest.mark.parametrize("kind,seed,count,n", sorted(GOLDEN, key=str))
def test_gen_batch_matches_its_digest(kind, seed, count, n, capsys):
    argv = ["gen", "--kind", kind, "--seed", str(seed), "--count", str(count)]
    if n is not None:
        argv += ["--n", str(n)]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[kind, seed, count, n]


@pytest.mark.parametrize("kind,leaves,beta", sorted(TIGHT_GOLDEN, key=str))
def test_gen_tight_bundle_matches_its_digest(kind, leaves, beta, capsys):
    argv = ["gen", "--kind", kind, "--leaves", str(leaves)]
    if beta is not None:
        argv += ["--beta", str(beta)]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TIGHT_GOLDEN[kind, leaves, beta]
