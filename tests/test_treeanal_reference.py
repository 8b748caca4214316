"""Differential tests of the indexed tree analyzer against plain references.

The references below are the straightforward quadratic forms of the same
searches: parent edges and cores found by scanning, bad pairs by testing
every pair of heavy edges for an all-white ancestor path, and token sets
by a depth-first search that rescans every tree edge at each node.  They
are compared with the analyzer on random laminar trees (as `build_tree`
makes them, with their own weights and with random colours and weights)
and on hand-built `ShortcutTree`s whose edges are listed in random order.
"""

import dataclasses
import random

from pliablecover.setfam import NodeSet, coverage, degree_sum, member_incidence
from pliablecover.treeanal import (
    HEAVY_WEIGHT,
    BadPair,
    ChainEdge,
    ShortcutTree,
    TreeNode,
    _token_sets,
    _white_climbs,
    build_tree,
    verify_bounds,
)
from pliablecover.witness import laminar_tree

BETWEEN = "sits strictly between"
ROOT_PATH = "lie on one root path"

# ---------------------------------------------------------------------------
# references


def ref_parent_edge(tree, node):
    for e in tree.edges:
        if e.lower == node:
            return e
    return None


def ref_core_of_vertex(tree, v):
    for i, c in enumerate(tree.cores):
        if (c.mask >> v) & 1:
            return i
    return None


def ref_path_up(tree, start, stop):
    """Surviving nodes from `start` up to `stop`; None if not an ancestor path."""
    path = [start]
    cur = start
    while cur != stop:
        e = ref_parent_edge(tree, cur)
        if e is None:
            return None
        cur = e.upper
        path.append(cur)
    return path


def ref_bad_pairs(tree, weights):
    heavy = [i for i, w in enumerate(weights) if w >= HEAVY_WEIGHT]
    out = []
    for lo in heavy:
        for hi in heavy:
            if lo == hi:
                continue
            path = ref_path_up(tree, tree.edges[lo].upper, tree.edges[hi].lower)
            if path is not None and all(not tree.nodes[x].black for x in path):
                out.append(BadPair(lower=lo, upper=hi))
    return out


def ref_find_bad_pairs(tree):
    pairs = ref_bad_pairs(tree, [e.weight for e in tree.edges])
    pairs.sort(key=lambda p: (tree.edges[p.upper].sort_token(), tree.edges[p.lower].sort_token()))
    return pairs


def ref_token_sets(tree, bad_pairs):
    bad_upper = {p.upper for p in bad_pairs}
    heavy = [i for i, e in enumerate(tree.edges) if e.heavy]
    b_sets, b_pick = {}, {}
    for i in heavy:
        found = []
        stack = [(tree.edges[i].lower, 0, False)]
        while stack:
            node, depth, blocked = stack.pop()
            if tree.nodes[node].black and not blocked:
                found.append((depth, node))
            for e in tree.edges:
                if e.upper == node:
                    stack.append((e.lower, depth + 1, blocked or e.heavy))
        found.sort(key=lambda t: (t[0], tree.nodes[t[1]].node_set.sort_key()))
        b_sets[i] = sorted(n for _, n in found)
        if found:
            b_pick[i] = found[0][1]
    h_star = [i for i in heavy if i not in bad_upper]
    b_star = sorted({b_pick[i] for i in h_star if i in b_pick})
    return b_sets, b_pick, h_star, b_star


def ref_path_violations(tree):
    """The "strictly between" and "one root path" findings, in report order."""
    pairs = ref_find_bad_pairs(tree)
    between = []
    for p in pairs:
        lo, hi = tree.edges[p.lower], tree.edges[p.upper]
        for x in ref_path_up(tree, lo.upper, hi.lower)[:-1]:
            seg = ref_parent_edge(tree, x)
            if seg is not None and seg.heavy:
                between.append(
                    f"bad pair {lo.cover_edges}/{hi.cover_edges}: heavy edge "
                    f"{seg.cover_edges} {BETWEEN}"
                )
    _, b_pick, h_star, b_star = ref_token_sets(tree, pairs)
    leaves = tree.leaf_nodes()
    i_star = [i for i in h_star if i in b_pick and b_pick[i] in set(leaves) and b_pick[i] in set(b_star)]
    root_path = []
    for x in i_star:
        for y in i_star:
            if x != y and ref_path_up(tree, tree.edges[x].upper, tree.edges[y].lower) is not None:
                root_path.append(
                    f"leaf-token edges {tree.edges[x].cover_edges} and "
                    f"{tree.edges[y].cover_edges} {ROOT_PATH}"
                )
    return between, root_path


def ref_is_laminar(sets):
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            inter = a.mask & b.mask
            if inter and inter != a.mask and inter != b.mask:
                return False
    return True


# ---------------------------------------------------------------------------
# random trees


def random_laminar_input(rng, k):
    """(n, cover, witness, cores) that `build_tree` accepts, with k witnesses.

    Node 0 is the universe; every node owns at least one vertex, and a
    node's set is what its subtree owns, so the sets are laminar and
    distinct.  Cover edge i leaves witness i for a vertex its parent owns.
    """
    parent = [None] + [rng.randrange(i) for i in range(1, k + 1)]
    owner = list(range(k + 1)) + [rng.randrange(k + 1) for _ in range(rng.randint(0, k))]
    n = len(owner)
    masks = [0] * (k + 1)
    for v, o in enumerate(owner):
        x = o
        while x is not None:
            masks[x] |= 1 << v
            x = parent[x]
    own = [[v for v, o in enumerate(owner) if o == x] for x in range(k + 1)]
    cover = []
    for i in range(1, k + 1):
        inside = [v for v in range(n) if masks[i] >> v & 1]
        pair = (rng.choice(inside), rng.choice(own[parent[i]]))
        cover.append((i - 1, pair if rng.random() < 0.5 else pair[::-1]))
    witness = [NodeSet(n, masks[i]) for i in range(1, k + 1)]
    vertices = list(range(n))
    rng.shuffle(vertices)
    cores, rest = [], vertices
    while rest and len(cores) < k and rng.random() < 0.8:
        size = rng.randint(1, 3)
        cores.append(NodeSet.from_members(n, rest[:size]))
        rest = rest[size:]
    order = list(range(k))
    rng.shuffle(order)
    return n, [cover[i] for i in order], [witness[i] for i in order], cores


def recoloured(tree, rng):
    """The same tree with random colours and weights, many of them heavy."""
    nodes = tuple(
        dataclasses.replace(x, black=rng.random() < 0.3) if not x.contracted else x
        for x in tree.nodes
    )
    edges = tuple(dataclasses.replace(e, weight=rng.choice((1, 2, 3, 3, 4, 5))) for e in tree.edges)
    return dataclasses.replace(tree, nodes=nodes, edges=edges)


def hand_built_tree(rng, k, caterpillar):
    """A `ShortcutTree` made directly: k + 1 surviving nodes, random colours,
    weights and sort tokens (some repeated), edges in random order.

    The shape is a random recursive tree, or a caterpillar: a path with
    leaves hanging off it, where long white stretches and leaf tokens on
    one root path are common.
    """
    n = 12
    parent, spine = [None], [0]
    for i in range(1, k + 1):
        parent.append(spine[-1] if caterpillar else rng.randrange(i))
        if rng.random() < 0.5:
            spine.append(i)
    children = [[c for c in range(k + 1) if parent[c] == x] for x in range(k + 1)]
    masks = rng.sample(range(1, 1 << n), k + 1)
    nodes = tuple(
        TreeNode(
            index=x,
            node_set=NodeSet(n, masks[x]),
            parent=parent[x],
            children=tuple(children[x]),
            black=not children[x] or rng.random() < 0.3,
            owned_cores=(),
            edge_id=x - 1 if x else None,
            contracted=False,
        )
        for x in range(k + 1)
    )
    edges = []
    for x in range(1, k + 1):
        ell = rng.randint(0, 3)
        edges.append(
            ChainEdge(
                lower=x,
                upper=parent[x],
                interior=tuple(range(100, 100 + ell)),
                cover_edges=tuple(sorted(rng.sample(range(2 * k), rng.choice((1, 1, 2))))),
                labels=tuple((rng.randrange(n), rng.randrange(n)) for _ in range(ell + 1)),
                weight=rng.choice((1, 2, 3, 4)),
            )
        )
    rng.shuffle(edges)
    vertices = rng.sample(range(n), 6)
    cores = (NodeSet.from_members(n, vertices[:2]), NodeSet.from_members(n, vertices[2:5]))
    cover = tuple((i, (rng.randrange(n), rng.randrange(n))) for i in range(k))
    return ShortcutTree(n=n, nodes=nodes, edges=tuple(edges), cores=cores, root=0, cover=cover)


def random_trees(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        tree = build_tree(*random_laminar_input(rng, rng.randint(1, 14)))
        yield tree
        yield recoloured(tree, rng)
        yield hand_built_tree(rng, rng.randint(1, 14), caterpillar=False)
        yield hand_built_tree(rng, rng.randint(8, 30), caterpillar=True)


# ---------------------------------------------------------------------------
# tests


def test_indexes_match_linear_scans():
    for tree in random_trees(11, 60):
        for x in range(len(tree.nodes)):
            i = tree._edge_below.get(x)
            assert (None if i is None else tree.edges[i]) == ref_parent_edge(tree, x)
        for v in range(tree.n):
            assert tree.core_of_vertex(v) == ref_core_of_vertex(tree, v)
            assert tree.in_core_union(v) == (ref_core_of_vertex(tree, v) is not None)


def test_bad_pairs_match_the_pairwise_search():
    rng = random.Random(12)
    found = 0
    for tree in random_trees(12, 80):
        weights = [rng.choice((1, 2, 3, 4, 5)) for _ in tree.edges]
        for w in (weights, [e.weight for e in tree.edges]):
            climbs = _white_climbs(tree, w).items()
            flat = sorted((lo, hi) for lo, climb in climbs for hi in climb)
            assert [BadPair(lower=lo, upper=hi) for lo, hi in flat] == ref_bad_pairs(tree, w)
        assert list(verify_bounds(tree, "gamma").bad_pairs) == ref_find_bad_pairs(tree)
        found += len(ref_bad_pairs(tree, weights))
    assert found > 100


def test_token_sets_match_the_subtree_search():
    for tree in random_trees(13, 80):
        pairs = verify_bounds(tree, "gamma").bad_pairs
        assert _token_sets(tree, pairs) == ref_token_sets(tree, pairs)


def test_path_findings_and_their_order_match():
    counts = {BETWEEN: 0, ROOT_PATH: 0}
    for tree in random_trees(14, 120):
        between, root_path = ref_path_violations(tree)
        violations = verify_bounds(tree, "gamma").violations
        assert [v for v in violations if BETWEEN in v] == between
        assert [v for v in violations if ROOT_PATH in v] == root_path
        counts[BETWEEN] += len(between)
        counts[ROOT_PATH] += len(root_path)
    # both findings fire, several at a time, so their order is compared
    assert counts[BETWEEN] > 100 and counts[ROOT_PATH] > 10, counts


def test_core_degree_matches_coverage_on_disjoint_cores():
    # The tree weights count through `degree_sum`; overlapping sets are
    # checked too, since the count does not rely on disjointness.
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(2, 10)
        vertices = rng.sample(range(n), rng.randint(0, n))
        cores = []
        while vertices:
            size = rng.randint(1, 3)
            cores.append(NodeSet.from_members(n, vertices[:size]))
            vertices = vertices[size:]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8))]
        overlapping = cores + [NodeSet(n, rng.randrange(1 << n)) for _ in range(rng.randint(1, 4))]
        for sets in (cores, overlapping):
            inc = member_incidence(n, sets)
            assert degree_sum(inc, pairs) == sum(coverage(c, pairs) for c in sets)


def test_laminar_tree_matches_the_pairwise_definition():
    rng = random.Random(16)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 7)
        sets = [NodeSet(n, rng.randrange(1 << n)) for _ in range(rng.randint(0, 6))]
        links = laminar_tree(sets)
        assert ref_is_laminar(sets) == (links is not None)
        seen[links is not None] += 1
        if links is None or len({s.mask for s in sets}) != len(sets):
            continue
        parents, holder = links
        for i, s in enumerate(sets):
            if s.is_empty():
                assert parents[i] is None
                continue
            supers = [j for j, t in enumerate(sets) if s.mask & ~t.mask == 0 and s.mask != t.mask]
            assert parents[i] == min(supers, key=lambda j: len(sets[j]), default=None)
        for v in range(n):
            holding = [j for j, t in enumerate(sets) if t.mask >> v & 1]
            assert holder.get(v) == min(holding, key=lambda j: len(sets[j]), default=None)
    assert min(seen.values()) > 50, seen
