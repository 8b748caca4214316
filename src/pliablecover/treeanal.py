"""Shortcut-tree analysis of a minimal cover with a laminar witness family.

The witness sets plus the full vertex set form a laminar tree.  A node is
black when it is the smallest node containing some core, white otherwise;
every leaf is black.  Maximal runs of white single-child nodes are contracted
away, so each surviving non-root node S carries one shortcut edge to its
nearest surviving ancestor.  That shortcut edge bundles the cover edges
witnessed by S and by the contracted run above it, and its weight is the
total number of cores those cover edges cross.  The total weight over all
shortcut edges therefore equals the summed core-degree of the cover.

`verify_bounds` replays the structural lemmas that cap this total weight:
per-edge weight caps, the classification of heavy edges by the shape of
their contracted run, the bad-pair analysis with its weight reassignment,
and per-family-class totals.  Violations are collected, not raised, so a
run over many instances can report every offending input.

Cost: `build_tree` sorts the witness sets, then does work linear in the
total size of the witness sets and cores, plus one climb per core from the
smallest set holding its least vertex up to the set that owns it.  A tree
indexes its edges and cores on first use, so `verify_bounds` is linear in
the tree size plus the number of bad pairs and findings, up to log factors
from sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (
    CoverNotMinimalError,
    NoLaminarWitnessError,
    TreeInvariantError,
)
from .exact import guarantee_factor, iteration_load_bound
from .setfam import Edge, ExplicitFamily, NodeSet, _disjoint_union, bits, degree_sum
from .setfam import edge_crosses_mask, member_incidence
from .witness import _laminar_witness, laminar_tree
from .wgmv import CostedGraph, RunTrace

HEAVY_WEIGHT = 3


@dataclass(frozen=True)
class TreeNode:
    index: int
    node_set: NodeSet
    parent: int | None
    children: tuple[int, ...]
    black: bool
    owned_cores: tuple[int, ...]
    edge_id: int | None  # cover edge witnessed by this node; None at the root
    contracted: bool  # white with exactly one child: lives inside a chain

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ChainEdge:
    """One shortcut-tree edge: a cover-edge bundle between surviving nodes."""

    lower: int
    upper: int
    interior: tuple[int, ...]  # contracted nodes, bottom to top
    cover_edges: tuple[int, ...]  # cover edge ids, bottom to top
    labels: tuple[tuple[int, int], ...]  # (a_i, b_{i+1}) per cover edge
    weight: int

    @property
    def ell(self) -> int:
        return len(self.interior)

    @property
    def heavy(self) -> bool:
        return self.weight >= HEAVY_WEIGHT

    def sort_token(self) -> tuple[int, ...]:
        return tuple(sorted(self.cover_edges))


@dataclass(frozen=True)
class ShortcutTree:
    """A shortcut tree with its cores, which are pairwise disjoint.

    Each node is the lower endpoint of at most one edge.  The indexes below
    are derived from the fields on first use, so hand-built trees get them
    too.
    """

    n: int
    nodes: tuple[TreeNode, ...]
    edges: tuple[ChainEdge, ...]
    cores: tuple[NodeSet, ...]
    root: int
    cover: tuple[tuple[int, Edge], ...]

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)

    def black_nodes(self) -> list[int]:
        return [x.index for x in self.nodes if x.black]

    def leaf_nodes(self) -> list[int]:
        return [x.index for x in self.nodes if x.is_leaf]

    @cached_property
    def _edge_below(self) -> dict[int, int]:
        """Node -> index of the first edge with that lower endpoint."""
        out: dict[int, int] = {}
        for i, e in enumerate(self.edges):
            out.setdefault(e.lower, i)
        return out

    @cached_property
    def _child_edges(self) -> dict[int, list[ChainEdge]]:
        """Node -> edges with that upper endpoint, in edge order."""
        out: dict[int, list[ChainEdge]] = {}
        for e in self.edges:
            out.setdefault(e.upper, []).append(e)
        return out

    @cached_property
    def _core_incidence(self) -> list[int]:
        return member_incidence(self.n, self.cores)

    def core_of_vertex(self, v: int) -> int | None:
        """Index of the first core holding v, or None."""
        held = self._core_incidence[v]
        return bits(held)[0] if held else None

    def in_core_union(self, v: int) -> bool:
        return self.core_of_vertex(v) is not None


def build_tree(
    n: int,
    cover: Sequence[tuple[int, Edge]],
    witness: Sequence[NodeSet],
    cores: Sequence[NodeSet],
) -> ShortcutTree:
    """Assemble the shortcut tree for a cover, its witnesses, and the cores."""
    if len(cover) != len(witness):
        raise TreeInvariantError("cover and witness lists differ in length")
    if len({w.mask for w in witness}) != len(witness):
        raise TreeInvariantError("witness sets are not pairwise distinct")
    witness_order = sorted(range(len(witness)), key=lambda i: witness[i].sort_key())
    sets: list[NodeSet] = [witness[i] for i in witness_order]
    links = laminar_tree(sets)
    if links is None:
        raise TreeInvariantError("witness sets are not laminar")
    full_mask = (1 << n) - 1
    for w in witness:
        if w.n != n or w.is_empty() or w.mask == full_mask:
            raise TreeInvariantError("witness sets must be proper nonempty subsets")
    if any(c.n != n or c.is_empty() for c in cores):
        raise TreeInvariantError("cores must be nonempty subsets of the universe")
    if _disjoint_union(c.mask for c in cores) is None:
        raise TreeInvariantError("cores must be pairwise disjoint")

    edge_of_node: list[int | None] = [cover[i][0] for i in witness_order]
    root = len(sets)
    sets.append(NodeSet(n, full_mask))
    edge_of_node.append(None)
    # Sets are in canonical order, so children listed by index are too.
    witness_parent, holder = links
    parent: list[int | None] = [root if p is None else p for p in witness_parent] + [None]
    children: list[list[int]] = [[] for _ in sets]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)

    # A core's owner is the smallest set containing it: climb from the
    # smallest set holding its least vertex.
    owned: list[list[int]] = [[] for _ in sets]
    for ci, c in enumerate(cores):
        owner = holder.get((c.mask & -c.mask).bit_length() - 1, root)
        while c.mask & ~sets[owner].mask:
            owner = parent[owner]
        owned[owner].append(ci)

    pair_of: dict[int, Edge] = {eid: pr for eid, pr in cover}
    core_inc = member_incidence(n, cores)
    nodes: list[TreeNode] = []
    for i, s in enumerate(sets):
        black = bool(owned[i])
        contracted = (not black) and len(children[i]) == 1 and i != root
        nodes.append(
            TreeNode(
                index=i,
                node_set=s,
                parent=parent[i],
                children=tuple(children[i]),
                black=black,
                owned_cores=tuple(owned[i]),
                edge_id=edge_of_node[i],
                contracted=contracted,
            )
        )

    def oriented(eid: int, inside: NodeSet) -> tuple[int, int]:
        u, v = pair_of[eid]
        if not edge_crosses_mask(inside.mask, u, v):
            raise TreeInvariantError(
                f"cover edge {eid} does not cross its witness set {list(inside.members())}"
            )
        return (u, v) if (inside.mask >> u) & 1 else (v, u)

    # The nodes are walked in index order, so the edges come out sorted by
    # their lower endpoints.
    edges: list[ChainEdge] = []
    for node in nodes:
        if node.index == root or node.contracted:
            continue
        interior: list[int] = []
        cover_ids: list[int] = []
        labels: list[tuple[int, int]] = []
        cur = node
        while True:
            eid = cur.edge_id
            assert eid is not None
            a, b = oriented(eid, cur.node_set)
            cover_ids.append(eid)
            labels.append((a, b))
            assert cur.parent is not None
            nxt = nodes[cur.parent]
            if ((nxt.node_set.mask >> b) & 1) == 0:
                raise TreeInvariantError(
                    f"cover edge {eid} escapes the next witness set up the chain"
                )
            if not nxt.contracted:
                break
            interior.append(nxt.index)
            cur = nxt
        weight = degree_sum(core_inc, [pair_of[eid] for eid in cover_ids])
        edges.append(
            ChainEdge(
                lower=node.index,
                upper=cur.parent,
                interior=tuple(interior),
                cover_edges=tuple(cover_ids),
                labels=tuple(labels),
                weight=weight,
            )
        )

    tree = ShortcutTree(
        n=n,
        nodes=tuple(nodes),
        edges=tuple(edges),
        cores=tuple(cores),
        root=root,
        cover=tuple((eid, pr) for eid, pr in cover),
    )
    # The chains were weighed with this list: hand it to the cached index.
    tree.__dict__["_core_incidence"] = core_inc
    return tree


def classify_chain(tree: ShortcutTree, edge: ChainEdge) -> str:
    """Name the structural shape of a shortcut edge.

    Heavy edges must match one of the four shapes below; a heavy edge that
    matches none is reported as a finding by `verify_bounds`.
    """
    if not edge.heavy:
        return "non-heavy"
    in_u = tree.in_core_union
    core_of = tree.core_of_vertex
    a = [lab[0] for lab in edge.labels]  # a_0 .. a_ell
    b = [None] + [lab[1] for lab in edge.labels]  # b_1 .. b_{ell+1}
    ell = edge.ell
    if ell == 1:
        if sum(1 for v in (a[0], b[1], a[1], b[2]) if in_u(v)) >= 3:
            return "case-1"
    if ell == 2 and not in_u(a[1]):
        c1, c2, c3 = core_of(b[1]), core_of(b[2]), core_of(a[2])
        if c1 is not None and c1 == c2 == c3:
            return "case-2a"
        if (
            not in_u(b[1])
            and in_u(a[0])
            and in_u(b[2])
            and (in_u(a[2]) or in_u(b[3]))
        ):
            return "case-2b"
    if ell == 3 and not in_u(a[1]) and not in_u(b[1]):
        c1, c2, c3 = core_of(b[2]), core_of(b[3]), core_of(a[3])
        if c1 is not None and c1 == c2 == c3:
            return "case-3"
    return "finding"


@dataclass(frozen=True)
class BadPair:
    """Heavy edges, `upper` above `lower`, with every node from lower's upper
    endpoint to upper's lower endpoint white, both ends included (contracted
    nodes are white by construction)."""

    lower: int  # index into tree.edges
    upper: int  # index into tree.edges


def _white_climbs(tree: ShortcutTree, weights: Sequence[int]) -> dict[int, list[int]]:
    """Per heavy edge (edge i weighs weights[i]), in index order: the heavy
    edges passed climbing from its upper endpoint while nodes are white,
    bottom to top.

    Each white node's first heavy edge up its stretch is found once and
    remembered, so the climbs cost O(edges + pairs).
    """
    nodes, edges, below = tree.nodes, tree.edges, tree._edge_below
    first_heavy: dict[int, int | None] = {}

    def next_heavy(x: int) -> int | None:
        trail = []
        while x not in first_heavy:
            i = None if nodes[x].black else below.get(x)
            if i is None or weights[i] >= HEAVY_WEIGHT:
                first_heavy[x] = i
            else:
                trail.append(x)
                x = edges[i].upper
        for y in trail:
            first_heavy[y] = first_heavy[x]
        return first_heavy[x]

    climbs: dict[int, list[int]] = {}
    for lo, w in enumerate(weights):
        if w >= HEAVY_WEIGHT:
            climb = climbs[lo] = []
            hi = next_heavy(edges[lo].upper)
            while hi is not None:
                climb.append(hi)
                hi = next_heavy(edges[hi].upper)
    return climbs


@dataclass(frozen=True)
class Reassignment:
    chosen: tuple[tuple[int, int], ...]  # (upper edge idx, lower edge idx)
    weights_after: tuple[int, ...]
    max_before: int
    max_after: int


def reassign_weights(tree: ShortcutTree, pairs: Sequence[BadPair]) -> Reassignment:
    """Shift the excess of each bad pair's upper edge onto its lower edge.

    Every edge that is the upper side of at least one bad pair donates all
    weight above 2 to the pair whose lower edge is least, by cover-edge ids.
    """
    weights = [e.weight for e in tree.edges]
    by_upper: dict[int, list[int]] = {}
    for p in pairs:
        by_upper.setdefault(p.upper, []).append(p.lower)
    chosen: list[tuple[int, int]] = []
    for hi in sorted(by_upper, key=lambda i: tree.edges[i].sort_token()):
        lo = min(by_upper[hi], key=lambda i: tree.edges[i].sort_token())
        delta = weights[hi] - 2
        weights[hi] = 2
        weights[lo] += delta
        chosen.append((hi, lo))
    return Reassignment(
        chosen=tuple(chosen),
        weights_after=tuple(weights),
        max_before=max((e.weight for e in tree.edges), default=0),
        max_after=max(weights, default=0),
    )


@dataclass(frozen=True)
class BoundRow:
    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class BoundReport:
    family_class: str
    beta: int | None
    total_weight: int
    num_black: int
    num_white_all: int
    num_white_surviving: int
    num_leaves: int
    num_cores: int
    num_tree_edges: int
    classifications: tuple[tuple[int, str], ...]  # (edge idx, shape)
    bad_pairs: tuple[BadPair, ...]
    reassignment: Reassignment
    bounds: tuple[BoundRow, ...]
    violations: tuple[str, ...]
    info: tuple[str, ...]

    @cached_property
    def ok(self) -> bool:
        return not self.violations and all(b.ok for b in self.bounds)


def _token_sets(
    tree: ShortcutTree, bad_pairs: Sequence[BadPair]
) -> tuple[dict[int, list[int]], dict[int, int], list[int], list[int]]:
    """Per heavy edge: reachable black descendants, the closest one, and the
    derived H*/B* sets used by the token-counting totals."""
    bad_upper = {p.upper for p in bad_pairs}
    heavy = [i for i, e in enumerate(tree.edges) if e.heavy]
    kids = tree._child_edges
    b_sets: dict[int, list[int]] = {}
    b_pick: dict[int, int] = {}
    for i in heavy:
        # Reachable means by light edges only, so the regions searched
        # below different heavy edges are disjoint.
        found: list[tuple[int, int]] = []  # (depth, node)
        stack = [(tree.edges[i].lower, 0)]
        while stack:
            node, depth = stack.pop()
            if tree.nodes[node].black:
                found.append((depth, node))
            stack.extend((e.lower, depth + 1) for e in kids.get(node, ()) if not e.heavy)
        b_sets[i] = sorted(n for _, n in found)
        if found:
            b_pick[i] = min(found, key=lambda t: (t[0], tree.nodes[t[1]].node_set.sort_key()))[1]
    h_star = [i for i in heavy if i not in bad_upper]
    b_star = sorted({b_pick[i] for i in h_star if i in b_pick})
    return b_sets, b_pick, h_star, b_star


def _lower_ancestors(tree: ShortcutTree, edge_ids: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (x, y) of distinct edges in `edge_ids`, sorted, where y's lower
    endpoint is x's upper endpoint or an ancestor of it.

    One walk down the forest of parent edges carries, per node, the wanted
    edges passed on the way down; stepping down wanted edge x pairs it with
    each of them.
    """
    if len(edge_ids) < 2:
        return []
    below, kids = tree._edge_below, tree._child_edges
    wanted = set(edge_ids)
    out: list[tuple[int, int]] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(x, ()) for x in range(len(tree.nodes)) if x not in below]
    while stack:
        node, above = stack.pop()
        for e in kids.get(node, ()):
            x = below[e.lower]
            if x in wanted:
                out.extend((x, y) for y in above)
                stack.append((e.lower, above + (x,)))
            else:
                stack.append((e.lower, above))
    out.sort()
    return out


def verify_bounds(
    tree: ShortcutTree, family_class: str, beta: int | None = None
) -> BoundReport:
    """Check the structural lemmas and totals for the given family class."""
    factor = guarantee_factor(family_class, beta)
    violations: list[str] = []
    info: list[str] = []
    nodes = tree.nodes
    blacks = tree.black_nodes()
    leaves = tree.leaf_nodes()
    whites_all = [x.index for x in nodes if not x.black]
    whites_surviving = [x.index for x in nodes if not x.black and not x.contracted]
    w_total = tree.total_weight()
    num_c = len(tree.cores)

    for leaf in leaves:
        if not nodes[leaf].black:
            violations.append(f"white leaf node {list(nodes[leaf].node_set.members())}")
    for x in nodes:
        if (
            x.index != tree.root
            and not x.contracted
            and not x.black
            and len(x.children) == 1
        ):
            violations.append(
                f"white single-child node {list(x.node_set.members())} survived contraction"
            )
    if len(blacks) > num_c:
        violations.append(f"more black nodes ({len(blacks)}) than cores ({num_c})")

    recount = degree_sum(tree._core_incidence, [pr for _, pr in tree.cover])
    if recount != w_total:
        violations.append(f"edge weights sum to {w_total}, cover core-degree is {recount}")

    sparse_like = family_class in ("sparse", "beta")
    for i, e in enumerate(tree.edges):
        lo_black = nodes[e.lower].black
        up_black = nodes[e.upper].black
        if e.weight > 5:
            violations.append(f"edge {e.cover_edges} has weight {e.weight} > 5")
        if e.weight == 5 and not lo_black:
            violations.append(f"weight-5 edge {e.cover_edges} has a white lower endpoint")
        if sparse_like:
            if e.weight == 5 and not (lo_black and up_black):
                violations.append(f"weight-5 edge {e.cover_edges} lacks two black endpoints")
            if e.weight == 4 and not (lo_black or up_black):
                violations.append(f"weight-4 edge {e.cover_edges} has no black endpoint")
        if e.ell == 0 and e.weight > 2:
            violations.append(f"direct edge {e.cover_edges} has weight {e.weight} > 2")

    classifications = tuple((i, classify_chain(tree, e)) for i, e in enumerate(tree.edges))
    for i, shape in classifications:
        if shape == "finding":
            violations.append(
                f"heavy edge {tree.edges[i].cover_edges} matches no structural case"
            )

    climbs = _white_climbs(tree, [e.weight for e in tree.edges])
    pairs = [BadPair(lower=lo, upper=hi) for lo, climb in climbs.items() for hi in sorted(climb)]
    pairs.sort(key=lambda p: (tree.edges[p.upper].sort_token(), tree.edges[p.lower].sort_token()))
    in_u = tree.in_core_union
    for p in pairs:
        lo, hi = tree.edges[p.lower], tree.edges[p.upper]
        tag = f"bad pair {lo.cover_edges}/{hi.cover_edges}"
        if lo.weight + hi.weight > 7:
            violations.append(f"{tag}: weights sum to {lo.weight + hi.weight} > 7")
        if hi.weight != 3:
            violations.append(f"{tag}: upper edge weight {hi.weight} != 3")
        if hi.ell != 1:
            violations.append(f"{tag}: upper edge bundles {hi.ell} contracted nodes, not 1")
        if lo.weight > 4:
            violations.append(f"{tag}: lower edge weight {lo.weight} > 4")
        if in_u(hi.labels[0][0]):
            violations.append(f"{tag}: upper edge starts inside the core union")
        if lo.ell == 1 and not in_u(lo.labels[0][0]):
            violations.append(f"{tag}: lower edge start should lie in the core union")
        climb = climbs[p.lower]
        for seg in climb[: climb.index(p.upper)]:
            violations.append(
                f"{tag}: heavy edge {tree.edges[seg].cover_edges} sits strictly between"
            )
        if sparse_like and not nodes[hi.upper].black:
            violations.append(f"{tag}: upper endpoint should be black in a sparse family")

    reass = reassign_weights(tree, pairs)
    if sum(reass.weights_after) != w_total:
        violations.append("weight reassignment changed the total")
    for i, w in enumerate(reass.weights_after):
        if w > 5:
            violations.append(
                f"edge {tree.edges[i].cover_edges} has weight {w} > 5 after reassignment"
            )
    if any(_white_climbs(tree, reass.weights_after).values()):
        violations.append("bad pairs remain after weight reassignment")
    if reass.max_after != reass.max_before:
        info.append(
            f"maximum edge weight moved from {reass.max_before} to {reass.max_after} during reassignment"
        )

    b_sets, b_pick, h_star, b_star = _token_sets(tree, pairs)
    bad_upper = {p.upper for p in pairs}
    for i, bs in b_sets.items():
        # the converse can fail: a bad-pair upper may still reach a black
        # node through a side branch that crosses no heavy edge
        if not bs and i not in bad_upper:
            violations.append(
                f"heavy edge {tree.edges[i].cover_edges}: no reachable black token "
                "yet not the upper edge of a bad pair"
            )
    seen: dict[int, int] = {}
    for i, bs in b_sets.items():
        for nd in bs:
            if nd in seen:
                violations.append(
                    f"token sets of heavy edges {tree.edges[seen[nd]].cover_edges} and "
                    f"{tree.edges[i].cover_edges} overlap"
                )
            seen[nd] = i

    leaf_set = set(leaves)
    i_star = [i for i in h_star if i in b_pick and b_pick[i] in leaf_set]
    for x, y in _lower_ancestors(tree, i_star):
        violations.append(
            f"leaf-token edges {tree.edges[x].cover_edges} and "
            f"{tree.edges[y].cover_edges} lie on one root path"
        )

    num_b, num_l, num_ws = len(blacks), len(leaves), len(whites_surviving)
    bounds = [
        BoundRow("tree-edges-vs-black", Fraction(len(tree.edges)), Fraction(2 * num_b - 1)),
        BoundRow("surviving-white-vs-leaves", Fraction(num_ws), Fraction(num_l)),
        BoundRow("leaves-vs-black", Fraction(num_l), Fraction(num_b)),
    ]
    root_node = nodes[tree.root]
    if root_node.black or len(root_node.children) >= 2:
        bounds.append(
            BoundRow("rooted-white-vs-black", Fraction(num_ws), Fraction(num_b - 1))
        )
    if len(tree.edges) != num_ws + num_b - 1:
        violations.append(
            f"{len(tree.edges)} tree edges but {num_ws} surviving white + {num_b} black nodes"
        )
    total = Fraction(w_total)
    if family_class != "uncrossable":
        bounds.append(BoundRow("total-weight-gamma", total, guarantee_factor("gamma") * num_b - 2))
    if sparse_like:
        token_rhs = 3 * num_b + num_l + 2 * len(b_star) - 2
        bounds.append(BoundRow("total-weight-token", total, Fraction(token_rhs)))
        info.append(
            f"tighter token variant: {w_total} <= {token_rhs - 2} is "
            f"{'true' if w_total <= token_rhs - 2 else 'false'}"
        )
        bounds.append(BoundRow("total-weight-sparse", total, iteration_load_bound("sparse", num_c)))
    if family_class in ("beta", "uncrossable"):
        bounds.append(BoundRow(f"total-weight-{family_class}", total, factor * num_c))

    return BoundReport(
        family_class=family_class,
        beta=beta,
        total_weight=w_total,
        num_black=num_b,
        num_white_all=len(whites_all),
        num_white_surviving=num_ws,
        num_leaves=num_l,
        num_cores=num_c,
        num_tree_edges=len(tree.edges),
        classifications=classifications,
        bad_pairs=tuple(pairs),
        reassignment=reass,
        bounds=tuple(bounds),
        violations=tuple(violations),
        info=tuple(info),
    )


def emit_dot(tree: ShortcutTree) -> str:
    """Graphviz rendering of the shortcut tree; deterministic output."""
    lines = ["digraph shortcut_tree {", "  rankdir=BT;", "  node [style=filled];"]
    for node in tree.nodes:
        if node.contracted:
            continue
        label = "{" + ",".join(str(v) for v in node.node_set.members()) + "}"
        if node.owned_cores:
            label += " owns " + ",".join(str(c) for c in node.owned_cores)
        fill = "gray25" if node.black else "white"
        font = "white" if node.black else "black"
        lines.append(
            f'  n{node.index} [label="{label}", fillcolor="{fill}", fontcolor="{font}"];'
        )
    for e in tree.edges:
        lines.append(
            f'  n{e.lower} -> n{e.upper} [label="w={e.weight} ell={e.ell} '
            f'edges={list(e.cover_edges)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IterationAnalysis:
    index: int
    cores: tuple[NodeSet, ...]
    cover_edge_ids: tuple[int, ...]
    report: BoundReport | None
    violations: tuple[str, ...]

    @cached_property
    def ok(self) -> bool:
        return not self.violations and (self.report is None or self.report.ok)


@dataclass(frozen=True)
class AnalysisReport:
    family_class: str
    beta: int | None
    iterations: tuple[IterationAnalysis, ...]

    @cached_property
    def ok(self) -> bool:
        return all(it.ok for it in self.iterations)


def analyze_trace(
    g: CostedGraph,
    f: ExplicitFamily,
    trace: RunTrace,
    family_class: str,
    beta: int | None = None,
) -> AnalysisReport:
    """Replay the structural analysis for every iteration of a finished run.

    For iteration t with previously added edges J0, the final solution splits
    into J0, the edges covering none of the iteration's cores, and the rest I.
    I is an inclusion-minimal cover of the family left residual by everything
    outside I, and its witness tree certifies the iteration's load bound.
    That residual is read once, from the family itself, and the witness
    search runs on its alive members: no iteration copies the family.
    A family over another universe than g's is refused (ValueError).
    """
    guarantee_factor(family_class, beta)
    if f.n != g.n:
        raise ValueError("family universe does not match the graph")
    out: list[IterationAnalysis] = []
    j0: set[int] = set()  # the edges added before iteration idx
    pair = {e: g.pair(e) for e in trace.additions()}  # the solution's too: read once per run
    for idx, it in enumerate(trace.iterations):
        probs: list[str] = []
        i_prime = [e for e in trace.solution if e not in j0]
        inc = member_incidence(g.n, it.cores)
        i_cover = [e for e in i_prime if inc[pair[e][0]] ^ inc[pair[e][1]]]
        outside = [pair[e] for e in sorted(j0 | (set(i_prime) - set(i_cover)))]
        report: BoundReport | None = None
        left = f.residual(outside)
        # unlike an oracle, core_sets() returns overlapping cores, unvalidated
        if tuple(left.core_sets()) != tuple(it.cores):
            probs.append("recomputed residual cores disagree with the recorded iteration")
        else:
            pairs = [pair[e] for e in i_cover]
            try:
                wit = _laminar_witness(f, left.alive, pairs)
                tree = build_tree(g.n, list(zip(i_cover, pairs)), wit, list(it.cores))
                report = verify_bounds(tree, family_class, beta)
            except (CoverNotMinimalError, NoLaminarWitnessError, TreeInvariantError) as exc:
                probs.append(str(exc))
        out.append(
            IterationAnalysis(
                index=idx,
                cores=tuple(it.cores),
                cover_edge_ids=tuple(i_cover),
                report=report,
                violations=tuple(probs),
            )
        )
        j0.add(it.added)
    return AnalysisReport(family_class=family_class, beta=beta, iterations=tuple(out))
