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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CoverNotMinimalError,
    NoLaminarWitnessError,
    TreeInvariantError,
)
from .exact import guarantee_factor
from .setfam import Edge, ExplicitFamily, NodeSet, coverage, edge_crosses_mask, family_cores
from .witness import is_laminar, laminar_witness
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

    def parent_edge(self, node: int) -> ChainEdge | None:
        for e in self.edges:
            if e.lower == node:
                return e
        return None

    def core_of_vertex(self, v: int) -> int | None:
        for i, c in enumerate(self.cores):
            if (c.mask >> v) & 1:
                return i
        return None

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
    if not is_laminar(list(witness)):
        raise TreeInvariantError("witness sets are not laminar")
    full_mask = (1 << n) - 1
    for w in witness:
        if w.n != n or w.is_empty() or w.mask == full_mask:
            raise TreeInvariantError("witness sets must be proper nonempty subsets")
    for i, a in enumerate(cores):
        if a.n != n or a.is_empty():
            raise TreeInvariantError("cores must be nonempty subsets of the universe")
        for b in list(cores)[i + 1 :]:
            if a.mask & b.mask:
                raise TreeInvariantError("cores must be pairwise disjoint")

    witness_order = sorted(range(len(witness)), key=lambda i: witness[i].sort_key())
    sets: list[NodeSet] = [witness[i] for i in witness_order]
    edge_of_node: list[int | None] = [cover[i][0] for i in witness_order]
    root = len(sets)
    sets.append(NodeSet(n, full_mask))
    edge_of_node.append(None)

    parent: list[int | None] = [None] * len(sets)
    for i in range(len(sets)):
        if i == root:
            continue
        best: int | None = None
        for j in range(len(sets)):
            if j == i:
                continue
            if sets[i].mask | sets[j].mask == sets[j].mask and sets[i].mask != sets[j].mask:
                if best is None or len(sets[j]) < len(sets[best]):
                    best = j
        parent[i] = best

    children: list[list[int]] = [[] for _ in sets]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)
    for lst in children:
        lst.sort(key=lambda i: sets[i].sort_key())

    owned: list[list[int]] = [[] for _ in sets]
    for ci, c in enumerate(cores):
        owner = root
        for i, s in enumerate(sets):
            if c.mask | s.mask == s.mask and len(s) < len(sets[owner]):
                owner = i
        owned[owner].append(ci)

    pair_of: dict[int, Edge] = {eid: pr for eid, pr in cover}
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
                f"cover edge {eid} does not cross its witness set {sorted(inside.members())}"
            )
        return (u, v) if (inside.mask >> u) & 1 else (v, u)

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
        bundle = [pair_of[eid] for eid in cover_ids]
        weight = sum(coverage(c, bundle) for c in cores)
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
    edges.sort(key=lambda e: e.lower)

    return ShortcutTree(
        n=n,
        nodes=tuple(nodes),
        edges=tuple(edges),
        cores=tuple(NodeSet(n, c.mask) for c in cores),
        root=root,
        cover=tuple((eid, pr) for eid, pr in cover),
    )


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


def _path_up(tree: ShortcutTree, start: int, stop: int) -> list[int] | None:
    """Surviving nodes from `start` up to `stop`, inclusive; None if not an
    ancestor path."""
    path = [start]
    cur = start
    while cur != stop:
        e = tree.parent_edge(cur)
        if e is None:
            return None
        cur = e.upper
        path.append(cur)
    return path


@dataclass(frozen=True)
class BadPair:
    lower: int  # index into tree.edges
    upper: int  # index into tree.edges


def find_bad_pairs(tree: ShortcutTree) -> list[BadPair]:
    """Pairs of heavy edges separated by an all-white stretch of the tree.

    (e, e') is bad when e' lies above e and every node from e's upper
    endpoint to e''s lower endpoint, inclusive, is white.  Contracted nodes
    in between are white by construction, so only surviving nodes need the
    check.
    """
    pairs = _bad_pairs(tree, [e.weight for e in tree.edges])
    pairs.sort(key=lambda p: (tree.edges[p.upper].sort_token(), tree.edges[p.lower].sort_token()))
    return pairs


def _bad_pairs(tree: ShortcutTree, weights: Sequence[int]) -> list[BadPair]:
    """Bad pairs when edge i weighs weights[i], in search order."""
    heavy = [i for i, w in enumerate(weights) if w >= HEAVY_WEIGHT]
    out: list[BadPair] = []
    for lo in heavy:
        for hi in heavy:
            if lo == hi:
                continue
            path = _path_up(tree, tree.edges[lo].upper, tree.edges[hi].lower)
            if path is not None and all(not tree.nodes[x].black for x in path):
                out.append(BadPair(lower=lo, upper=hi))
    return out


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

    @property
    def ok(self) -> bool:
        return not self.violations and all(b.ok for b in self.bounds)


def _token_sets(
    tree: ShortcutTree, bad_pairs: Sequence[BadPair]
) -> tuple[dict[int, list[int]], dict[int, int], list[int], list[int]]:
    """Per heavy edge: reachable black descendants, the closest one, and the
    derived H*/B* sets used by the token-counting totals."""
    bad_upper = {p.upper for p in bad_pairs}
    heavy = [i for i, e in enumerate(tree.edges) if e.heavy]
    b_sets: dict[int, list[int]] = {}
    b_pick: dict[int, int] = {}
    for i in heavy:
        start = tree.edges[i].lower
        found: list[tuple[int, int]] = []  # (depth, node)
        stack = [(start, 0, False)]
        while stack:
            node, depth, blocked = stack.pop()
            tn = tree.nodes[node]
            if tn.black and not blocked:
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


def verify_bounds(
    tree: ShortcutTree, family_class: str, beta: int | None = None
) -> BoundReport:
    """Check the structural lemmas and totals for the given family class."""
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
            violations.append(f"white leaf node {sorted(nodes[leaf].node_set.members())}")
    for x in nodes:
        if (
            x.index != tree.root
            and not x.contracted
            and not x.black
            and len(x.children) == 1
        ):
            violations.append(
                f"white single-child node {sorted(x.node_set.members())} survived contraction"
            )
    if len(blacks) > num_c:
        violations.append(f"more black nodes ({len(blacks)}) than cores ({num_c})")

    cover_pairs = [pr for _, pr in tree.cover]
    recount = sum(coverage(c, cover_pairs) for c in tree.cores)
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

    pairs = find_bad_pairs(tree)
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
        path = _path_up(tree, lo.upper, hi.lower)
        assert path is not None
        for x in path[:-1]:
            seg = tree.parent_edge(x)
            if seg is not None and seg.heavy:
                violations.append(f"{tag}: heavy edge {seg.cover_edges} sits strictly between")
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
    if _bad_pairs(tree, reass.weights_after):
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

    i_star = [i for i in h_star if i in b_pick and b_pick[i] in set(leaves) and b_pick[i] in set(b_star)]
    for x in i_star:
        for y in i_star:
            if x == y:
                continue
            if _path_up(tree, tree.edges[x].upper, tree.edges[y].lower) is not None:
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
    if family_class == "gamma":
        bounds.append(BoundRow("total-weight-gamma", Fraction(w_total), Fraction(7 * num_b - 2)))
    elif family_class in ("sparse", "beta"):
        bounds.append(BoundRow("total-weight-gamma", Fraction(w_total), Fraction(7 * num_b - 2)))
        token_rhs = 3 * num_b + num_l + 2 * len(b_star) - 2
        bounds.append(BoundRow("total-weight-token", Fraction(w_total), Fraction(token_rhs)))
        info.append(
            f"tighter token variant: {w_total} <= {token_rhs - 2} is "
            f"{'true' if w_total <= token_rhs - 2 else 'false'}"
        )
        bounds.append(BoundRow("total-weight-sparse", Fraction(w_total), Fraction(6 * num_c - 2)))
        if family_class == "beta":
            factor = guarantee_factor("beta", beta)
            bounds.append(BoundRow("total-weight-beta", Fraction(w_total), factor * num_c))
    elif family_class == "uncrossable":
        bounds.append(BoundRow("total-weight-uncrossable", Fraction(w_total), Fraction(2 * num_c)))
    else:
        raise ValueError(f"unknown family class {family_class!r}")

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
        label = "{" + ",".join(str(v) for v in sorted(node.node_set.members())) + "}"
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

    @property
    def ok(self) -> bool:
        return not self.violations and (self.report is None or self.report.ok)


@dataclass(frozen=True)
class AnalysisReport:
    family_class: str
    beta: int | None
    iterations: tuple[IterationAnalysis, ...]

    @property
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
    """
    additions = trace.additions()
    out: list[IterationAnalysis] = []
    for idx, it in enumerate(trace.iterations):
        probs: list[str] = []
        j0 = set(additions[:idx])
        i_prime = [e for e in trace.solution if e not in j0]
        i_cover = [
            e
            for e in i_prime
            if any(edge_crosses_mask(c.mask, *g.pair(e)) for c in it.cores)
        ]
        outside = sorted(j0 | (set(i_prime) - set(i_cover)))
        residual = f.residual([g.pair(e) for e in outside])
        report: BoundReport | None = None
        if tuple(family_cores(residual)) != tuple(it.cores):
            probs.append("recomputed residual cores disagree with the recorded iteration")
        else:
            pairs = [g.pair(e) for e in i_cover]
            try:
                wit = laminar_witness(residual, pairs)
                tree = build_tree(
                    g.n, [(e, g.pair(e)) for e in i_cover], wit, list(it.cores)
                )
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
    return AnalysisReport(family_class=family_class, beta=beta, iterations=tuple(out))
