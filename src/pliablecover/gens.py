"""Instance generators: tight ratio constructions and seeded random mixes.

The tight constructions hang unit-dual gadgets off a complete binary region
tree.  Every edge's cost equals the number of cores it crosses, so the dual
that puts one unit on every core is feasible with every edge exactly tight,
the dual objective is the core count, and the full edge set is an
inclusion-minimal cover whose witness family the generator emits alongside
the instance.  The cost/dual ratio therefore approaches the respective
guarantee as the gadget count grows.

The random generators propose families from a small mixture (laminar
partitions, group-split families, pliability-repaired random families,
materialized small-cut families) and gate every proposal behind the exact
checkers for the requested class, so an accepted instance is verified, not
assumed.  All randomness flows from the callers' seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import BUDGETS, GenerationError, GuardError, guard
from .setfam import (
    Edge,
    ExplicitFamily,
    NodeSet,
    _first_bad_pair,
    _pliable_pair,
    check_family,
    edge_crosses_mask,
)
from .smallcuts import CapGraph, materialize_family
from .wgmv import CostedGraph, edge_loads

GENERATION_BUDGET = 400
# A pliability repair still short of pliable past this many members is
# given up.  The limit is the member guard the gamma check once had, kept
# so that every `gen --kind gamma` draw keeps its bytes.  A round adds at
# most two members, so the repair's pair scan sees at most this many plus
# two, whose pairs stay far inside the class-check budget.
MAX_REPAIRED_MEMBERS = 256
# The properties a proposal of each kind must have, checked in this order.
_ACCEPT = {
    "gamma": ("pliable", "gamma"),
    "sparse": ("pliable", "sparse", "gamma"),
    "uncrossable": ("proper", "pliable"),
}


@dataclass(frozen=True)
class TightBundle:
    """A tight instance plus the structures that certify its ratio."""

    kind: str
    n: int
    graph: CostedGraph
    family: ExplicitFamily
    witness: tuple[NodeSet, ...]  # aligned with edge ids
    cores: tuple[NodeSet, ...]
    leaves: int
    beta: int | None

    @property
    def total_cost(self) -> Fraction:
        nums, denom = self.graph.scaled_costs
        return Fraction(sum(nums), denom)

    @property
    def dual_objective(self) -> Fraction:
        # One unit on every core; every edge is exactly tight by construction.
        return Fraction(len(self.cores))

    @property
    def ratio(self) -> Fraction:
        return self.total_cost / self.dual_objective


class _TreeSkeleton:
    """Shared scaffolding: heap-indexed region tree with one gadget per leaf.

    Heap nodes 1..2L-1; internal regions are 1..L-1, leaf slots are
    L..2L-1 and hold the gadgets.  Region 0 stands for the root region.
    Every heap node has one upward edge whose far endpoint is a fresh "drop"
    node in the parent's region.
    """

    def __init__(self, leaves: int) -> None:
        if leaves < 2 or leaves & (leaves - 1):
            raise ValueError(f"leaves must be a power of two and at least 2, got {leaves}")
        self.leaves = leaves
        # Gadget g occupies node ids 4g..4g+3: a0, b1, a1, b2.
        self.drop_from: dict[int, int] = {}
        nxt = 4 * leaves
        for j in range(1, leaves):
            for child in (2 * j, 2 * j + 1):
                self.drop_from[child] = nxt
                nxt += 1
        self.drop_from[1] = nxt
        nxt += 1
        self.next_id = nxt

    def alloc(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out

    def depth(self, region: int) -> int:
        return region.bit_length()  # region 1 at depth 1; region 0 -> 0

    def subtree(self, j: int) -> list[int]:
        out = []
        stack = [j]
        while stack:
            x = stack.pop()
            out.append(x)
            if x < self.leaves:
                stack.extend((2 * x + 1, 2 * x))
        return out

    def slot_gadget_nodes(self, slot: int) -> list[int]:
        g = slot - self.leaves
        return [4 * g, 4 * g + 1, 4 * g + 2, 4 * g + 3]

    def region_set_members(self, j: int, extra_per_region: dict[int, list[int]]) -> list[int]:
        """All vertices inside region j's subtree: gadget nodes, the drops
        landing in subtree regions, and any extra nodes homed there."""
        members: list[int] = []
        for x in self.subtree(j):
            if x >= self.leaves:
                members.extend(self.slot_gadget_nodes(x))
            if x != j:
                members.append(self.drop_from[x])
            members.extend(extra_per_region.get(x, []))
        return members


def _gadget_edges(
    sk: _TreeSkeleton, n: int, drop_cost: Fraction
) -> tuple[list[tuple[int, int, Fraction]], list[NodeSet]]:
    """Each gadget's three edges and their witness sets, gadget by gadget;
    the last edge drops from the gadget to its region at `drop_cost`."""
    edges: list[tuple[int, int, Fraction]] = []
    witness: list[NodeSet] = []
    for g in range(sk.leaves):
        slot = sk.leaves + g
        a0, b1, a1, b2 = sk.slot_gadget_nodes(slot)
        edges.append((a0, b1, Fraction(2)))
        witness.append(NodeSet.from_members(n, [a0]))
        edges.append((a1, b2, Fraction(1)))
        witness.append(NodeSet.from_members(n, [a0, b1, a1]))
        edges.append((b2, sk.drop_from[slot], drop_cost))
        witness.append(NodeSet.from_members(n, [a0, b1, a1, b2]))
    return edges, witness


def tight_seven(leaves: int) -> TightBundle:
    """Gadget chains worth 5 plus weight-2 spine edges; ratio (7L-2)/(L+2).

    Each gadget contributes a singleton core; two interleaved global cores
    alternate by region depth, so every spine edge crosses both.  An isolated
    odd-parity vertex in the root region keeps both global cores owned by
    the full vertex set.
    """
    sk = _TreeSkeleton(leaves)
    isolated_odd = sk.alloc()
    n = sk.next_id

    color: dict[int, int] = {}
    for x, d in sk.drop_from.items():
        color[d] = sk.depth(x // 2) % 2
    slot_parity = sk.depth(sk.leaves) % 2
    for g in range(leaves):
        color[4 * g + 1] = slot_parity  # b1
        color[4 * g + 3] = slot_parity  # b2
    color[isolated_odd] = 1

    cores = [NodeSet.from_members(n, [4 * g]) for g in range(leaves)]
    for parity in (0, 1):
        cores.append(NodeSet.from_members(n, [v for v, c in color.items() if c == parity]))

    edges, witness = _gadget_edges(sk, n, Fraction(2))
    for j in range(1, leaves):
        first_drop = sk.drop_from[2 * j]
        edges.append((first_drop, sk.drop_from[j], Fraction(2)))
        witness.append(NodeSet.from_members(n, sk.region_set_members(j, {})))

    return _assemble("tight7", n, edges, witness, cores, leaves, None)


def tight_six(leaves: int) -> TightBundle:
    """One global core through every gadget and spine; ratio (6L-2)/(L+1)."""
    return _weight_six(leaves, None)


def tight_beta(leaves: int, beta: int) -> TightBundle:
    """The weight-6 geometry with the global core split into one core per
    group of `beta` consecutive gadgets; ratio (6L-2)/(L+L/beta)."""
    return _weight_six(leaves, beta)


def _weight_six(leaves: int, beta: int | None) -> TightBundle:
    """The weight-6 geometry: spine node c_j sits in the parent of region j,
    every edge costs 1 except the gadgets' weight-2 first edges, and one core
    per group of `beta` gadgets holds the groups' b-nodes and c-nodes.
    beta None is tight6: one group of every gadget, plus an isolated
    root-region vertex allocated after the c-nodes."""
    sk = _TreeSkeleton(leaves)
    if beta is not None and (beta < 1 or beta & (beta - 1) or beta > leaves):
        raise ValueError(f"beta must be a power of two and at most leaves = {leaves}, got {beta}")
    c_node = {j: sk.alloc() for j in range(1, leaves)}
    groups = 1 if beta is None else leaves // beta
    group_members: dict[int, list[int]] = {s: [] for s in range(groups, 2 * groups)}
    if beta is None:
        group_members[1].append(sk.alloc())  # isolated member of the global core
    n = sk.next_id

    for s, members in group_members.items():
        for x in sk.subtree(s):
            if x >= leaves:
                g = x - leaves
                members += [4 * g + 1, 4 * g + 3]
            if x in c_node:
                members.append(c_node[x])
    for x in range(1, groups):  # spine vertices above the groups
        s = x
        while s < groups:
            s = 2 * s
        group_members[s].append(c_node[x])
    cores = [NodeSet.from_members(n, [4 * g]) for g in range(leaves)]
    cores += [NodeSet.from_members(n, sorted(m)) for m in group_members.values()]

    extra: dict[int, list[int]] = {}
    for j, c in c_node.items():  # c_j lives in the parent's region
        extra.setdefault(j // 2, []).append(c)
    edges, witness = _gadget_edges(sk, n, Fraction(1))
    for j in range(1, leaves):
        region = sk.region_set_members(j, extra)
        edges.append((sk.drop_from[2 * j], c_node[j], Fraction(1)))
        witness.append(NodeSet.from_members(n, region))
        edges.append((c_node[j], sk.drop_from[j], Fraction(1)))
        witness.append(NodeSet.from_members(n, region + [c_node[j]]))
    kind = "tight6" if beta is None else "tight-beta"
    return _assemble(kind, n, edges, witness, cores, leaves, beta)


def _assemble(
    kind: str,
    n: int,
    edges: list[tuple[int, int, Fraction]],
    witness: list[NodeSet],
    cores: list[NodeSet],
    leaves: int,
    beta: int | None,
) -> TightBundle:
    graph = CostedGraph(n, tuple(edges))
    # one unit of dual on every core must load each edge to exactly its cost
    loads, costs, denom = edge_loads(graph, [(c, Fraction(1)) for c in cores])
    for (u, v, cost), w, load, scaled in zip(edges, witness, loads, costs):
        assert load == scaled, f"edge ({u},{v}) costs {cost} but crosses {Fraction(load, denom)} cores"
        assert edge_crosses_mask(w.mask, u, v), "edge must cross its witness set"
    # One object per distinct mask, shared by family, witness and cores, so
    # each set's members are walked once.
    sets = {s.mask: s for s in [*witness, *cores]}
    family = ExplicitFamily(n, tuple(sets.values()))
    return TightBundle(
        kind=kind,
        n=n,
        graph=graph,
        family=family,
        witness=tuple(sets[w.mask] for w in witness),
        cores=tuple(sets[c.mask] for c in cores),
        leaves=leaves,
        beta=beta,
    )


# ---------------------------------------------------------------------------
# Random instances


def _random_laminar_masks(rng: random.Random, n: int) -> list[int]:
    full = (1 << n) - 1
    out: set[int] = set()
    stack = [full]
    while stack:
        m = stack.pop()
        bits = [v for v in range(n) if m >> v & 1]
        if len(bits) <= 1:
            continue
        cut = rng.randint(1, len(bits) - 1)
        picked = rng.sample(bits, cut)
        left = 0
        for v in picked:
            left |= 1 << v
        for part in (left, m & ~left):
            if part != full and rng.random() < 0.7:
                out.add(part)
            stack.append(part)
    return sorted(out)


def _random_group_split_masks(rng: random.Random, n: int) -> list[int]:
    full = (1 << n) - 1
    terminals = rng.sample(range(n), rng.randint(min(4, n), min(n, 6)))
    rng.shuffle(terminals)
    groups: list[list[int]] = []
    while len(terminals) >= 2:
        take = 2 if len(terminals) == 2 or rng.random() < 0.6 else 3
        groups.append(terminals[:take])
        terminals = terminals[take:]
    gmasks = []
    for grp in groups:
        gm = 0
        for v in grp:
            gm |= 1 << v
        gmasks.append(gm)
    out = []
    for m in range(1, full):
        if any(m & gm and (m & gm) != gm for gm in gmasks):
            out.append(m)
    return out


def _random_repaired_masks(rng: random.Random, n: int) -> list[int] | None:
    """Random seed sets, then add derived sets until the family is pliable.

    Each round repairs the first non-pliable pair of the sorted masks.  A
    family still unrepaired past MAX_REPAIRED_MEMBERS is given up.
    """
    if n < 3:
        return None  # fewer than three proper nonempty subsets to seed with
    full = (1 << n) - 1
    masks: set[int] = set()
    while len(masks) < rng.randint(3, 5):
        masks.add(rng.randint(1, full - 1))
    for _ in range(600):
        pair = _first_bad_pair(sorted(masks), _pliable_pair, "pliability")
        if pair is None:
            return sorted(masks)
        if len(masks) > MAX_REPAIRED_MEMBERS:
            return None
        a, b = pair
        derived = [a & b, a | b, a & ~b, b & ~a]
        present = sum(1 for d in derived if d in masks)
        addable = [d for d in derived if d not in masks and d != 0 and d != full]
        if len(addable) < 2 - present:
            return None
        for d in rng.sample(addable, 2 - present):
            masks.add(d)
    return None


def _attach_edges(rng: random.Random, fam: ExplicitFamily) -> CostedGraph:
    """Candidate edges: one crossing edge per member for feasibility at every
    stage of a run, plus noise edges; parallel duplicates are merged."""
    n = fam.n
    pairs: set[Edge] = set()
    for s in fam.members:
        inside = s.members()
        outside = [v for v in range(n) if v not in s]
        u, v = rng.choice(inside), rng.choice(outside)
        pairs.add((min(u, v), max(u, v)))
    for _ in range(rng.randint(1, 4)):
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in sorted(pairs):
        cost = Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 2, 4)))
        edges.append((u, v, cost))
    return CostedGraph(n, tuple(edges))


def random_cap_graph(rng: random.Random, n: int) -> CapGraph:
    """Random multigraph with capacities in 1..4 and a threshold in 1..8."""
    edges: list[tuple[int, int, Fraction]] = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):  # random spanning tree keeps most instances connected
        u = order[rng.randint(0, i - 1)]
        v = order[i]
        edges.append((min(u, v), max(u, v), Fraction(rng.randint(1, 4))))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v), Fraction(rng.randint(1, 4))))
    if rng.random() < 0.15 and edges:
        edges.pop(rng.randrange(len(edges)))  # occasionally disconnect
    edges.sort(key=lambda e: (e[0], e[1], e[2]))
    return CapGraph(n, tuple(edges), Fraction(rng.randint(1, 8)))


def _smallcut_masks(rng: random.Random, n: int) -> list[int] | None:
    h = random_cap_graph(rng, n)
    try:
        fam = materialize_family(h)
    except GuardError:
        return None
    if not 1 <= len(fam) <= 28:
        return None
    return list(fam.masks)


def random_instance(
    kind: str, rng: random.Random, n: int | None = None
) -> tuple[CostedGraph, ExplicitFamily]:
    """One verified instance of the requested family class.

    kind is one of "gamma", "sparse", "uncrossable".  Proposals that fail
    the class checker (or outrun its work budget) are rejected and
    retried; exceeding the retry budget raises GenerationError.  A size at
    which no proposal can pass its checker raises GuardError before drawing.

    Known defect: a "sparse" small-cut proposal has at most 6 nodes, so with
    n > 6 some instances are over 6 nodes (drawing at n changes the bytes).
    """
    if kind not in _ACCEPT:
        raise ValueError(f"unknown instance kind {kind!r}")
    if n is not None and n < 2:
        raise ValueError(f"universe size n = {n} is below 2")
    # Sizes at which no proposal can pass its checker: a group-split
    # proposal has at least 2^(n-1) members, and the pliability check scans
    # all their pairs before it passes one, past the class-check budget
    # from n = 12.
    if kind == "uncrossable" and n is not None:
        guard(f"verified {kind} generation", "member pairs", comb(2 ** (n - 1), 2), BUDGETS["class check"][1])
    for _ in range(GENERATION_BUDGET):
        size = n if n is not None else rng.randint(4, 7)
        roll = rng.random()
        masks: list[int] | None
        if kind == "gamma":
            if roll < 0.45:
                masks = _random_laminar_masks(rng, size)
            elif roll < 0.75 and size <= 5:
                masks = _random_group_split_masks(rng, size)
            else:
                masks = _random_repaired_masks(rng, size)
        elif kind == "sparse":
            if roll < 0.55:
                masks = _random_laminar_masks(rng, size)
            else:
                size = min(size, 6)
                masks = _smallcut_masks(rng, size)
        else:
            masks = _random_group_split_masks(rng, size)
        if not masks:
            continue
        try:
            fam = ExplicitFamily(size, tuple(NodeSet(size, m) for m in masks))
        except ValueError:
            continue
        try:
            if not all(check_family(fam, prop).holds for prop in _ACCEPT[kind]):
                continue
        except GuardError:
            continue
        return _attach_edges(rng, fam), fam
    raise GenerationError(
        f"no {kind} instance accepted within {GENERATION_BUDGET} proposals; "
        "try another seed or a larger universe"
    )


def instance_rng(seed: int, index: int) -> random.Random:
    """Independent per-instance stream, so batches can be split or reordered
    without changing any single instance."""
    return random.Random(f"{seed}:{index}")


def random_instances(
    kind: str, count: int, seed: int, n: int | None = None
) -> Iterator[tuple[CostedGraph, ExplicitFamily]]:
    """Deterministic stream of verified instances from one seed."""
    for i in range(count):
        yield random_instance(kind, instance_rng(seed, i), n)
