"""The forwarding oracle the tests share, and the reference answers the
family's residual queries are checked against.

`CountingOracle` wraps an oracle as the benchmark's tracing wrapper does:
it sets `inner`, forwards `cores` and `is_covered` and counts them, and
gets `residual`, `reverse_delete` and `contains` from `inner`'s family.

`ReferenceOracle` answers those three from the stateless queries instead,
by the loops the package ran before one family answered every query:
a residual that asks `cores(J)` once per step and finds the members J
leaves uncovered (`alive`) by testing every edge of J against every
member, reverse delete by one `is_covered` probe per edge, and
membership by a path through the set.
"""

from __future__ import annotations

from pliablecover.setfam import Edge, FamilyOracle, NodeSet, bits, edge_crosses_mask, validate_edges


class CountingOracle(FamilyOracle):
    """Forwards `cores` and `is_covered` to `inner`, counting the calls."""

    def __init__(self, inner: FamilyOracle) -> None:
        self.inner = inner
        self.calls = {"cores": 0, "is_covered": 0}

    def cores(self, edges):
        self.calls["cores"] += 1
        return self.inner.cores(edges)

    def is_covered(self, edges):
        self.calls["is_covered"] += 1
        return self.inner.is_covered(edges)


class StatelessResidual:
    """A residual that keeps J and answers `cores` (kept once read) with
    the oracle's stateless `cores(J)`, asked only when read.  `alive`, the
    mask of the family's members that no edge of J crosses (bit i for
    member i), is found by brute force when read, with no oracle call.

    `add(e)` for an e that crosses no core of J keeps those cores without
    a call: F^{J+e} is a subfamily of F^J that still holds every core of
    J, so they stay its minimal members.
    """

    __slots__ = ("_oracle", "edges", "_cores")

    def __init__(self, oracle: FamilyOracle, edges: tuple[Edge, ...], cores: tuple[NodeSet, ...] | None = None) -> None:
        self._oracle = oracle
        self.edges = edges
        self._cores = cores

    @property
    def cores(self) -> tuple[NodeSet, ...]:
        if self._cores is None:
            self._cores = tuple(self._oracle.cores(self.edges))
        return self._cores

    @property
    def alive(self) -> int:
        members = self._oracle._family.members
        return sum(
            1 << i for i, s in enumerate(members) if not any(edge_crosses_mask(s.mask, u, v) for u, v in self.edges)
        )

    def add(self, u: int, v: int) -> "StatelessResidual":
        validate_edges(self._oracle.universe_size(), ((u, v),))
        cores = self._cores
        if cores is not None and any(edge_crosses_mask(c.mask, u, v) for c in cores):
            cores = None
        return StatelessResidual(self._oracle, self.edges + ((u, v),), cores)


def loop_reverse_delete(oracle: FamilyOracle, edges) -> list[int]:
    """Reverse delete by one `is_covered(kept - e)` probe per edge, from
    the last edge to the first; the dropped positions, descending."""
    kept = list(edges)
    validate_edges(oracle.universe_size(), kept)  # the probes never hold all of J
    dropped = []
    for i in range(len(kept) - 1, -1, -1):
        probe = kept[:i] + kept[i + 1 :]  # only edges after i were dropped
        if oracle.is_covered(probe):
            kept = probe
            dropped.append(i)
    return dropped


def path_contains(oracle: FamilyOracle, s: NodeSet) -> bool:
    """Membership by one `cores` call: a path through s plus a path through
    V - s crosses every set except s and V - s, which are disjoint, so s is
    a member exactly when it is a core of that edge set."""
    n = oracle.universe_size()
    if s.n != n:
        return False
    inside, outside = bits(s.mask), bits(~s.mask & ((1 << n) - 1))
    path = [*zip(inside, inside[1:]), *zip(outside, outside[1:])]
    return any(c.mask == s.mask for c in oracle.cores(path))


class ReferenceOracle(CountingOracle):
    """A `CountingOracle` whose residual, reverse delete and membership are
    the reference loops, so it sees every call they make."""

    def residual(self) -> StatelessResidual:
        return StatelessResidual(self, ())

    def reverse_delete(self, edges) -> list[int]:
        return loop_reverse_delete(self, edges)

    def contains(self, s: NodeSet) -> bool:
        return path_contains(self, s)
