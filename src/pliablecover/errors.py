"""Exception types shared across the package, and the searches' budgets.

The CLI maps these onto exit codes: refusals (GuardError) exit with 3, findings
(oracle cores that break their contract among them) and infeasibility with
1, malformed input (a bundle that breaks the shortcut tree's preconditions
among them) with 2.  Any other exception is a crash: it exits with 4 after
printing its traceback, never with 1, which means a negative verdict.
"""

from __future__ import annotations


class PliableCoverError(Exception):
    """Base class for all package errors."""


class GuardError(PliableCoverError):
    """An operation refused to go on, past its work budget or a size guard."""


def guard(what: str, label: str, value: int, limit: int) -> None:
    """Refuse `what` when the instance's `label`, `value`, exceeds `limit`."""
    if value > limit:
        raise GuardError(f"instance too large for {what}: {label} = {value} > {limit}")


# The one table of search limits: per exhaustive search, the work it counts
# and how much of it one run may do.  A search node of the optimum takes
# 40 us on tight_six(32) to 250 us on tight_six(256), so its refusal comes
# after 10-63 s there (2 vCPU, CPython 3.11).
BUDGETS: dict[str, tuple[str, int]] = {
    "optimum": ("search nodes", 250_000),
    "witness": ("candidates tried", 2_000_000),
    "class check": ("candidate tuples examined", 2_000_000),
}


class Budget:
    """The work one search run has done (`used`), refused past its limit."""

    def __init__(self, what: str, search: str) -> None:
        self.what = what
        self.label, self.limit = BUDGETS[search]
        self.used = 0

    def take(self, k: int = 1) -> None:
        self.used += k
        guard(self.what, self.label, self.used, self.limit)


class UniverseMismatchError(PliableCoverError):
    """Two objects over different universes were combined."""


class InfeasibleError(PliableCoverError):
    """The candidate edge set cannot cover the family.

    Carries the first core found with no candidate edge crossing it.
    """

    def __init__(self, core) -> None:
        super().__init__(f"instance infeasible: no candidate edge covers core {list(core.members())}")
        self.core = core


class CoverNotMinimalError(PliableCoverError):
    """A cover passed where an inclusion-minimal cover is required.

    Carries the id of a redundant edge (one that witnesses no set).
    """

    def __init__(self, edge_id: int) -> None:
        super().__init__(f"cover not minimal: edge {edge_id} covers no set uniquely")
        self.edge_id = edge_id


class NoLaminarWitnessError(PliableCoverError):
    """Witness candidates exist but no laminar assignment does."""


class OracleInvariantError(PliableCoverError):
    """A family oracle returned cores violating its contract."""


class TreeInvariantError(PliableCoverError):
    """The shortcut-tree construction hit an input violating its preconditions."""


class GenerationError(PliableCoverError):
    """A random generator exhausted its rejection budget."""
