"""Exception types shared across the package.

The CLI maps these onto exit codes: guard violations exit with 3, findings
(oracle cores that break their contract among them) and infeasibility with
1, malformed input (a bundle that breaks the shortcut tree's preconditions
among them) with 2.  Any other exception is a crash: it exits with 4 after
printing its traceback, never with 1, which means a negative verdict.
"""

from __future__ import annotations


class PliableCoverError(Exception):
    """Base class for all package errors."""


class GuardError(PliableCoverError):
    """An operation refused to run because the instance exceeds its size guard."""


class UniverseMismatchError(PliableCoverError):
    """Two objects over different universes were combined."""


class InfeasibleError(PliableCoverError):
    """The candidate edge set cannot cover the family.

    Carries the first core found with no candidate edge crossing it.
    """

    def __init__(self, core) -> None:
        super().__init__(f"instance infeasible: no candidate edge covers core {sorted(core.members())}")
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
