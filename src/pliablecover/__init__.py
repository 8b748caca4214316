"""Primal-dual edge covers of set families with exact rational certificates."""

__version__ = "0.1.0"

from .errors import (
    CoverNotMinimalError,
    GenerationError,
    GuardError,
    InfeasibleError,
    NoLaminarWitnessError,
    OracleInvariantError,
    PliableCoverError,
    TreeInvariantError,
    UniverseMismatchError,
)
from .setfam import (
    CheckResult,
    ExplicitFamily,
    ExplicitFamilyOracle,
    FamilyOracle,
    NodeSet,
    crossing_number,
    crosses,
    is_gamma_pliable,
    is_pliable,
    is_proper_family,
    is_sparse,
    is_uncrossable,
    pliability_counterexample,
)
from .smallcuts import (
    CapGraph,
    SmallCutsOracle,
    beta_bound,
    edge_connectivity,
    materialize_family,
)
from .wgmv import CostedGraph, DualState, IterationRecord, RunTrace, phase1, phase2, solve
from .exact import Certificate, brute_force_opt, certify, guarantee_factor
from .witness import laminar_witness, witness_candidates
from .treeanal import (
    AnalysisReport,
    BoundReport,
    ShortcutTree,
    analyze_trace,
    build_tree,
    classify_chain,
    emit_dot,
    find_bad_pairs,
    verify_bounds,
)
from .gens import (
    TightBundle,
    random_cap_graph,
    random_instance,
    random_instances,
    tight_beta,
    tight_seven,
    tight_six,
)
from .jsonio import Instance, instance_digest, instance_from_json, instance_to_json

__all__ = [name for name in dir() if not name.startswith("_")]
