"""Desk-scale laboratory for decision-making over branching measurement outcomes."""

from .exact import SqrtRational
from .games import (
    Amplitude,
    AncillaCoupled,
    Consequence,
    Direct,
    Observable,
    PayoffFunction,
    PureState,
    QuantumGame,
    born_weights,
    couple_ancilla,
    equal_game,
    game_from_json,
    game_to_json,
    parse_realization,
    relabel_game,
    validate_game,
    weighted_game,
)
from .branching import (
    BranchLeaf,
    BranchTree,
    RotationConfig,
    branch,
    coarse_grain,
    count_branches,
    extend,
    outcome_weights,
    rotate_basis,
    tree_to_csv,
)
from .strategies import (
    Born,
    CaringMeasure,
    Egalitarian,
    EigenvalueWeighted,
    SquaredWeightRenormalized,
    TablePreference,
    caring_measure,
    mn_violation,
    parse_strategy,
    value_game,
)
from .verifier import (
    StageReport,
    egalitarian_incoherence_demo,
    reduce_by_pairwise_coupling,
    verify_stage1,
    verify_stage2,
    verify_stage3,
    verify_stage_general,
)
from .confirmation import (
    Book,
    Bet,
    Conditionalize,
    CredenceState,
    Deviant,
    Rigid,
    TrajectoryReport,
    build_dutch_book,
    case_tree,
    conditionalize,
    confirmation_experiment,
    evaluate_book_on_branches,
    evidence_probability,
    posterior,
)

__version__ = "0.1.0"

# branchlab.decision imports numpy, most of the package's import time, so
# its names are loaded on first use (PEP 562).
_DECISION = frozenset({
    "Act",
    "AxiomError",
    "Comparison",
    "Infeasible",
    "PreferenceRelation",
    "Representation",
    "Setup",
    "all_acts",
    "all_events",
    "check_axioms",
    "expected_utility",
    "extract_representation",
    "generate_preferences",
    "qualitative_probability",
})


def __getattr__(name: str):
    if name in _DECISION:
        from . import decision

        return getattr(decision, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
