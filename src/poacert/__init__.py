"""Worst-case price-of-anarchy certification for generalized weighted
congestion games.

The package answers one question in several forms: over all games with a
given player weight vector, perception matrix and latency basis, how bad
can an (approximate) equilibrium be relative to the optimum?  The answer
is the optimum of a primal/dual pair of linear programs on a two-strategy
representative model; a concrete worst-case game witnessing the value is
extracted from the primal solution, and everything is cross-checkable by
brute-force oracles on small instances.
"""

from .games import (
    EQ1,
    MAX,
    MONOMIAL,
    INDICATOR,
    SUM,
    TABLE,
    VERBATIM,
    BasisFunction,
    CongestionModel,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    congestion,
    deviation_gap,
    identity_matrix,
    individual_cost,
    is_eps_cce,
    is_eps_pne,
    social_value,
)
from .representative import RepresentativeModel, build_representative
from .formulations import (
    INFINITE,
    OPTIMAL,
    InvariantViolation,
    Witness,
    WorstCaseConfig,
    WorstCaseResult,
    build_dp_cce,
    build_dp_pne,
    build_pp_cce,
    build_pp_pne,
    extract_worst_game,
    lemma1_witness,
    normalize_game,
    solve_worst_case,
    verify_extension,
)
from .oracle import (
    NO_EQUILIBRIUM,
    CCEReport,
    PPoAReport,
    cce_poa,
    enumerate_eps_pne,
    exact_ppoa,
    ppoa_report,
    social_optimum,
    worst_cce,
)
from .smoothness import (
    NOT_SMOOTHABLE,
    RobustPoA,
    SmoothnessCertificate,
    check_smooth,
    is_sum_bounded,
    robust_poa,
    validate_smoothness_claims,
)
from .gamefile import GameDocument, GameFileError, emit_game, load_config, load_game

__version__ = "0.1.0"

__all__ = [
    "BasisFunction",
    "CongestionModel",
    "CCEReport",
    "EQ1",
    "GameDocument",
    "GameError",
    "GameFileError",
    "GeneralizedGame",
    "INDICATOR",
    "INFINITE",
    "InvariantViolation",
    "MAX",
    "MONOMIAL",
    "NO_EQUILIBRIUM",
    "NOT_SMOOTHABLE",
    "OPTIMAL",
    "PPoAReport",
    "ProfileDistribution",
    "RepresentativeModel",
    "RobustPoA",
    "SUM",
    "SmoothnessCertificate",
    "SocialSpec",
    "TABLE",
    "VERBATIM",
    "Witness",
    "WorstCaseConfig",
    "WorstCaseResult",
    "build_dp_cce",
    "build_dp_pne",
    "build_pp_cce",
    "build_pp_pne",
    "build_representative",
    "cce_poa",
    "check_smooth",
    "congestion",
    "deviation_gap",
    "emit_game",
    "enumerate_eps_pne",
    "exact_ppoa",
    "extract_worst_game",
    "identity_matrix",
    "individual_cost",
    "is_eps_cce",
    "is_eps_pne",
    "is_sum_bounded",
    "lemma1_witness",
    "load_config",
    "load_game",
    "normalize_game",
    "ppoa_report",
    "robust_poa",
    "social_optimum",
    "social_value",
    "solve_worst_case",
    "validate_smoothness_claims",
    "verify_extension",
    "worst_cce",
]
