"""Per-capita investment curves for a ring of q-level interacting agents.

The model couples neighbouring agents on a ring through per-level
interaction strengths and an external bias; the package computes the
expected investment per agent as a function of the control parameter beta,
in closed form for q = 2 and the integrable q = 3 cases, and for any q from
the dominant eigenvector of the transfer matrix, which solves a scalar
secular equation, through the Hellmann-Feynman identity
l = sum_a d_a v_a^2.  The paper's finite-difference route stays available
as a cross-check through an explicit ``StencilConfig``.
"""

from .closedform import (
    LimitClassification,
    Q3_CASE1_POSITIVE_J_LIMIT,
    Q3_CASE3_POSITIVE_J_LIMIT,
    classify_limits,
    investment_at_beta_infinity,
    investment_q2,
    investment_q3_case1,
    investment_q3_case2,
    investment_q3_case3,
)
from .derivatives import (
    InvestmentCurve,
    StencilConfig,
    SweepError,
    central_difference,
    per_capita_investment,
    richardson_difference,
    sweep_curve,
)
from .model import (
    ENUMERATION_STATE_CAP,
    CouplingProfile,
    EnumerationCapError,
    ModelParams,
    SpinConfig,
    expected_investment_bruteforce,
    hamiltonian,
    partition_function_bruteforce,
    total_investment,
)
from .profiles import ProfileSpec, SeedEnsemble, SplitMix64, ensemble_sweep, make_profile
from .transfer import (
    ConvergenceError,
    TransferMatrix,
    build_matrix,
    dominant_eigenvalue,
    log_partition_function,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_STATE_CAP",
    "ConvergenceError",
    "CouplingProfile",
    "EnumerationCapError",
    "InvestmentCurve",
    "LimitClassification",
    "ModelParams",
    "ProfileSpec",
    "Q3_CASE1_POSITIVE_J_LIMIT",
    "Q3_CASE3_POSITIVE_J_LIMIT",
    "SeedEnsemble",
    "SpinConfig",
    "SplitMix64",
    "StencilConfig",
    "SweepError",
    "TransferMatrix",
    "build_matrix",
    "central_difference",
    "classify_limits",
    "dominant_eigenvalue",
    "ensemble_sweep",
    "expected_investment_bruteforce",
    "hamiltonian",
    "investment_at_beta_infinity",
    "investment_q2",
    "investment_q3_case1",
    "investment_q3_case2",
    "investment_q3_case3",
    "log_partition_function",
    "make_profile",
    "partition_function_bruteforce",
    "per_capita_investment",
    "richardson_difference",
    "sweep_curve",
    "total_investment",
]
