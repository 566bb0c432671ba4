"""Per-capita investment curves for a ring of q-level interacting agents.

The model couples neighbouring agents on a ring through per-level
interaction strengths and an external bias; the package computes the
expected investment per agent as a function of the control parameter beta,
exactly where closed forms exist and spectrally (transfer matrix plus
extrapolated finite differences) everywhere else.
"""

from .closedform import (
    LimitClassification,
    Q3_CASE1_POSITIVE_J_LIMIT,
    Q3_CASE3_POSITIVE_J_LIMIT,
    classify_limits,
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
    eigen_derivative_four_point,
    eigen_derivative_two_point,
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
    DominantEigen,
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
    "DominantEigen",
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
    "eigen_derivative_four_point",
    "eigen_derivative_two_point",
    "ensemble_sweep",
    "expected_investment_bruteforce",
    "hamiltonian",
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
