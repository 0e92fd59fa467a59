"""Accelerated third-order convex optimization using gradients and Hessians only."""

from .bdgm import BdgmResult, BdgmState, SubproblemError, fd_third_action
from .natmi import IterationRecord, NatmiConfig, ParamReport, SolveResult, solve, validate_params
from .oracles import CountedOracle, OracleCapabilityError, ProblemOracle, SumOracle, ZeroOracle, counted
from .problems import (
    Dataset,
    DatasetFormatError,
    LogisticLoss,
    QuarticChain,
    QuarticObjective,
    load_libsvm,
    make_logreg,
    make_quartic,
    make_worst_case,
    synth_logreg,
)
from .sliding import CompositeProblem, solve_sliding
from .taylor import MembershipResult, ModelError, ModelSpec, exact_model_min, membership_residual, model_grad, model_hess, model_value

__all__ = [
    "BdgmResult",
    "BdgmState",
    "CompositeProblem",
    "CountedOracle",
    "Dataset",
    "DatasetFormatError",
    "IterationRecord",
    "LogisticLoss",
    "ModelError",
    "ModelSpec",
    "NatmiConfig",
    "OracleCapabilityError",
    "ParamReport",
    "ProblemOracle",
    "QuarticChain",
    "QuarticObjective",
    "SolveResult",
    "SubproblemError",
    "SumOracle",
    "ZeroOracle",
    "counted",
    "exact_model_min",
    "fd_third_action",
    "load_libsvm",
    "make_logreg",
    "make_quartic",
    "make_worst_case",
    "MembershipResult",
    "membership_residual",
    "model_grad",
    "model_hess",
    "model_value",
    "solve",
    "solve_sliding",
    "synth_logreg",
    "validate_params",
]

__version__ = "0.1.0"
