"""Accelerated third-order convex optimization using gradients and Hessians only."""

from .bdgm import BdgmResult, BdgmState, SubproblemError
from .natmi import IterationRecord, NatmiConfig, ParamReport, SolveResult, solve, validate_params
from .oracles import ConfigError, CountedOracle, OracleCapabilityError, ProblemOracle, SolverError, SumOracle, ZeroOracle, counted
from .problems import (
    Dataset,
    LogisticLoss,
    QuarticChain,
    QuarticObjective,
    synth_logreg,
)
from .sliding import CompositeProblem, solve_sliding
from .taylor import MembershipResult, ModelError, ModelSpec, exact_model_min, fd_third_action, membership_residual, model_grad, model_hess, model_value

__all__ = [
    "BdgmResult",
    "BdgmState",
    "CompositeProblem",
    "ConfigError",
    "CountedOracle",
    "Dataset",
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
    "SolverError",
    "SubproblemError",
    "SumOracle",
    "ZeroOracle",
    "counted",
    "exact_model_min",
    "fd_third_action",
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
