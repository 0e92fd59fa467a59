"""Quartic-regularized third-order model of an objective around an anchor.

For an anchor x~ and regularization weight H the model at y = x~ + s is

    value:  f(x~) + <g, s> + 0.5*<Bs, s> + (1/6)*D3f(x~)[s]^3 + (H/6)*||s||^4
    grad:   g + Bs + 0.5*D3f(x~)[s]^2 + (2H/3)*||s||^2 * s
    hess:   B + D3f(x~)[s] + (2H/3)*(||s||^2 * I + 2*s*s')

with g and B the gradient and Hessian cached at the anchor. For H at least
the third-derivative Lipschitz constant the model is convex.

ModelSpec is the one model-part type. Its analytic route, the oracle's
third-derivative routines, gives the reference the subproblem solver is
checked against, natmi_exact's model and sliding's model of g (one
third-derivative action of g per model gradient). Its difference route
gives the inexact engine's model (bdgm). newton_step is the one damped
Newton step, and newton_min, which repeats it down to a tolerance or the
float limit, is the loop of the model minimizer and of
harness.reference_fstar.
"""

from __future__ import annotations

import numpy as np
from typing import NamedTuple

from .oracles import Matrix, OracleCapabilityError, ProblemOracle, SolverError, Vector

#: Newton steps newton_min may take before it gives up.
_MAX_NEWTON_STEPS = 500

#: Largest dimension exact_model_min accepts.
EXACT_MAX_DIM = 50


def fd_third_action(oracle: ProblemOracle, x: Vector, s: Vector, tau: float,
                    g0: Vector) -> Vector:
    """Estimate D3f(x)[s, s] by a second central difference of the gradient.

    Exact (up to roundoff) whenever the gradient is cubic along s, e.g. on
    the quartic family; otherwise the error is quadratic in tau. g0 is the
    cached gradient at x, so the estimate spends two gradient calls.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    plus = oracle.grad(x + tau * s)
    minus = oracle.grad(x - tau * s)
    return (plus + minus - 2.0 * g0) / (tau * tau)


class ModelError(SolverError):
    """Reference minimization failed (typically a non-convex model)."""


class MembershipResult(NamedTuple):
    lhs: float
    rhs: float
    member: bool


class ModelSpec:
    """Cached anchor data for the regularized third-order model.

    Arguments:
        oracle: the objective.
        x_tilde: anchor point.
        H: regularization weight, non-negative, with gradient coefficient
            quartic = 2*H/3. H = 0 gives the raw third-order expansion (used
            by remainder-bound checks).
        third: the third-derivative route. None calls the oracle's analytic
            third_action and third_dir (OracleCapabilityError without them)
            and takes the value at the anchor. A difference estimator such
            as fd_third_action gives D3f(x~)[s, s] = third(oracle, x~, s,
            tau, grad_anchor), which is all model_grad needs; it takes no
            value, and its third_dir, so model_hess, raises
            OracleCapabilityError before any call.
        tau: the difference step; bdgm.setup sets it from the anchor data.
    """

    def __init__(self, oracle: ProblemOracle, x_tilde: Vector, H: float,
                 third=None, tau: float | None = None):
        H = float(H)
        if not np.isfinite(H) or H < 0.0:
            raise ValueError(f"H must be finite and non-negative, got {H}")
        self.oracle = oracle
        self.x_tilde = np.array(x_tilde, dtype=np.float64)
        self.H = H
        self.quartic = 2.0 * H / 3.0
        self.third = third
        self.tau = tau
        self.value_anchor = oracle.value(self.x_tilde) if third is None else None
        self.grad_anchor = oracle.grad(self.x_tilde)
        self.hess_anchor = oracle.hess(self.x_tilde)

    def third_action(self, s: Vector) -> Vector:
        if self.third is None:
            return self.oracle.third_action(self.x_tilde, s)
        return self.third(self.oracle, self.x_tilde, s, self.tau, self.grad_anchor)

    def third_dir(self, s: Vector) -> Matrix:
        if self.third is not None:
            raise OracleCapabilityError("a difference model part has no third_dir")
        return self.oracle.third_dir(self.x_tilde, s)


def model_value(spec: ModelSpec, y: Vector) -> float:
    s = np.asarray(y, dtype=np.float64) - spec.x_tilde
    cubic = float(spec.third_action(s) @ s) / 6.0
    ns2 = float(s @ s)
    return float(spec.value_anchor + spec.grad_anchor @ s
                 + 0.5 * s @ (spec.hess_anchor @ s) + cubic
                 + spec.H / 6.0 * ns2 * ns2)


def model_grad(spec: ModelSpec, y: Vector) -> Vector:
    s = np.asarray(y, dtype=np.float64) - spec.x_tilde
    return (spec.grad_anchor + spec.hess_anchor @ s
            + 0.5 * spec.third_action(s)
            + spec.quartic * float(s @ s) * s)


def model_hess(spec: ModelSpec, y: Vector) -> Matrix:
    s = np.asarray(y, dtype=np.float64) - spec.x_tilde
    eye = np.eye(s.size)
    return (spec.hess_anchor + spec.third_dir(s)
            + spec.quartic * (float(s @ s) * eye + 2.0 * np.outer(s, s)))


def float_slack(grad_norm: float) -> float:
    """1e-12*(1 + grad_norm): the float64 headroom, at an anchor whose gradient
    norm is grad_norm, of exact_model_min's stop and of membership_residual."""
    return 1e-12 * (1.0 + grad_norm)


def membership_residual(spec: ModelSpec, gamma: float, T: Vector):
    """Check the relative inexactness condition at a candidate T.

    Returns (lhs, rhs, member) where lhs = ||model gradient at T||,
    rhs = gamma * ||grad f(T)|| and member allows the absolute slack
    float_slack(||grad f(x~)||).
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    lhs = float(np.linalg.norm(model_grad(spec, T)))
    rhs = gamma * float(np.linalg.norm(spec.oracle.grad(T)))
    abs_tol = float_slack(float(np.linalg.norm(spec.grad_anchor)))
    return MembershipResult(lhs, rhs, lhs <= rhs + abs_tol)


def newton_step(value, g: Vector, Hm: Matrix, y: Vector, scale: float,
                what: str) -> tuple[Vector, float, float]:
    """One damped Newton step for a convex function at y.

    Solves with the Cholesky factor of Hm + shift*I, the Levenberg shift
    starting at zero and growing from 1e-12*scale by factors of 4 until the
    matrix factors, then halves the step until the Armijo test on value
    holds. Returns (step, value(y), value(y + step)); the caller moves to
    y + step. what names the function in the errors: a shift past 1e8*scale
    or 60 halvings without decrease raise ModelError.
    """
    shift = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(Hm + shift * np.eye(y.size))
            break
        except np.linalg.LinAlgError:
            shift = max(1e-12 * scale, 4.0 * shift)
            if shift > 1e8 * scale:
                raise ModelError(f"{what} Hessian is not positive definite") from None
    d = -np.linalg.solve(chol.T, np.linalg.solve(chol, g))
    base = value(y)
    slope = float(g @ d)
    step = 1.0
    for _ in range(60):
        trial = value(y + step * d)
        if trial <= base + 1e-4 * step * slope:
            return step * d, base, trial
        step *= 0.5
    raise ModelError(f"line search failed on the {what}")


def newton_min(value, grad, hess, y: Vector, tol: float, what: str) -> Vector:
    """newton_step from y, at scale 1 + ||hess|| of the first Hessian taken,
    until ||grad|| <= tol or the float limit, where a step stops lowering the
    value or moving y and y is returned with a gradient that may exceed tol.
    500 steps raise ModelError."""
    y = np.array(y, dtype=np.float64)
    scale = 0.0
    for _ in range(_MAX_NEWTON_STEPS):
        g = grad(y)
        if float(np.linalg.norm(g)) <= tol:
            return y
        Hm = hess(y)
        scale = scale or 1.0 + float(np.linalg.norm(Hm))
        step, base, trial = newton_step(value, g, Hm, y, scale, what)
        y = y + step
        if trial >= base or np.linalg.norm(step) <= 1e-15 * (1.0 + np.linalg.norm(y)):
            return y
    raise ModelError(f"no convergence on the {what} in {_MAX_NEWTON_STEPS} Newton steps")


def exact_model_min(spec: ModelSpec) -> Vector:
    """Reference model minimizer, the slow-but-sure oracle the iterative
    solver is compared against: newton_min on the model from the anchor to
    tol float_slack(||grad f(x~)||). n is capped at 50."""
    if spec.oracle.dim > EXACT_MAX_DIM:
        raise ValueError(f"reference minimizer is restricted to n <= {EXACT_MAX_DIM}")
    tol = float_slack(float(np.linalg.norm(spec.grad_anchor)))
    return newton_min(lambda y: model_value(spec, y), lambda y: model_grad(spec, y),
                      lambda y: model_hess(spec, y), spec.x_tilde, tol, "model")
