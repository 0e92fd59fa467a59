"""Quartic-regularized third-order model of an objective around an anchor.

For an anchor x~ and regularization weight H the model at y = x~ + s is

    value:  f(x~) + <g, s> + 0.5*<Bs, s> + (1/6)*D3f(x~)[s]^3 + (H/6)*||s||^4
    grad:   g + Bs + 0.5*D3f(x~)[s]^2 + (2H/3)*||s||^2 * s
    hess:   B + D3f(x~)[s] + (2H/3)*(||s||^2 * I + 2*s*s')

with g and B the gradient and Hessian cached at the anchor. For H at least
the third-derivative Lipschitz constant the model is convex. Third-derivative
terms come from the oracle's analytic routines when it has them, else from
gradient and Hessian differences.

Everything here is the verification and reference layer: the iterative
subproblem solver never needs these exact third derivatives.
"""

from __future__ import annotations

import numpy as np
from typing import NamedTuple

from .oracles import Matrix, ProblemOracle, Vector
from .bdgm import fd_third_action


class ModelError(RuntimeError):
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
        H: regularization weight, non-negative. H = 0 gives the raw
            third-order expansion (used by remainder-bound checks).
        p: model order; only 3 is implemented and anything else raises.
        third: "exact" to use the oracle's analytic third derivative,
            "fd" to use difference formulas. Default picks "exact" when the
            oracle has it.
        fd_tau: step for the "fd" route.
    """

    def __init__(self, oracle: ProblemOracle, x_tilde: Vector, H: float,
                 p: int = 3, third: str | None = None, fd_tau: float = 1e-4):
        if p != 3:
            raise ValueError(f"only p = 3 models are implemented, got p = {p}")
        H = float(H)
        if not np.isfinite(H) or H < 0.0:
            raise ValueError(f"H must be finite and non-negative, got {H}")
        if third is None:
            third = "exact" if oracle.has_third else "fd"
        if third not in ("exact", "fd"):
            raise ValueError(f"third must be 'exact' or 'fd', got {third!r}")
        if third == "exact" and not oracle.has_third:
            raise ValueError("oracle has no analytic third derivative")
        self.oracle = oracle
        self.x_tilde = np.array(x_tilde, dtype=np.float64)
        self.p = 3
        self.H = H
        self.third = third
        self.fd_tau = float(fd_tau)
        self.value_anchor = oracle.value(self.x_tilde)
        self.grad_anchor = oracle.grad(self.x_tilde)
        self.hess_anchor = oracle.hess(self.x_tilde)

    def third_action(self, s: Vector) -> Vector:
        if self.third == "exact":
            return self.oracle.third_action(self.x_tilde, s)
        return fd_third_action(self.oracle, self.x_tilde, s, self.fd_tau)

    def third_dir(self, s: Vector) -> Matrix:
        if self.third == "exact":
            return self.oracle.third_dir(self.x_tilde, s)
        tau = self.fd_tau
        plus = self.oracle.hess(self.x_tilde + tau * s)
        minus = self.oracle.hess(self.x_tilde - tau * s)
        return (plus - minus) / (2.0 * tau)


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
            + (2.0 * spec.H / 3.0) * float(s @ s) * s)


def model_hess(spec: ModelSpec, y: Vector) -> Matrix:
    s = np.asarray(y, dtype=np.float64) - spec.x_tilde
    eye = np.eye(s.size)
    return (spec.hess_anchor + spec.third_dir(s)
            + (2.0 * spec.H / 3.0) * (float(s @ s) * eye + 2.0 * np.outer(s, s)))


def membership_residual(spec: ModelSpec, gamma: float, T: Vector):
    """Check the relative inexactness condition at a candidate T.

    Returns (lhs, rhs, member) where lhs = ||model gradient at T||,
    rhs = gamma * ||grad f(T)|| and member allows an absolute slack of
    1e-12*(1 + ||grad f(x~)||) for floating-point headroom.
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    lhs = float(np.linalg.norm(model_grad(spec, T)))
    rhs = gamma * float(np.linalg.norm(spec.oracle.grad(T)))
    abs_tol = 1e-12 * (1.0 + float(np.linalg.norm(spec.grad_anchor)))
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


def exact_model_min(spec: ModelSpec, tol: float | None = None,
                    max_iters: int = 500) -> Vector:
    """Reference model minimizer by damped Newton (small n only).

    Each step is newton_step on the model. Intended as the slow-but-sure
    oracle the iterative solver is compared against; n is capped at 50.
    """
    if spec.oracle.dim > 50:
        raise ValueError("reference minimizer is restricted to n <= 50")
    if tol is None:
        tol = 1e-12 * (1.0 + float(np.linalg.norm(spec.grad_anchor)))
    y = spec.x_tilde.copy()
    scale = 1.0 + float(np.linalg.norm(spec.hess_anchor))
    for _ in range(max_iters):
        g = model_grad(spec, y)
        if float(np.linalg.norm(g)) <= tol:
            return y
        step, base, trial = newton_step(lambda z: model_value(spec, z), g,
                                        model_hess(spec, y), y, scale, "model")
        y = y + step
        # Float-limit stop: when tol sits below what float64 can represent
        # for this instance, steps stop decreasing the value (or stop moving
        # y) near the minimizer; accept the point instead of spinning.
        if trial >= base:
            return y
        if float(np.linalg.norm(step)) <= 1e-15 * (1.0 + float(np.linalg.norm(y))):
            return y
    raise ModelError(f"no convergence in {max_iters} Newton steps "
                     "(non-convex model or degenerate anchor)")
