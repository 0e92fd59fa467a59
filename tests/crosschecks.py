"""Independent cross-checks the tests hold the package's solvers against.

None of these runs in a solve, so they live with the tests, not in
``src/``. pytest does not collect this module (its name does not start with
``test_``); test modules import it by name, since pytest's default import
mode puts ``tests/`` on ``sys.path``.

* ``bregman_step_dense``: the Bregman step by bisection with a dense solve
  per trial radius, against ``bdgm.bregman_step``'s Newton iteration.
* ``fd_check_grad`` and ``fd_check_hess``: central-difference referees for
  every hand-written gradient and Hessian.
* ``composite_membership``: the composite membership residual recomputed
  from its parts, against the single-function ``membership_residual``.
* ``assert_paper_invariants``: the per-step invariants of the paper's
  accelerated scheme, checked on a finished solve of any method.
* ``label_signed_logistic``: the logistic oracle's former formulas on a
  label-signed copy of the features, against ``problems.LogisticLoss``.
"""

from __future__ import annotations

import numpy as np
import pytest

from hyperfast.bdgm import STEP_SCALE, BdgmState, SubproblemError, _rho_grad
from hyperfast.natmi import WINDOW_HI, WINDOW_LO, SolveResult, _total
from hyperfast.oracles import ProblemOracle, Vector
from hyperfast.problems import LogisticLoss
from hyperfast.sliding import CompositeProblem
from hyperfast.taylor import MembershipResult, ModelSpec, float_slack, model_grad

_EPS = float(np.finfo(np.float64).eps)


def bregman_step_dense(state: BdgmState, z_i: Vector, g: Vector,
                       scale: float = STEP_SCALE) -> Vector:
    """Same contract as bregman_step with a dense solve per trial radius.

    Bisects the radius equation instead of running Newton, so it shares no
    root-finding logic with bregman_step.
    """
    s_i = np.asarray(z_i, dtype=np.float64) - state.x_tilde
    b = _rho_grad(state, s_i) - np.asarray(g, dtype=np.float64) / scale
    R = state.ball_radius
    if float(np.linalg.norm(b)) == 0.0 or R == 0.0:
        return state.x_tilde.copy()

    def norm_and_vec(sigma):
        s = np.linalg.solve(state.B + sigma * np.eye(b.size), b)
        return float(np.linalg.norm(s)), s

    if norm_and_vec(state.L3 * R * R)[0] >= R:
        # Crossing sits beyond the ball: pin ||s|| = R via the multiplier.
        sig_lo = state.L3 * R * R
        sig_hi = max(2.0 * sig_lo, float(np.linalg.norm(b)) / R)
        for _ in range(200):
            if norm_and_vec(sig_hi)[0] <= R:
                break
            sig_hi *= 2.0
        else:
            raise SubproblemError("no upper bracket for the boundary multiplier")
        for _ in range(200):
            mid = 0.5 * (sig_lo + sig_hi)
            if norm_and_vec(mid)[0] > R:
                sig_lo = mid
            else:
                sig_hi = mid
            if sig_hi - sig_lo <= 1e-13 * sig_hi:
                break
        return state.x_tilde + norm_and_vec(sig_hi)[1]

    # Interior: ||s(L3 r^2)|| - r changes sign on (0, R]. It is positive as
    # r -> 0 because b != 0, and non-positive at r = R by the check above.
    lo, hi = 0.0, R
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_and_vec(state.L3 * mid * mid)[0] > mid:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return state.x_tilde + norm_and_vec(state.L3 * hi * hi)[1]


def default_fd_step(x: Vector) -> float:
    # eps^(1/3) balances truncation and roundoff for central differences.
    return _EPS ** (1.0 / 3.0) * max(1.0, float(np.linalg.norm(x)))


def fd_check_grad(oracle: ProblemOracle, x: Vector, h: float | None = None) -> float:
    """Relative error of the analytic gradient against central differences.

    Returns ||grad f(x) - fd||/max(1, ||grad f(x)||) with one central
    difference of the value per coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_fd_step(x)
    g = oracle.grad(x)
    fd = np.empty_like(g)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(fd)):
        raise FloatingPointError("non-finite finite-difference gradient")
    return float(np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)))


def fd_check_hess(oracle: ProblemOracle, x: Vector, h: float | None = None) -> float:
    """Relative error of the analytic Hessian against gradient differences."""
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_fd_step(x)
    H = oracle.hess(x)
    fd = np.empty_like(H)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fd[:, j] = (oracle.grad(x + e) - oracle.grad(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(fd)):
        raise FloatingPointError("non-finite finite-difference Hessian")
    return float(np.linalg.norm(H - fd) / max(1.0, np.linalg.norm(H)))


def composite_membership(prob: CompositeProblem, x_tilde: Vector, T: Vector,
                         gamma: float = 1.0 / 6.0):
    """Relative residual of the composite subproblem answer T.

    Returns (lhs, rhs, member): lhs is the norm of [gradient of g's model at
    T] + grad h(T), rhs is gamma * ||grad f(T)||, and member allows the same
    absolute slack as the single-function membership check.
    """
    spec = ModelSpec(prob.g, x_tilde, 1.5 * prob.g.lipschitz_L3)
    gh_T = prob.h.grad(T)
    lhs = float(np.linalg.norm(model_grad(spec, T) + gh_T))
    rhs = float(gamma) * float(np.linalg.norm(prob.g.grad(T) + gh_T))
    anchor_norm = float(np.linalg.norm(spec.grad_anchor + prob.h.grad(x_tilde)))
    return MembershipResult(lhs, rhs, lhs <= rhs + float_slack(anchor_norm))


def assert_paper_invariants(res: SolveResult, f_star: float, eps: float,
                            sigma: float = 0.6) -> None:
    """Every accepted step of res meets the window, the contraction bound
    sigma (0.6 in the default regime), a_k^2 = lam_k*A_k and monotone
    counters, and the run ends at its floor (or a stationary point) within
    eps of f_star."""
    prev = None
    for rec in res.records:
        assert WINDOW_LO - 1e-12 <= rec.window_value <= WINDOW_HI + 1e-12
        assert rec.sigma_observed <= sigma + 1e-8, (rec.k, rec.sigma_observed)
        a = rec.A - (prev.A if prev else 0.0)
        assert a > 0.0
        assert a * a == pytest.approx(rec.lam * rec.A, rel=1e-9)
        if prev is not None:
            assert rec.n_grad > prev.n_grad
            assert rec.n_hess >= prev.n_hess
        prev = rec
    if prev is not None:
        # The solve's totals, summed over a composite's parts, cover every
        # row's and take a value per row.
        assert _total(res.counts, "grad") >= prev.n_grad
        assert _total(res.counts, "hess") >= prev.n_hess
        assert _total(res.counts, "value") >= prev.k
    assert res.status in ("accuracy_floor", "stationary")
    assert res.f - f_star <= eps


def label_signed_logistic(orc: LogisticLoss, x: Vector, d: Vector) -> dict:
    """Each LogisticLoss output at x (third derivatives along d), and L3,
    by the formulas the oracle used while it kept W = y*A, a label-signed
    copy of the features, and took every product over all m rows at once.
    L3 is the oracle's bound, (1/8)*max_k ||w_k||^2 * lambda_max(W'W)/m
    with its roundoff margin, taken on W: W'W equals A'A bit for bit."""
    A, y, m, ridge = orc.data.features, orc.data.labels, orc.data.m, orc.ridge
    W = y[:, None] * A

    def sigmoid(scale=1.0):
        s = W @ x
        np.minimum(s, 709.0, out=s)
        np.exp(s, out=s)
        s += 1.0
        return np.divide(scale, s, out=s)

    s = sigmoid()
    w = s * (1.0 - s) / m
    psi3 = s * (1.0 - s) * (1.0 - 2.0 * s)
    u = W @ d
    return {
        "L3": (0.125 * float(np.max(np.sum(W**2, axis=1)))
               * float(np.linalg.eigvalsh(W.T @ W)[-1]) / m * (1.0 + 1e-12)),
        "value": float(np.mean(np.logaddexp(0.0, -(W @ x))) + 0.5 * ridge * (x @ x)),
        "grad": W.T @ sigmoid(-1.0 / m) + ridge * x,
        "hess": W.T @ (w[:, None] * W) + ridge * np.eye(orc.dim),
        "third_action": W.T @ (-psi3 * u**2 / m),
        "third_dir": W.T @ ((-psi3 * u / m)[:, None] * W),
    }
