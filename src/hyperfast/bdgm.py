"""Gradient-driven minimization of the quartic-regularized cubic model.

The subproblem at an anchor x~ is

    min_y  <g, s> + 0.5*<Bs, s> + (1/6)*D3f(x~)[s]^3 + (L3/4)*||s||^4,

s = y - x~, which is the third-order model with regularization weight
H = 3*L3/2. The solver touches the objective only through gradients: the
cubic term's gradient contribution 0.5*D3f(x~)[s]^2 is replaced by half of a
second central difference of the gradient along s. Iterations are Bregman
proximal steps with the scaling kernel

    rho(z) = 0.5*<B s, s> + (L3/4)*||s||^4,

restricted to a ball around the anchor large enough to contain the model
minimizer. A solve starts at x~, or at a given start inside that ball (the
outer search passes the previous trial's answer; see solve()). The
relative-smoothness constant of the model with respect to rho is at most
STEP_SCALE = 2*(1 + 1/sqrt(2)), so a step at that scale always decreases
the model; the difference step and the ball radius are derived for it.
That bound is a worst case: relative smoothness needs the scale to bound
only the model's curvature between the two points of a step, and near the
minimizer the cubic term is small and scale 1 is nearly a Newton step. So
the scale adapts in [1, STEP_SCALE]: each solve starts at 1, a step that
fails the curvature test doubles it, and every accepted step divides it by
1.5, down to 1; see _accepted_step().

One engine serves every model, a sum of taylor.ModelSpec parts: setup()
builds the oracle's, by central gradient differences (fd_third_action), and
adds a given analytic one (sliding's model of g); see BdgmState.

Every test the engine makes allows for one error margin, theta_abs =
max(delta, 2*noise): the larger of the estimate's truncation budget delta
and the roundoff of its gradient differences. That roundoff is sized from
the terms the oracle's gradient sums (ProblemOracle.grad_term_bound, never
less than ||grad f(x~)||), not from the gradient itself, which near the
optimum is far smaller than the terms that cancel to give it. The curvature
test of a step allows 2*theta_abs*||d|| (_accepted_step). Termination
certifies the relative inexactness condition: once the estimated model
gradient at z is below (1/6)*||grad f(z)|| minus theta_abs and the
differences' truncation, z is an acceptable subproblem answer for the outer
loop. theta_abs is also an absolute floor. A standalone solve runs to it,
which drives z to the exact minimizer at the accuracy the arithmetic
supports, so agreement checks against the reference minimizer are
meaningful; the outer loop's solves stop at the first certified iterate
instead (certificate_stop; see solve()).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import CountedOracle, Matrix, ProblemOracle, SolverError, Vector
from .problems import sampled_l3
from .taylor import ModelSpec, fd_third_action, model_grad, model_hess

_EPS = float(np.finfo(np.float64).eps)

#: Bregman step scale 2*(1 + 1/sqrt(2)), equal to 2 + sqrt(2); the same
#: constant appears in the difference-step and ball formulas.
STEP_SCALE = 2.0 * (1.0 + 1.0 / np.sqrt(2.0))

#: The shipped regime, NatmiConfig's defaults: weight H = XI*L3, which the
#: step scale and ball radius are derived for, and the certificate's GAMMA.
XI = 1.5
GAMMA = 1.0 / 6.0

#: Floor on the difference step. The nominal step is proportional to delta
#: and collapses below float64 resolution for small eps; second differences
#: of gradients amplify roundoff by 1/tau^2, so tau below ~1e-5 is useless
#: and tau ~ 1e-2 keeps the amplification near 1e-12 while the truncation
#: bias (zero on quartic objectives) stays fourth order in the step radius.
TAU_FLOOR = 1e-2

#: Newton on the radius equation stops once its step falls below this:
#: relative in the boundary multiplier, absolute in log r for the interior
#: radius. Convergence is quadratic, so the step accepted last lands at
#: roundoff distance from the root.
_NEWTON_TOL = 1e-9

#: Newton steps allowed in one radius solve before the Bregman step gives up.
_MAX_NEWTON_STEPS = 100

#: Accepted Bregman steps allowed in one inner solve before it gives up.
_MAX_ITERS = 10000


class SubproblemError(SolverError):
    """Inner solver failed: a non-finite value, an iterate outside the
    ball, a radius solve that did not converge or an exhausted budget."""


@dataclass
class BdgmState:
    """Frozen subproblem data.

    parts are the model's: the oracle's difference part, then an optional
    analytic one. g0, B and L3 are the first's anchor gradient, Hessian and
    oracle L3, plus the second's model_grad, model_hess and 4*H. tau is the
    nominal difference step 3*delta/(8*(2+sqrt(2))*||g0||); tau_used = max(tau,
    TAU_FLOOR) is the one used. ball_radius = 2*((2+sqrt(2))*||g0||/L3)^(1/3).
    theta_abs = max(delta, 2*noise) is the error margin of every estimate,
    with noise = 4*eps*(terms + ||B||*ball_radius + L3*ball_radius^3)/tau_used^2
    and terms = max(oracle.grad_term_bound(x~), ||g0||), or ||g0|| when the
    oracle reports no bound. It leaves out the truncation of each difference
    part p, (L3_p/6)*tau_used*||s||^3, which solve() certifies against.
    """

    x_tilde: Vector
    gamma: float
    g0: Vector
    B: Matrix
    L3: float
    grad_norm0: float
    hess_norm0: float
    delta: float
    tau: float
    tau_used: float
    theta_abs: float
    ball_radius: float
    evals: Vector
    evecs: Matrix
    solved_reason: str | None
    parts: tuple[ModelSpec, ...]


@dataclass
class BdgmResult:
    """grad_at_z is the certificate's gradient at z, oracle_grad_at_z part 0's."""

    z: Vector
    iters: int
    reason: str
    grad_at_z: Vector
    oracle_grad_at_z: Vector


def setup(oracle: ProblemOracle, x_tilde: Vector, eps: float,
          gamma: float = GAMMA, model: ModelSpec | None = None) -> BdgmState:
    """Prepare the subproblem at an anchor: one gradient and one Hessian of
    oracle, for its difference part at H = XI*L3, plus model's model_grad
    and model_hess at x_tilde (an analytic ModelSpec anchored elsewhere).
    eps alone sets the truncation budget delta = eps^1.5/(sqrt(||g0||) +
    ||B||^1.5/sqrt(L3)), and a margin past float64's range is the floor."""
    eps = np.float64(eps)
    if not (0.0 < eps < math.inf):
        raise ValueError("eps must be positive and finite")
    x_tilde = np.array(x_tilde, dtype=np.float64)
    own = ModelSpec(oracle, x_tilde, XI * oracle.lipschitz_L3, third=fd_third_action)
    own.quartic = oracle.lipschitz_L3  # 2*H/3 can miss L3 by an ulp
    parts = (own,)
    g0, B, L3 = own.grad_anchor, own.hess_anchor, oracle.lipschitz_L3
    if model is not None:
        parts = (own, model)
        g0 = g0 + model_grad(model, x_tilde)
        B = B + model_hess(model, x_tilde)
        # An analytic part's regularizer has third-derivative Lipschitz constant 4*H.
        L3 += 4.0 * model.H
    if not (np.all(np.isfinite(g0)) and np.all(np.isfinite(B))):
        raise SubproblemError("non-finite gradient or Hessian at the anchor")
    try:
        evals, evecs = np.linalg.eigh(B)
    except np.linalg.LinAlgError as exc:
        raise SubproblemError(
            f"anchor Hessian eigendecomposition failed: {exc}") from exc
    grad_norm0 = float(np.linalg.norm(g0))
    hess_norm0 = np.max(np.abs(evals))
    if grad_norm0 == 0.0:
        # The formulas divide by ||g0||.
        delta = tau = tau_used = theta_abs = ball = 0.0
    else:
        # An eps or Hessian past the float range gives float64 an infinite
        # or NaN margin, which the floor test takes as the floor.
        with np.errstate(over="ignore", invalid="ignore"):
            delta = eps**1.5 / (np.sqrt(grad_norm0) + hess_norm0**1.5 / np.sqrt(L3))
            tau = 3.0 * delta / (8.0 * STEP_SCALE * grad_norm0)
            tau_used = max(tau, TAU_FLOOR)
            ball = 2.0 * (STEP_SCALE * grad_norm0 / L3) ** (1.0 / 3.0)
            # A gradient's roundoff scales with the terms it sums, which near
            # the optimum are far larger than the gradient itself.
            bound = oracle.grad_term_bound(x_tilde)
            terms = grad_norm0 if bound is None else max(bound, grad_norm0)
            noise = 4.0 * _EPS * (terms + hess_norm0 * ball + L3 * ball**3) / tau_used**2
            theta_abs = max(delta, 2.0 * noise)
    # A certification margin no iterate could attain: the anchor gradient is
    # already at the accuracy floor for eps (a zero one too, as 0 < 0 fails).
    solved_reason = None if theta_abs < gamma * grad_norm0 else "accuracy_floor"
    own.tau = float(tau_used)
    return BdgmState(
        x_tilde=x_tilde, gamma=float(gamma), g0=g0, B=B,
        L3=float(L3), grad_norm0=grad_norm0, hess_norm0=float(hess_norm0),
        delta=float(delta), tau=float(tau), tau_used=float(tau_used),
        theta_abs=float(theta_abs), ball_radius=float(ball), evals=evals,
        evecs=evecs, solved_reason=solved_reason, parts=parts,
    )


def custom_setup(*args, **kwargs) -> BdgmState:
    """Former name of setup, kept for by-name callers; no solver calls it."""
    return setup(*args, **kwargs)


def approx_grad(state: BdgmState, z: Vector) -> Vector:
    """Estimated model gradient at z: the sum of the parts' model_grad.
    solve() calls it once per Bregman try and once at a start, never at
    x~, where setup's g0 is the answer."""
    grad = model_grad(state.parts[0], z)
    for part in state.parts[1:]:
        grad += model_grad(part, z)
    return grad


def _rho_grad(state: BdgmState, s: Vector) -> Vector:
    """rho'(z) = B s + L3*||s||^2 * s, s = z - x~."""
    return state.B @ s + state.L3 * float(s @ s) * s


def _norm(v: Vector) -> float:
    """||v|| of a 1-d float64 array: the dot product and square root that
    np.linalg.norm takes, without its dispatch."""
    return math.sqrt(float(v @ v))


def _radius_terms(evals: Vector, p: Vector, sigma: float) -> tuple[float, float]:
    """Step norm n and q = sum p^2/(evals + sigma)^3 at the multiplier sigma.

    n(sigma) = ||p/(evals + sigma)|| is the norm of the shifted solve in the
    eigenbasis, and dn/dsigma = -q/n.
    """
    shifted = evals + sigma
    coeff = p / shifted
    return math.sqrt(float(coeff @ coeff)), float(coeff @ (coeff / shifted))


def bregman_step(state: BdgmState, z_i: Vector, g: Vector, scale: float,
                 rho: Vector) -> Vector:
    """Minimize <g, z - z_i> + a*breg_rho(z_i, z) over the anchor ball.

    a is the step scale. The first-order condition reduces to the shifted
    linear system (B + L3*r^2*I)s = b with b = rho'(z_i) - g/a and
    r = ||s||. rho is rho'(z_i), which the inner solve carries from the try
    that produced z_i. With the one-time eigendecomposition
    B = V diag(lam) V^T, b is projected once, p = V^T b, after which the
    step norm at any multiplier sigma,

        n(sigma)^2 = sum p^2/(lam + sigma)^2,

    costs O(n), and its slope comes from q(sigma) = sum p^2/(lam + sigma)^3
    (see _radius_terms). The multiplier is found by safeguarded Newton:

    * boundary, n(L3*R^2) >= R: the answer sits on the ball ||s|| = R.
      Newton on 1/n(sigma) - 1/R from sigma = L3*R^2; the function is
      increasing and concave there, so the iterates climb monotonically to
      the root (the Moré-Sorensen trust-region iteration).
    * interior: r solves r = n(L3*r^2) inside (n(L3*R^2), R). Newton on
      log r - log n(L3*r^2), whose slope in log r lies in [1, 3] for PSD B,
      starts from ||s_i|| (the previous radius) and falls back to bisecting
      the bracket whenever a step leaves it. Convergence is tested before
      that safeguard, so a converged step is never bisected away.

    s = V (p/(lam + sigma)) is formed only at the final multiplier.
    tests/crosschecks.py's bregman_step_dense solves the same equation by
    bisection with a dense solve per trial radius and serves as the
    cross-check.
    """
    s_i = np.asarray(z_i, dtype=np.float64) - state.x_tilde
    b = rho - np.asarray(g, dtype=np.float64) / scale
    R = state.ball_radius
    if R == 0.0:
        return state.x_tilde.copy()
    evals, L3 = state.evals, state.L3
    p = state.evecs.T @ b
    sigma = L3 * R * R
    n, q = _radius_terms(evals, p, sigma)
    if n == 0.0:
        # b = 0, or a step so small that its norm underflows.
        return state.x_tilde.copy()
    if n >= R:
        for _ in range(_MAX_NEWTON_STEPS):
            step = (n - R) * n * n / (R * q)
            sigma += step
            if step <= _NEWTON_TOL * sigma:
                break
            n, q = _radius_terms(evals, p, sigma)
        else:
            raise SubproblemError("boundary multiplier did not converge")
    else:
        # n(L3 r^2) > n(L3 R^2) for every r < R, so the root lies above n.
        lo, hi = n, R
        r = _norm(s_i)
        if lo < r < hi:
            n, q = _radius_terms(evals, p, L3 * r * r)
        else:
            r = hi
        for _ in range(_MAX_NEWTON_STEPS):
            dt = math.log(r / n) / (1.0 + 2.0 * L3 * r * r * q / (n * n))
            if abs(dt) <= _NEWTON_TOL:
                r *= math.exp(-dt)
                break
            if r > n:
                hi = r
            else:
                lo = r
            r_next = r * math.exp(-dt)
            r = r_next if lo < r_next < hi else 0.5 * (lo + hi)
            n, q = _radius_terms(evals, p, L3 * r * r)
        else:
            raise SubproblemError("interior radius did not converge")
        sigma = L3 * r * r
    return state.x_tilde + state.evecs @ (p / (evals + sigma))


def _accepted_step(state: BdgmState, z: Vector, g_hat: Vector, rho_z: Vector,
                   scale: float) -> tuple[Vector, Vector, float, Vector, float]:
    """One Bregman step from z at the first accepted scale c, 2c, 4c, ...

    A step z+ at scale c < STEP_SCALE is accepted when the model's
    curvature along d = z+ - z is at most c times rho's,

        <g(z+) - g(z), d> <= c*<rho'(z+) - rho'(z), d> + 2*theta_abs*||d||,

    with g the estimated model gradient. Each estimate is within theta_abs
    of the model gradient, so 2*theta_abs*||d|| is the test's uncertainty:
    a step is not rejected for estimate error alone. Otherwise c doubles,
    up to STEP_SCALE, where every step is accepted. rho_z is rho'(z). Each try
    takes one Bregman step, one approx_grad and one rho' at z+, each used
    both by the test and, once accepted, by the next step. Returns z+,
    g(z+), ||g(z+)||, rho'(z+) and the next step's scale max(1, c/1.5),
    whether c passed on the first try or after doublings.
    """
    while True:
        z_next = bregman_step(state, z, g_hat, scale, rho_z)
        s_next = z_next - state.x_tilde
        if _norm(s_next) > state.ball_radius * (1.0 + 1e-9):
            raise SubproblemError("iterate escaped the anchor ball")
        g_next = approx_grad(state, z_next)
        g_norm = _norm(g_next)
        if not math.isfinite(g_norm):
            raise SubproblemError("non-finite model gradient in the inner solve")
        rho_next = _rho_grad(state, s_next)
        if scale >= STEP_SCALE:
            break
        d = z_next - z
        margin = 2.0 * state.theta_abs * _norm(d)
        if float((g_next - g_hat) @ d) <= scale * float((rho_next - rho_z) @ d) + margin:
            break
        scale = min(2.0 * scale, STEP_SCALE)
    return z_next, g_next, g_norm, rho_next, max(1.0, scale / 1.5)


def _target_grad(state: BdgmState, z: Vector) -> tuple[Vector, Vector, float]:
    """grad F(z), part 0's gradient at z and ||grad F(z)||: a difference
    part's oracle gradient, plus an analytic part's model_grad."""
    grads = [model_grad(p, z) if p.third is None else p.oracle.grad(z)
             for p in state.parts]
    grad_z = sum(grads[1:], grads[0])
    grad_z_norm = _norm(grad_z)
    if not math.isfinite(grad_z_norm):
        raise SubproblemError("non-finite target gradient at a certificate check")
    return grad_z, grads[0], grad_z_norm


def solve(state: BdgmState, start: Vector | None = None,
          certificate_stop: bool = False) -> BdgmResult:
    """Run Bregman steps until the subproblem answer is certified.

    An iterate z is answered on two lines:

        ||approx_grad(z)|| <= theta_abs                               (floor)
        ||approx_grad(z)|| <= gamma*||grad F(z)|| - theta_abs - trunc (certified)

    theta_abs = max(delta, 2*noise) is the estimate's one error margin, its
    truncation budget or the roundoff of its gradient differences (see
    BdgmState), and the curvature test of each step allows for it too. A
    margin below the real roundoff would leave ||approx_grad(z)|| unable to
    reach the floor. trunc sums (L3_p/6)*tau_used*||z - x~||^3 over the
    difference parts p: their truncation past delta's budget. The second
    line is the acceptance contract for the outer loop, and "accuracy_floor"
    answers a floor z that fails it (one with grad F(z) = 0 among them,
    which outer_loop stops on as stationary), as setup() does when
    theta_abs >= gamma*||g0||. Each check of the second line takes one
    target gradient (_target_grad): one oracle gradient of a difference
    part, plus an analytic part's model_grad. No step depends on it.

    By default the solve checks only at the first iterate at the floor, so
    it drives z to the exact model minimizer at the accuracy the arithmetic
    supports, which the cross-check against the reference Newton minimizer
    relies on, and spends one target gradient, at its answer. With
    certificate_stop, which the outer loop's builder passes, it also checks
    every iterate above the floor with ||approx_grad(z)|| <= gamma*F_last -
    theta_abs, F_last the last ||grad F|| seen (||g0|| at first), and
    answers "certified" at the first that passes; the paper's method needs
    no more of a subproblem. It takes the same steps as the default solve,
    so it stops no later, and at most one check per iterate.

    Without a start, or with one outside the anchor ball, the solve starts
    at x~ from setup's g0 and ||g0||, which sit above the floor: setup
    answers an anchor at the floor itself, as gamma < 1 makes ||g0|| <=
    theta_abs imply theta_abs >= gamma*||g0||. A start inside the ball (a
    nearby answer, such as the previous trial's of a lambda search) is the
    first iterate instead, at one approx_grad and one rho', a Bregman try's
    oracle calls; the stops are the same, so a start already at the floor
    is answered with 0 iterations. iters counts accepted steps. Each try,
    rejected or not, takes one Bregman step, one approx_grad and one rho'
    (see _accepted_step, which adapts the scale), so a solve takes one
    more rho' at its first iterate and one more approx_grad at a start.
    Running out of _MAX_ITERS raises "no certificate": the reported L3 may
    be below the true one, so the message adds l3_hint.
    """
    if state.solved_reason is not None:
        return BdgmResult(state.x_tilde.copy(), 0, state.solved_reason,
                          state.g0.copy(), state.parts[0].grad_anchor.copy())
    z = state.x_tilde.copy()
    g_hat, lhs = state.g0, state.grad_norm0
    if start is not None and _norm(start - state.x_tilde) <= state.ball_radius:
        z = np.array(start, dtype=np.float64)
        g_hat = approx_grad(state, z)
        lhs = _norm(g_hat)
        if not math.isfinite(lhs):
            raise SubproblemError("non-finite model gradient in the inner solve")
    rho = _rho_grad(state, z - state.x_tilde)
    scale = 1.0
    grad_norm_last = state.grad_norm0
    for i in range(_MAX_ITERS):
        at_floor = lhs <= state.theta_abs
        if at_floor or (certificate_stop
                        and lhs <= state.gamma * grad_norm_last - state.theta_abs):
            grad_z, part_grad, grad_norm_last = _target_grad(state, z)
            trunc = sum(p.oracle.lipschitz_L3 / 6.0 * p.tau for p in state.parts
                        if p.third is not None) * _norm(z - state.x_tilde) ** 3
            certified = lhs <= state.gamma * grad_norm_last - state.theta_abs - trunc
            # At the floor no further step can reach a certification line
            # below it and the truncation: z already minimizes the model to
            # that floor, the same accuracy_floor outcome setup reports.
            if certified or at_floor:
                return BdgmResult(z, i, "certified" if certified else "accuracy_floor",
                                  grad_z, part_grad)
        z, g_hat, lhs, rho, scale = _accepted_step(state, z, g_hat, rho, scale)
    raise SubproblemError(
        f"no certificate in {_MAX_ITERS} iterations "
        f"(last lhs {lhs:.3e}, floor {state.theta_abs:.3e})"
        + l3_hint(state.parts[0].oracle))


def l3_hint(oracle: ProblemOracle) -> str:
    """"; reported L3 <L3>, sampled_l3 estimate <e>" when problems.sampled_l3's
    estimate, net of its gradient differences' roundoff, exceeds oracle's
    reported L3, else "". The estimate is taken on the oracle a
    CountedOracle wraps, so it moves no counter."""
    reported = oracle.lipschitz_L3
    estimate = sampled_l3(oracle.inner if isinstance(oracle, CountedOracle) else oracle)
    return (f"; reported L3 {reported:.3g}, sampled_l3 estimate {estimate:.3g}"
            if estimate > reported else "")
