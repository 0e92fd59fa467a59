"""Outer accelerated loop driving the inexact third-order subproblem solver.

The loop keeps a primal iterate y, a dual-averaging iterate x, and an
accumulator A. Each iteration searches for a step weight lambda: the anchor
x~(lambda) is a convex blend of y and x, the model subproblem at the anchor
is solved inexactly, and lambda is accepted when the realized step radius
r = ||y_new - x~|| puts lambda * 3*L3*r^2/4 inside [1/2, 3/4]. The accepted
iterate carries a relative model-gradient certificate from the subproblem
solver, and the combination of certificate and window produces the
per-iteration contraction ratio recorded as sigma_observed.

The search procedure (warm-started geometric bracketing, then bisection on
log lambda) is plumbing around the acceptance window; the window's
multiplicative width of 3/2 is what guarantees the bisection lands.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import bdgm
from .oracles import CountedOracle, ProblemOracle, Vector, counted, operator_norm
from .taylor import ModelSpec, exact_model_min

WINDOW_LO = 0.5
WINDOW_HI = 0.75
#: First-iteration target for lambda * 3*L3*r^2/4, the window midpoint.
_WINDOW_MID = 0.625

#: Subproblem outcomes that end the outer loop instead of being stepped on.
_TERMINAL = ("zero_gradient", "accuracy_floor")


class LambdaSearchError(RuntimeError):
    """No acceptable step weight found; usually a mis-specified L3."""


@dataclass(frozen=True)
class NatmiConfig:
    """Solver parameters.

    gamma, xi, p form the contraction regime checked by validate_params;
    the shipped defaults (1/6, 3/2, 3) give sigma = 0.6. eps feeds the inner
    solver's difference-error budget, grad_tol is the outer stopping norm
    (0 disables it, leaving only k_max). The lam_* fields control the step
    weight search and subsolver picks the inner engine ("bdgm" or "exact").
    """

    eps: float = 1e-8
    k_max: int = 100
    gamma: float = 1.0 / 6.0
    xi: float = 1.5
    p: int = 3
    c_delta: float = 1.0
    grad_tol: float = 0.0
    subsolver: str = "bdgm"
    lam_growth: float = 2.0
    lam_max_expand: int = 60
    lam_max_bisect: int = 60
    inner_max_iters: int = 10000
    middle_k_max: int = 300
    timing: bool = False


@dataclass(frozen=True)
class ParamReport:
    ok: bool
    sigma: float
    violations: tuple[str, ...]
    window: tuple[float, float] = (WINDOW_LO, WINDOW_HI)


def validate_params(cfg: NatmiConfig) -> ParamReport:
    """Check the parameter regime and report the predicted contraction.

    Accepts iff p = 3, gamma in [0, 1), xi >= 1 and
    2*gamma + 1/(xi*(p+1)) <= 1. The predicted per-iteration contraction is
    sigma = (p*xi + 1 - xi + 2*gamma*xi) / ((1 - gamma)*2*p*xi); the regime
    (3, 1/6, 3/2) gives exactly 0.6 and (3, 0, 1) gives 0.5.
    """
    violations = []
    p = cfg.p
    gamma = float(cfg.gamma)
    xi = float(cfg.xi)
    if p != 3:
        violations.append(f"p must equal 3, got {p}")
    if not 0.0 <= gamma < 1.0:
        violations.append(f"gamma must lie in [0, 1), got {gamma}")
    if xi < 1.0:
        violations.append(f"xi must be >= 1 so H = xi*L3 dominates L3, got {xi}")
    if xi > 0.0 and p + 1 != 0:
        hypothesis = 2.0 * gamma + 1.0 / (xi * (p + 1))
        if hypothesis > 1.0:
            violations.append(
                "contraction hypothesis failed: "
                f"2*gamma + 1/(xi*(p+1)) = {hypothesis:.6g} > 1")
    denom = (1.0 - gamma) * 2.0 * p * xi
    sigma = (p * xi + 1.0 - xi + 2.0 * gamma * xi) / denom if denom != 0.0 else math.nan
    return ParamReport(ok=not violations, sigma=sigma, violations=tuple(violations))


def lambda_window(lam: float, r: float, L3: float) -> bool:
    """True iff 1/2 <= lam * 3*L3*r^2/4 <= 3/4. r = 0 is never inside."""
    if r < 0.0:
        raise ValueError("step radius must be non-negative")
    w = lam * 0.75 * L3 * r * r
    return WINDOW_LO <= w <= WINDOW_HI


def step_weight(lam: float, A: float) -> float:
    """Root a of a^2 = lam*(A + a), the accumulator increment for lam."""
    return 0.5 * (lam + math.sqrt(lam * lam + 4.0 * lam * A))


@dataclass
class TrialPoint:
    """One evaluated step weight: the anchor, the subproblem answer, and
    the window statistic w = lam * 3*L3*r^2/4."""

    lam: float
    a: float
    A_next: float
    x_tilde: Vector
    y: Vector
    r: float
    w: float
    inner_iters: int
    reason: str
    grad_y: Vector | None
    grad_anchor_norm: float
    hess_anchor_norm: float
    extra: dict | None = None


@dataclass
class SolverState:
    oracle: CountedOracle
    A: float
    x: Vector
    y: Vector
    k: int = 0
    sigma_observed: float = 0.0
    lam_prev: float | None = None
    status: str | None = None
    #: ||grad f(y)||, once an accepted step or a floor exit has measured it.
    grad_norm: float | None = None
    max_grad_norm: float = 0.0
    max_hess_norm: float = 0.0
    records: list = field(default_factory=list)
    base_value: int = 0
    base_grad: int = 0
    base_hess: int = 0
    base_third: int = 0


@dataclass(frozen=True)
class IterationRecord:
    k: int
    f: float
    grad_norm: float
    step_radius: float
    lam: float
    A: float
    inner_iters: int
    n_grad: int
    n_hess: int
    max_grad_norm: float
    max_hess_norm: float
    wall_ms: float
    sigma_observed: float = 0.0
    window_value: float = 0.0
    n_value: int = 0
    n_third: int = 0
    n_trials: int = 1
    reason: str = "certified"
    y: Vector | None = None


@dataclass(frozen=True)
class SolveResult:
    y: Vector
    f: float
    grad_norm: float
    status: str
    converged: bool
    iters: int
    A: float
    records: tuple
    sigma_max: float
    n_value: int
    n_grad: int
    n_hess: int
    n_third: int
    max_grad_norm: float
    max_hess_norm: float
    report: ParamReport


def init_state(oracle: ProblemOracle, x0: Vector) -> SolverState:
    co = counted(oracle)
    x0 = np.array(x0, dtype=np.float64)
    return SolverState(oracle=co, A=0.0, x=x0.copy(), y=x0.copy(),
                       base_value=co.n_value, base_grad=co.n_grad,
                       base_hess=co.n_hess, base_third=co.n_third)


def _make_trial_fn(cfg: NatmiConfig, co: CountedOracle, state: SolverState):
    L3 = co.lipschitz_L3
    A = state.A
    y_k = state.y
    x_k = state.x

    def make_trial(lam: float) -> TrialPoint:
        a = step_weight(lam, A)
        A_next = A + a
        assert abs(A_next - a * a / lam) <= 1e-10 * max(1.0, A_next)
        x_t = (A / A_next) * y_k + (a / A_next) * x_k
        if cfg.subsolver == "exact":
            spec = ModelSpec(co, x_t, cfg.xi * L3)
            ga_norm = float(np.linalg.norm(spec.grad_anchor))
            h_norm = operator_norm(spec.hess_anchor)
            if ga_norm == 0.0:
                y, grad_y, inner, reason = x_t.copy(), spec.grad_anchor, 0, "zero_gradient"
            elif cfg.gamma * ga_norm <= 1e-12 * (1.0 + ga_norm):
                # The reference minimizer stops at 1e-12*(1+||g||); below
                # that line it returns the anchor itself and the window
                # statistic stays zero for every lambda. Same floor
                # semantics as the inexact engine's delta short-circuit.
                y, grad_y, inner, reason = x_t.copy(), spec.grad_anchor, 0, "accuracy_floor"
            else:
                y = exact_model_min(spec)
                grad_y, inner, reason = co.grad(y), 0, "exact"
                if float(np.linalg.norm(y - x_t)) == 0.0:
                    reason = "accuracy_floor"
        else:
            sub = bdgm.setup(co, x_t, cfg.eps, c_delta=cfg.c_delta,
                             gamma=cfg.gamma, xi=cfg.xi)
            ga_norm, h_norm = sub.grad_norm0, sub.hess_norm0
            res = bdgm.solve(sub, cfg.inner_max_iters)
            y, grad_y, inner, reason = res.z, res.grad_at_z, res.iters, res.reason
        r = float(np.linalg.norm(y - x_t))
        state.max_grad_norm = max(state.max_grad_norm, ga_norm)
        state.max_hess_norm = max(state.max_hess_norm, h_norm)
        return TrialPoint(lam=lam, a=a, A_next=A_next, x_tilde=x_t, y=y, r=r,
                          w=lam * 0.75 * L3 * r * r, inner_iters=inner,
                          reason=reason, grad_y=grad_y,
                          grad_anchor_norm=ga_norm, hess_anchor_norm=h_norm)

    return make_trial


def search_lambda(make_trial, L3: float, lam_warm: float | None, A: float,
                  growth: float = 2.0, max_expand: int = 60,
                  max_bisect: int = 60) -> tuple[TrialPoint, int]:
    """Find a step weight whose trial lands in the window.

    With A = 0 the anchor does not depend on lambda, so a single subproblem
    solve fixes r and lambda is set analytically to hit the window midpoint.
    Otherwise: warm start at the previous accepted lambda, grow or shrink
    geometrically until the window statistic brackets [1/2, 3/4], then
    bisect on log lambda. Returns the accepted trial and the trial count.
    """
    n_trials = 0

    def attempt(lam):
        nonlocal n_trials
        n_trials += 1
        return make_trial(lam)

    if A == 0.0:
        t = attempt(1.0)
        if t.reason in _TERMINAL:
            return t, n_trials
        if t.r == 0.0:
            raise LambdaSearchError("subproblem returned the anchor with a "
                                    "nonzero gradient at the start point")
        lam = _WINDOW_MID * 4.0 / (3.0 * L3 * t.r * t.r)
        # a = lam when A = 0, so the anchor and the solved subproblem are
        # unchanged; only the bookkeeping weights move.
        return replace(t, lam=lam, a=lam, A_next=lam,
                       w=lam * 0.75 * L3 * t.r * t.r), n_trials

    if growth <= 1.0:
        raise ValueError("bracket growth factor must exceed 1")
    lam = lam_warm if lam_warm is not None else 1.0
    t = None
    lam_lo = lam_hi = None  # below-window / above-window bracket edges
    for _ in range(max_expand):
        t = attempt(lam)
        if t.reason in _TERMINAL or WINDOW_LO <= t.w <= WINDOW_HI:
            return t, n_trials
        if t.w < WINDOW_LO:
            lam_lo = lam
            if lam_hi is not None:
                break
            lam *= growth
        else:
            lam_hi = lam
            if lam_lo is not None:
                break
            lam /= growth
    if lam_lo is None or lam_hi is None:
        last = f"last lambda = {t.lam:.6g}, w = {t.w:.6g}" if t is not None else "no trials"
        raise LambdaSearchError(
            f"no window bracket within {max_expand} expansions "
            f"(L3 = {L3:.6g}, {last}); check the oracle's L3")
    for _ in range(max_bisect):
        lam = math.sqrt(lam_lo * lam_hi)
        t = attempt(lam)
        if t.reason in _TERMINAL or WINDOW_LO <= t.w <= WINDOW_HI:
            return t, n_trials
        if t.w < WINDOW_LO:
            lam_lo = lam
        else:
            lam_hi = lam
    raise LambdaSearchError(
        f"window not hit within {max_bisect} bisections "
        f"(L3 = {L3:.6g}, bracket [{lam_lo:.6g}, {lam_hi:.6g}]); "
        "the step radius may be discontinuous in lambda, check L3")


def lambda_search(cfg: NatmiConfig, oracle: ProblemOracle,
                  state: SolverState) -> tuple[TrialPoint, int]:
    """Window search at the current outer state; see search_lambda."""
    co = state.oracle if state.oracle is not None else counted(oracle)
    return search_lambda(_make_trial_fn(cfg, co, state), co.lipschitz_L3,
                         state.lam_prev, state.A, growth=cfg.lam_growth,
                         max_expand=cfg.lam_max_expand,
                         max_bisect=cfg.lam_max_bisect)


def outer_step(cfg: NatmiConfig, oracle: ProblemOracle,
               state: SolverState) -> SolverState:
    """One accepted iteration: lambda search, dual update, bookkeeping.

    Terminal subproblem outcomes (gradient already zero at the anchor, or
    the accuracy floor for the configured eps reached) set state.status and
    leave the iterate where it is useful: the anchor for a true stationary
    point; for the floor, the floor trial's point when its gradient is
    smaller than that of the previous y, else the previous y.
    """
    t_start = time.perf_counter() if cfg.timing else 0.0
    co = state.oracle if state.oracle is not None else counted(oracle)
    state.oracle = co
    t, n_trials = lambda_search(cfg, oracle, state)
    if t.reason == "zero_gradient":
        state.y = t.x_tilde.copy()
        state.status = "stationary"
        return state
    if t.reason == "accuracy_floor":
        # The floor trial solved its model to the arithmetic limit, so its
        # point can lie closer to the optimum than the last accepted y.
        floor_grad = float(np.linalg.norm(t.grad_y))
        if state.grad_norm is not None and floor_grad < state.grad_norm:
            state.y, state.grad_norm = t.y.copy(), floor_grad
        state.status = "accuracy_floor"
        return state
    grad_y = t.grad_y if t.grad_y is not None else co.grad(t.y)
    grad_norm = float(np.linalg.norm(grad_y))
    state.grad_norm = grad_norm
    state.max_grad_norm = max(state.max_grad_norm, grad_norm)
    sigma_obs = 0.0
    if t.r > 0.0:
        drift = t.y - (t.x_tilde - t.lam * grad_y)
        sigma_obs = float(np.linalg.norm(drift)) / t.r
    state.x = state.x - t.a * grad_y
    state.y = t.y
    state.A = t.A_next
    state.k += 1
    state.lam_prev = t.lam
    state.sigma_observed = sigma_obs
    f_y = co.value(t.y)
    wall_ms = (time.perf_counter() - t_start) * 1e3 if cfg.timing else 0.0
    state.records.append(IterationRecord(
        k=state.k, f=f_y, grad_norm=grad_norm, step_radius=t.r, lam=t.lam,
        A=state.A, inner_iters=t.inner_iters,
        n_grad=co.n_grad - state.base_grad, n_hess=co.n_hess - state.base_hess,
        max_grad_norm=state.max_grad_norm, max_hess_norm=state.max_hess_norm,
        wall_ms=wall_ms, sigma_observed=sigma_obs, window_value=t.w,
        n_value=co.n_value - state.base_value,
        n_third=co.n_third - state.base_third,
        n_trials=n_trials, reason=t.reason, y=t.y.copy()))
    if t.reason == "zero_gradient_at_iterate":
        state.status = "stationary"
    return state


def solve(cfg: NatmiConfig, oracle: ProblemOracle, x0: Vector) -> SolveResult:
    """Run the outer loop from x0 until k_max, grad_tol, or a terminal state."""
    report = validate_params(cfg)
    if not report.ok:
        raise ValueError("invalid parameters: " + "; ".join(report.violations))
    if cfg.subsolver not in ("bdgm", "exact"):
        raise ValueError(f"unknown subsolver {cfg.subsolver!r}")
    state = init_state(oracle, x0)
    co = state.oracle
    try:
        for _ in range(cfg.k_max):
            outer_step(cfg, oracle, state)
            if state.status is not None:
                break
            if cfg.grad_tol > 0.0 and state.records[-1].grad_norm <= cfg.grad_tol:
                state.status = "grad_tol"
                break
    except Exception as exc:
        # Let the harness flush whatever rows exist before dying.
        exc.records = tuple(state.records)
        raise
    if state.status is None:
        state.status = "k_max"
    f_final = co.value(state.y)
    if state.grad_norm is not None:
        grad_final = state.grad_norm
    else:
        grad_final = float(np.linalg.norm(co.grad(state.y)))
    sigma_max = max((rec.sigma_observed for rec in state.records), default=0.0)
    return SolveResult(
        y=state.y, f=f_final, grad_norm=grad_final, status=state.status,
        converged=state.status in ("stationary", "grad_tol", "accuracy_floor"),
        iters=state.k, A=state.A, records=tuple(state.records),
        sigma_max=sigma_max,
        n_value=co.n_value - state.base_value,
        n_grad=co.n_grad - state.base_grad,
        n_hess=co.n_hess - state.base_hess,
        n_third=co.n_third - state.base_third,
        max_grad_norm=state.max_grad_norm, max_hess_norm=state.max_hess_norm,
        report=report)
