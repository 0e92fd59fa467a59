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

accelerated_steps is this scheme for any subproblem builder, and outer_loop
runs it to a stop and keeps the records. The single-function solver and both
levels of the sliding solver (sliding.py) differ only in the builder.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bdgm
from .oracles import ProblemOracle, Vector, counted, operator_norm
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

    Accepts iff p = 3, gamma in [0, 1), xi >= 1 is finite and
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
    if not 1.0 <= xi < math.inf:
        violations.append(
            f"xi must be finite and >= 1 so H = xi*L3 dominates L3, got {xi}")
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


class Answer(NamedTuple):
    """A subproblem builder's answer at one anchor.

    grad_y is the gradient the dual update steps along, and the two anchor
    norms feed the max_grad_norm / max_hess_norm columns. extra carries
    whatever else the builder's caller needs from the trial.
    """

    y: Vector
    grad_y: Vector
    inner_iters: int
    reason: str
    grad_anchor_norm: float
    hess_anchor_norm: float
    extra: dict | None = None


@dataclass(frozen=True)
class IterationRecord:
    """One accepted outer step. Counters are cumulative over the solve; the
    per-part counters and mid_iters stay 0 outside the composite solver."""

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
    n_grad_g: int = 0
    n_hess_g: int = 0
    n_grad_h: int = 0
    n_hess_h: int = 0
    n_third_g: int = 0
    mid_iters: int = 0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve. counts holds the oracle calls it made, keyed
    value/grad/hess/third, or the same with _g/_h suffixes for a composite."""

    y: Vector
    f: float
    grad_norm: float
    status: str
    converged: bool
    iters: int
    A: float
    records: tuple
    sigma_max: float
    counts: dict
    max_grad_norm: float
    max_hess_norm: float
    report: ParamReport


def oracle_subproblem(cfg: NatmiConfig, oracle: ProblemOracle):
    """Subproblem builder for a single function: the regularized third-order
    model of oracle at each anchor, solved by the inexact engine or, with
    subsolver="exact", by the reference Newton minimizer."""
    L3 = oracle.lipschitz_L3

    def subproblem(x_t: Vector) -> Answer:
        if cfg.subsolver == "bdgm":
            sub = bdgm.setup(oracle, x_t, cfg.eps, c_delta=cfg.c_delta,
                             gamma=cfg.gamma, xi=cfg.xi)
            res = bdgm.solve(sub, cfg.inner_max_iters)
            return Answer(res.z, res.grad_at_z, res.iters, res.reason,
                          sub.grad_norm0, sub.hess_norm0)
        spec = ModelSpec(oracle, x_t, cfg.xi * L3)
        ga_norm = float(np.linalg.norm(spec.grad_anchor))
        h_norm = operator_norm(spec.hess_anchor)
        if ga_norm == 0.0:
            return Answer(x_t.copy(), spec.grad_anchor, 0, "zero_gradient",
                          ga_norm, h_norm)
        if cfg.gamma * ga_norm <= 1e-12 * (1.0 + ga_norm):
            # The reference minimizer stops at 1e-12*(1+||g||); below
            # that line it returns the anchor itself and the window
            # statistic stays zero for every lambda. Same floor
            # semantics as the inexact engine's delta short-circuit.
            return Answer(x_t.copy(), spec.grad_anchor, 0, "accuracy_floor",
                          ga_norm, h_norm)
        y = exact_model_min(spec)
        reason = "accuracy_floor" if float(np.linalg.norm(y - x_t)) == 0.0 else "exact"
        return Answer(y, oracle.grad(y), 0, reason, ga_norm, h_norm)

    return subproblem


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


def accelerated_steps(subproblem, L3: float, x0: Vector, cfg: NatmiConfig,
                      k_max: int, warm: dict | None = None):
    """The accelerated scheme: yield (trial, n_trials) per window search.

    Each step blends the anchor x~ = (A*y + a*x)/(A + a) for a trial lambda,
    asks subproblem(x~) for an Answer, and lets search_lambda pick the lambda
    whose answer lands in the window. The generator ends after a terminal
    answer (zero_gradient, accuracy_floor) and after k_max steps; otherwise,
    when resumed, it takes the dual step x -= a*grad_y and moves y to the
    answer. The caller decides whether to resume.

    warm, when given, maps the step index (from 1) to the lambda accepted at
    that stage of an earlier run, and this run adds its own. It seeds the
    search ahead of the previous step's lambda: the sliding middle loop runs
    once per outer trial from nearby anchors, so the same-stage lambda
    usually lands in the window on the first attempt.
    """
    x = np.array(x0, dtype=np.float64)
    y = x.copy()
    A = 0.0
    lam_prev = None
    for k in range(1, k_max + 1):

        def make_trial(lam: float) -> TrialPoint:
            a = step_weight(lam, A)
            A_next = A + a
            assert abs(A_next - a * a / lam) <= 1e-10 * max(1.0, A_next)
            x_t = (A / A_next) * y + (a / A_next) * x
            ans = subproblem(x_t)
            r = float(np.linalg.norm(ans.y - x_t))
            return TrialPoint(lam=lam, a=a, A_next=A_next, x_tilde=x_t, r=r,
                              w=lam * 0.75 * L3 * r * r, **ans._asdict())

        seed = warm.get(k) if warm is not None else None
        t, n_trials = search_lambda(make_trial, L3,
                                    lam_prev if seed is None else seed, A,
                                    growth=cfg.lam_growth,
                                    max_expand=cfg.lam_max_expand,
                                    max_bisect=cfg.lam_max_bisect)
        terminal = t.reason in _TERMINAL
        if warm is not None and A > 0.0 and not terminal:
            warm[k] = t.lam
        yield t, n_trials
        if terminal:
            return
        x = x - t.a * t.grad_y
        y = t.y
        A = t.A_next
        lam_prev = t.lam


def outer_loop(subproblem, L3: float, x0: Vector, cfg: NatmiConfig,
               objective, counts, measure=None) -> SolveResult:
    """Run accelerated_steps for up to cfg.k_max steps and keep the records.

    objective has value(y) and grad(y) of the minimized function, counts()
    returns its oracle call totals, and measure(y) gives f at each accepted
    iterate (objective.value unless the caller counts more there).

    Stops: stationary (zero gradient at the anchor or at the accepted
    iterate), accuracy_floor (the anchor is at the floor for eps; the solve
    ends on the floor trial's point when its gradient is smaller than the
    last accepted y's), grad_tol and k_max. A failure re-raises with the
    rows recorded so far in exc.records.
    """
    report = validate_params(cfg)
    if not report.ok:
        raise ValueError("invalid parameters: " + "; ".join(report.violations))
    measure = measure or objective.value
    base = counts()
    # Largest anchor gradient and Hessian norms over every trial, and the
    # gradient norms at accepted iterates.
    peak = [0.0, 0.0]

    def tracked(x_t: Vector) -> Answer:
        ans = subproblem(x_t)
        peak[0] = max(peak[0], ans.grad_anchor_norm)
        peak[1] = max(peak[1], ans.hess_anchor_norm)
        return ans

    y = np.array(x0, dtype=np.float64)
    A = 0.0
    status = grad_norm = None
    records: list[IterationRecord] = []
    t_start = time.perf_counter() if cfg.timing else 0.0
    try:
        for t, n_trials in accelerated_steps(tracked, L3, y, cfg, cfg.k_max):
            if t.reason == "zero_gradient":
                y, grad_norm, status = t.x_tilde.copy(), 0.0, "stationary"
                break
            if t.reason == "accuracy_floor":
                # The floor trial solved its model to the arithmetic limit,
                # so its point can lie closer to the optimum than the last y.
                floor_grad = float(np.linalg.norm(t.grad_y))
                if grad_norm is not None and floor_grad < grad_norm:
                    y, grad_norm = t.y.copy(), floor_grad
                status = "accuracy_floor"
                break
            grad_norm = float(np.linalg.norm(t.grad_y))
            peak[0] = max(peak[0], grad_norm)
            sigma_obs = 0.0
            if t.r > 0.0:
                drift = t.y - (t.x_tilde - t.lam * t.grad_y)
                sigma_obs = float(np.linalg.norm(drift)) / t.r
            y, A = t.y, t.A_next
            f_y = measure(y)
            wall_ms = (time.perf_counter() - t_start) * 1e3 if cfg.timing else 0.0
            c = {key: value - base[key] for key, value in counts().items()}
            records.append(IterationRecord(
                k=len(records) + 1, f=f_y, grad_norm=grad_norm,
                step_radius=t.r, lam=t.lam, A=A, inner_iters=t.inner_iters,
                n_grad=_total(c, "grad"), n_hess=_total(c, "hess"),
                max_grad_norm=peak[0], max_hess_norm=peak[1], wall_ms=wall_ms,
                sigma_observed=sigma_obs, window_value=t.w,
                n_value=_total(c, "value"), n_third=_total(c, "third"),
                n_trials=n_trials, reason=t.reason, y=y.copy(),
                n_grad_g=c.get("grad_g", 0), n_hess_g=c.get("hess_g", 0),
                n_grad_h=c.get("grad_h", 0), n_hess_h=c.get("hess_h", 0),
                n_third_g=c.get("third_g", 0),
                mid_iters=t.extra.get("mid_iters", 0) if t.extra else 0))
            if t.reason == "zero_gradient_at_iterate":
                status = "stationary"
                break
            if cfg.grad_tol > 0.0 and grad_norm <= cfg.grad_tol:
                status = "grad_tol"
                break
            t_start = time.perf_counter() if cfg.timing else 0.0
    except Exception as exc:
        # Let the harness flush whatever rows exist before dying.
        exc.records = tuple(records)
        raise
    status = status or "k_max"
    f_final = objective.value(y)
    if grad_norm is None:
        grad_norm = float(np.linalg.norm(objective.grad(y)))
    return SolveResult(
        y=y, f=f_final, grad_norm=grad_norm, status=status,
        converged=status in ("stationary", "grad_tol", "accuracy_floor"),
        iters=len(records), A=A, records=tuple(records),
        sigma_max=max((rec.sigma_observed for rec in records), default=0.0),
        counts={key: value - base[key] for key, value in counts().items()},
        max_grad_norm=peak[0], max_hess_norm=peak[1], report=report)


def _total(counts: dict, kind: str) -> int:
    """Calls of one kind summed over the parts: grad, or grad_g + grad_h."""
    return sum(value for key, value in counts.items()
               if key.partition("_")[0] == kind)


def solve(cfg: NatmiConfig, oracle: ProblemOracle, x0: Vector) -> SolveResult:
    """Run the outer loop from x0 until k_max, grad_tol, or a terminal state."""
    if cfg.subsolver not in ("bdgm", "exact"):
        raise ValueError(f"unknown subsolver {cfg.subsolver!r}")
    co = counted(oracle)
    return outer_loop(oracle_subproblem(cfg, co), co.lipschitz_L3, x0, cfg,
                      co, lambda: co.counts)
