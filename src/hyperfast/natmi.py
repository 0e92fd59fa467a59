"""Outer accelerated loop driving the inexact third-order subproblem solver.

The loop keeps a primal iterate y, a dual-averaging iterate x, and an
accumulator A. Each iteration searches for a step weight lambda: the anchor
x~(lambda) is a convex blend of y and x, the model subproblem at the anchor
is solved inexactly, and lambda is accepted when the realized step radius
r = ||y_new - x~|| puts lambda*H*r^2/2 inside [1/2, 3/4], H = xi*L3 the
model's regularization weight (lambda * 3*L3*r^2/4 at xi = 3/2). The accepted
iterate carries a relative model-gradient certificate from the subproblem
solver, and the combination of certificate and window produces the
per-iteration contraction ratio recorded as sigma_observed.

The search procedure (warm-started secant steps on log w against log lambda,
through the bracket's ends once the window is bracketed) is plumbing around
the acceptance window; the window's multiplicative width of 3/2 is what
guarantees the bracketed search lands.

accelerated_steps is this scheme for any subproblem builder, and outer_loop
runs it to a stop and keeps the records. The single-function solver and both
levels of the sliding solver (sliding.py) differ only in the builder.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bdgm
from .oracles import ConfigError, ProblemOracle, SolverError, Vector, counted, operator_norm
from .taylor import EXACT_MAX_DIM, ModelSpec, exact_model_min, model_grad

WINDOW_LO = 0.5
WINDOW_HI = 0.75
#: First-iteration target for lambda*H*r^2/2, the window midpoint.
_WINDOW_MID = 0.625

#: Step weight search: the first secant slope of log w against log lambda
#: (w grows about like lambda^1.2-1.4), the clamp on later slopes, the
#: largest factor one step moves lambda by, and the trial cap.
_FIRST_SLOPE = 1.3
_SLOPE_MIN, _SLOPE_MAX = 0.5, 3.0
_MAX_STEP = 64.0
_MAX_TRIALS = 60
#: Largest growth ratio lam_{k-1}/lam_{k-2} at which the next search's start
#: extrapolates and aims at the window midpoint; past it (the late jumps of a
#: solve) the start stays at lam_{k-1}.
_MAX_EXTRAPOLATE = 2.0

#: Subproblem outcomes that end the outer loop instead of being stepped on.
_TERMINAL = ("zero_gradient", "accuracy_floor")


class LambdaSearchError(SolverError):
    """No acceptable step weight found; usually a mis-specified L3."""


@dataclass(frozen=True)
class NatmiConfig:
    """Solver parameters.

    gamma and xi form the contraction regime checked by validate_params;
    the shipped defaults bdgm.GAMMA, bdgm.XI = 1/6, 3/2 give sigma = 0.6.
    eps alone sets the inner solver's difference-error budget delta
    (bdgm.setup), k_max >= 1 caps the outer steps, grad_tol is the outer
    stopping norm (0 disables it, leaving only k_max), and subsolver picks
    the inner engine ("bdgm", built for xi = bdgm.XI, or "exact").
    Construction refuses bad settings with a ConfigError.
    """

    eps: float = 1e-8
    k_max: int = 100
    gamma: float = bdgm.GAMMA
    xi: float = bdgm.XI
    grad_tol: float = 0.0
    subsolver: str = "bdgm"

    def __post_init__(self):
        # Written as "not (...)" so that NaN, which fails every comparison,
        # is rejected too.
        if not (0.0 < self.eps < math.inf):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if not (isinstance(self.k_max, (int, np.integer)) and self.k_max >= 1):
            raise ConfigError(f"k_max must be an integer >= 1, got {self.k_max!r}")
        if not (0.0 <= self.grad_tol < math.inf):
            raise ConfigError(f"grad_tol must be >= 0 and finite, got {self.grad_tol}")
        for name in ("gamma", "xi"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.subsolver not in ("bdgm", "exact"):
            raise ConfigError(f"unknown subsolver {self.subsolver!r}")


@dataclass(frozen=True)
class ParamReport:
    ok: bool
    sigma: float
    violations: tuple[str, ...]


def validate_params(cfg: NatmiConfig) -> ParamReport:
    """Check the parameter regime and report the predicted contraction.

    Accepts iff gamma in [0, 1), xi >= 1 is finite and, at the order p = 3,
    2*gamma + 1/(xi*(p+1)) <= 1. The predicted per-iteration contraction is
    sigma = (p*xi + 1 - xi + 2*gamma*xi) / ((1 - gamma)*2*p*xi); the regime
    (1/6, 3/2) gives exactly 0.6 and (0, 1) gives 0.5.
    """
    violations = []
    p = 3
    gamma = float(cfg.gamma)
    xi = float(cfg.xi)
    if not 0.0 <= gamma < 1.0:
        violations.append(f"gamma must lie in [0, 1), got {gamma}")
    if not 1.0 <= xi < math.inf:
        violations.append(
            f"xi must be finite and >= 1 so H = xi*L3 dominates L3, got {xi}")
    if xi > 0.0:
        hypothesis = 2.0 * gamma + 1.0 / (xi * (p + 1))
        if hypothesis > 1.0:
            violations.append(
                "contraction hypothesis failed: "
                f"2*gamma + 1/(xi*(p+1)) = {hypothesis:.6g} > 1")
    denom = (1.0 - gamma) * 2.0 * p * xi
    sigma = (p * xi + 1.0 - xi + 2.0 * gamma * xi) / denom if denom != 0.0 else math.nan
    return ParamReport(ok=not violations, sigma=sigma, violations=tuple(violations))


def step_weight(lam: float, A: float) -> float:
    """Root a of a^2 = lam*(A + a), the accumulator increment for lam."""
    return 0.5 * (lam + math.sqrt(lam * lam + 4.0 * lam * A))


class Trial(NamedTuple):
    """A subproblem builder's answer at one anchor, and its step weight.

    The builder fills the fields up to mid_iters: grad_y is the gradient the
    dual update steps along, the anchor norms feed max_grad_norm /
    max_hess_norm, and sliding's levels pass h's gradient at y (part_grad)
    and the middle steps taken (mid_iters). accelerated_steps replaces the
    anchor norms by the largest over every trial of its run so far, and the
    search fills the rest, w being the window statistic lam*H*r^2/2, H =
    xi*L3 and r = ||y - x~||.
    """

    y: Vector
    grad_y: Vector
    inner_iters: int
    reason: str
    grad_anchor_norm: float
    hess_anchor_norm: float
    part_grad: Vector | None = None
    mid_iters: int = 0
    lam: float = 0.0
    a: float = 0.0
    A_next: float = 0.0
    x_tilde: Vector | None = None
    r: float = 0.0
    w: float = 0.0


@dataclass(frozen=True, slots=True)
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
    records: tuple
    sigma_max: float
    counts: dict
    max_grad_norm: float
    max_hess_norm: float


def oracle_subproblem(cfg: NatmiConfig, oracle: ProblemOracle):
    """Subproblem builder for a single function: the regularized third-order
    model of oracle at each anchor, solved by the inexact engine or, with
    subsolver="exact", by the reference Newton minimizer; either answers
    "certified" on the paper's certificate, else "accuracy_floor". The
    inexact builder takes (x_t, model=None, start=None), model a ModelSpec
    added as a second part (sliding's g-model, anchored at the outer anchor)
    and start the point bdgm.solve starts at when it lies in the anchor
    ball, and answers part_grad = oracle's gradient at y. The exact builder
    takes (x_t, start=None) and ignores start. Every solve builds one
    before its first oracle call; a bad regime, gamma = 0 (which stalls),
    then xi != bdgm.XI or n > EXACT_MAX_DIM is a ConfigError here."""
    report = validate_params(cfg)
    if not report.ok:
        raise ConfigError("invalid parameters: " + "; ".join(report.violations))
    if cfg.gamma == 0.0:
        raise ConfigError("gamma must be positive: gamma = 0 stops at the start point")
    if cfg.subsolver == "bdgm":
        if cfg.xi != bdgm.XI:
            raise ConfigError(f"subsolver 'bdgm' needs xi = {bdgm.XI}, got xi = {cfg.xi}")

        def inexact(x_t: Vector, model: ModelSpec | None = None,
                    start: Vector | None = None) -> Trial:
            sub = bdgm.setup(oracle, x_t, cfg.eps, cfg.gamma, model)
            res = bdgm.solve(sub, start=start)
            return Trial(res.z, res.grad_at_z, res.iters, res.reason,
                         sub.grad_norm0, sub.hess_norm0, res.oracle_grad_at_z)

        return inexact
    if oracle.dim > EXACT_MAX_DIM:
        raise ConfigError(f"subsolver 'exact' needs n <= {EXACT_MAX_DIM}, got n = {oracle.dim}")
    L3 = oracle.lipschitz_L3

    def exact(x_t: Vector, start: Vector | None = None) -> Trial:
        spec = ModelSpec(oracle, x_t, cfg.xi * L3)
        if not (np.isfinite(spec.grad_anchor).all() and np.isfinite(spec.hess_anchor).all()):
            raise bdgm.SubproblemError("non-finite gradient or Hessian at the anchor")
        ga_norm = float(np.linalg.norm(spec.grad_anchor))
        h_norm = operator_norm(spec.hess_anchor)
        if ga_norm == 0.0:
            return Trial(x_t.copy(), spec.grad_anchor, 0, "zero_gradient",
                         ga_norm, h_norm)
        y = exact_model_min(spec)
        grad_y = oracle.grad(y)
        if not np.isfinite(grad_y).all():
            raise bdgm.SubproblemError("non-finite target gradient at the answer")
        # Fails at y = x~ (gamma < 1): an answer the float limit kept at the
        # anchor is the floor.
        lhs = np.linalg.norm(model_grad(spec, y))
        certified = lhs <= cfg.gamma * np.linalg.norm(grad_y)
        return Trial(y, grad_y, 0, "certified" if certified else "accuracy_floor",
                     ga_norm, h_norm)

    return exact


def search_lambda(make_trial, L3: float, xi: float, lam_warm: float | None,
                  A: float) -> tuple[Trial, int]:
    """Find a step weight whose trial lands in the window.

    The window statistic is w = lam*H*r^2/2 with H = xi*L3. With A = 0 (the
    first step, where lam_warm is None) the anchor does not depend on
    lambda, so a single subproblem solve fixes r and lambda is set
    analytically to hit the window midpoint. An answer at the anchor
    (r = 0) is returned as it is when its gradient is exactly zero, a
    stationary start where outer_loop stops, and is an error otherwise.
    Otherwise start at lam_warm (accelerated_steps passes the previous
    lambda, extrapolated and aimed at the midpoint while it grows steadily)
    and take secant steps on (log lambda, log w) aimed at the window
    midpoint. Until a trial on each side brackets the window, the slope
    comes from the last two trials (the first step assumes 1.3, as the
    aimed start does), clamped to [1/2, 3], and a step moves lambda by at
    most 64x, or by exactly 64x when w = 0. Inside a bracket the step is
    the secant through its two ends, or the log-midpoint while the lower
    end has w = 0. Returns the accepted trial and the trial count.
    """
    if A == 0.0:
        t = make_trial(1.0)
        if t.reason in _TERMINAL or (t.r == 0.0 and not t.grad_y.any()):
            return t, 1
        if t.r == 0.0:
            raise LambdaSearchError("subproblem returned the anchor with a "
                                    "nonzero gradient at the start point")
        lam = _WINDOW_MID / (0.5 * xi * L3 * t.r * t.r)
        # a = lam when A = 0, so the anchor and the solved subproblem are
        # unchanged; only the bookkeeping weights move.
        return t._replace(lam=lam, a=lam, A_next=lam,
                          w=lam * (0.5 * xi) * L3 * t.r * t.r), 1

    lam = lam_warm
    lo = hi = prev = None  # below-window, above-window and previous trials
    for n_trials in range(1, _MAX_TRIALS + 1):
        t = make_trial(lam)
        if t.reason in _TERMINAL or WINDOW_LO <= t.w <= WINDOW_HI:
            return t, n_trials
        if t.w < WINDOW_LO:
            lo = t
        else:
            hi = t
        if lo is not None and hi is not None:
            # Secant inside the bracket; the log-midpoint when lo.w = 0.
            s = (math.log(_WINDOW_MID / lo.w) / math.log(hi.w / lo.w)
                 if lo.w > 0.0 else 0.5)
            lam = lo.lam * (hi.lam / lo.lam) ** s
        elif t.w == 0.0:
            lam *= _MAX_STEP
        else:
            slope = _FIRST_SLOPE
            if prev is not None and prev.w > 0.0:
                slope = math.log(t.w / prev.w) / math.log(t.lam / prev.lam)
                slope = min(max(slope, _SLOPE_MIN), _SLOPE_MAX)
            step = (_WINDOW_MID / t.w) ** (1.0 / slope)
            lam *= min(max(step, 1.0 / _MAX_STEP), _MAX_STEP)
        prev = t
    raise LambdaSearchError(
        f"window not hit within {_MAX_TRIALS} trials (L3 = {L3:.6g}, "
        f"last lambda = {t.lam:.6g}, w = {t.w:.6g}); check the oracle's L3")


def accelerated_steps(subproblem, L3: float, xi: float, x0: Vector, k_max: int):
    """The accelerated scheme: yield (trial, n_trials) per window search.

    The window statistic is the paper's w = lam*H*r^2/2 with H = xi*L3.
    Each step blends the anchor x~ = (A*y + a*x)/(A + a) for a trial lambda,
    asks subproblem(x~, start=...) for a Trial, and lets search_lambda pick
    the lambda whose answer lands in the window. start is None for a
    search's first trial and the previous trial's y for each later one: the
    anchors of one search lie on one segment, so their answers lie close
    together, and the inexact builder starts its solve there. The generator
    ends after a terminal answer (zero_gradient, accuracy_floor) and after
    k_max steps; otherwise, when resumed, it takes the dual step
    x -= a*grad_y and moves y to the answer. The caller decides whether to
    resume. Each yielded trial's anchor norms are the largest over every
    trial of the run so far.

    Each search starts at the previous step's lambda. From step 3 on, while
    the last growth ratio rho = lam_{k-1}/lam_{k-2} is at most
    _MAX_EXTRAPOLATE, it starts at

        lam_{k-1} * rho * (_WINDOW_MID / w_{k-1}) ** (1 / _FIRST_SLOPE),

    w_{k-1} the last accepted window value. Lambda grows steadily for most
    of a solve, and the last factor takes the search's first secant step
    toward the midpoint before any trial, so the start usually lands in the
    window. A larger jump keeps the start at lam_{k-1}.
    """
    x = np.array(x0, dtype=np.float64)
    y = x.copy()
    A = 0.0
    lam_prev = lam_prev2 = w_prev = None
    peak_grad = peak_hess = 0.0
    for _ in range(k_max):
        last_y = None  # this search's previous answer

        def make_trial(lam: float) -> Trial:
            nonlocal peak_grad, peak_hess, last_y
            a = step_weight(lam, A)
            A_next = A + a
            assert abs(A_next - a * a / lam) <= 1e-10 * max(1.0, A_next)
            x_t = (A / A_next) * y + (a / A_next) * x
            t = subproblem(x_t, start=last_y)
            last_y = t.y
            peak_grad = max(peak_grad, t.grad_anchor_norm)
            peak_hess = max(peak_hess, t.hess_anchor_norm)
            r = float(np.linalg.norm(t.y - x_t))
            return t._replace(lam=lam, a=a, A_next=A_next, x_tilde=x_t, r=r,
                              w=lam * (0.5 * xi) * L3 * r * r,
                              grad_anchor_norm=peak_grad,
                              hess_anchor_norm=peak_hess)

        rho = lam_prev / lam_prev2 if lam_prev2 is not None else math.inf
        seed = lam_prev
        if rho <= _MAX_EXTRAPOLATE:
            seed *= rho * (_WINDOW_MID / w_prev) ** (1.0 / _FIRST_SLOPE)
        t, n_trials = search_lambda(make_trial, L3, xi, seed, A)
        yield t, n_trials
        if t.reason in _TERMINAL:
            return
        x = x - t.a * t.grad_y
        y = t.y
        A = t.A_next
        lam_prev2, lam_prev, w_prev = lam_prev, t.lam, t.w


def start_point(objective: ProblemOracle, x0: Vector) -> Vector:
    """A copy of x0 as float64, after objective's point rule: a point it
    refuses (wrong shape, non-finite) is a ConfigError, before any call."""
    try:
        return np.array(objective._check_point(x0))
    except ValueError as exc:
        raise ConfigError(f"x0: {exc}") from exc


def outer_loop(subproblem, L3: float, x0: Vector, cfg: NatmiConfig,
               objective, counts) -> SolveResult:
    """Run accelerated_steps for up to cfg.k_max steps and keep the records.

    objective is the minimized function's oracle, and counts() returns its
    oracle call totals. The window uses H = cfg.xi*L3; the regime was
    enforced when oracle_subproblem built the builder, and x0 passes
    start_point before the first oracle call.

    Stops, in the order tested: stationary (the first trial whose grad_y is
    exactly zero, at an anchor or an answer: the solve ends at its y with
    no row), accuracy_floor (the answer cannot be certified at this eps in
    float64; the solve ends on the floor trial's point when its gradient is
    smaller than the last accepted y's), grad_tol and k_max. A SolverError
    propagates with the rows recorded so far in its records. A step whose
    sigma_observed exceeds validate_params(cfg).sigma is such an error, not
    a row: the regime's contraction failed, most likely from an L3 below the
    true one, and the message adds bdgm.l3_hint.
    """
    base = counts()
    y = start_point(objective, x0)
    sigma_bound = validate_params(cfg).sigma
    peak_grad = peak_hess = 0.0
    status = grad_norm = None
    records: list[IterationRecord] = []
    t_start = time.perf_counter()
    try:
        for t, n_trials in accelerated_steps(subproblem, L3, cfg.xi, y, cfg.k_max):
            # t's anchor norms are the largest over every trial so far; the
            # gradient peak also takes the norms at accepted iterates.
            peak_grad = max(peak_grad, t.grad_anchor_norm)
            peak_hess = t.hess_anchor_norm
            if not t.grad_y.any():
                y, grad_norm, status = t.y.copy(), 0.0, "stationary"
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
            peak_grad = max(peak_grad, grad_norm)
            sigma_obs = 0.0
            if t.r > 0.0:
                drift = t.y - (t.x_tilde - t.lam * t.grad_y)
                sigma_obs = float(np.linalg.norm(drift)) / t.r
            if sigma_obs > sigma_bound:
                # The window's L3 is the modeled part's: g's for a composite.
                raise SolverError(
                    f"step {len(records) + 1}: sigma_observed {sigma_obs:.4g} "
                    f"exceeds the regime's sigma {sigma_bound:.4g}"
                    + bdgm.l3_hint(getattr(objective, "g", objective)))
            y = t.y
            f_y = objective.value(y)
            wall_ms = (time.perf_counter() - t_start) * 1e3
            c = {key: value - base[key] for key, value in counts().items()}
            records.append(IterationRecord(
                k=len(records) + 1, f=f_y, grad_norm=grad_norm,
                step_radius=t.r, lam=t.lam, A=t.A_next, inner_iters=t.inner_iters,
                n_grad=_total(c, "grad"), n_hess=_total(c, "hess"),
                max_grad_norm=peak_grad, max_hess_norm=peak_hess, wall_ms=wall_ms,
                sigma_observed=sigma_obs, window_value=t.w,
                n_value=_total(c, "value"), n_third=_total(c, "third"),
                n_trials=n_trials, reason=t.reason, y=y.copy(),
                n_grad_g=c.get("grad_g", 0), n_hess_g=c.get("hess_g", 0),
                n_grad_h=c.get("grad_h", 0), n_hess_h=c.get("hess_h", 0),
                n_third_g=c.get("third_g", 0),
                mid_iters=t.mid_iters))
            if cfg.grad_tol > 0.0 and grad_norm <= cfg.grad_tol:
                status = "grad_tol"
                break
            t_start = time.perf_counter()
    except SolverError as exc:
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
        iters=len(records), records=tuple(records),
        sigma_max=max((rec.sigma_observed for rec in records), default=0.0),
        counts={key: value - base[key] for key, value in counts().items()},
        max_grad_norm=peak_grad, max_hess_norm=peak_hess)


def _total(counts: dict, kind: str) -> int:
    """Calls of one kind summed over the parts: grad, or grad_g + grad_h."""
    return sum(value for key, value in counts.items()
               if key.partition("_")[0] == kind)


def solve(cfg: NatmiConfig, oracle: ProblemOracle, x0: Vector) -> SolveResult:
    """Run the outer loop from x0 until k_max, grad_tol, or a terminal state;
    a failed certificate or contraction adds bdgm.l3_hint to its message."""
    co = counted(oracle)
    return outer_loop(oracle_subproblem(cfg, co), co.lipschitz_L3, x0, cfg,
                      co, lambda: co.counts)
