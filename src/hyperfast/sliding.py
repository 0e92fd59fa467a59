"""Three-level scheme for objectives split as f = g + h.

The split pays off when g's third derivative varies much more slowly than
h's (L3_g << L3_h): the outer loop then models only g, paying one Hessian of
g per outer trial, and hands the composite subproblem

    min_y  [third-order model of g at the outer anchor](y) + h(y)

to a middle loop. The middle loop is the same accelerated scheme applied to
that sum: it models h at its own anchors (one Hessian of h per middle
trial), keeps the cached g-model exact, and stops as soon as its iterate
satisfies the membership test the outer loop consumes. The innermost level
is the Bregman-step engine minimizing [model of h] + [model of g], with h's
cubic term estimated from gradient differences and the g-model's derivatives
evaluated from the cached anchor data.

Outer acceptance uses the composite membership residual; outer windows use
L3_g and middle windows use L3_h. Per-component call counters are the point
of the construction and are reported alongside the trace.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import bdgm
from .natmi import (
    NatmiConfig,
    IterationRecord,
    TrialPoint,
    search_lambda,
    solve as natmi_solve,
    step_weight,
    validate_params,
)
from .oracles import CountedOracle, ProblemOracle, Vector, counted, operator_norm
from .taylor import MembershipResult, ModelSpec, model_grad, model_hess, model_value


class CompositeProblem:
    """Pair of counted oracles with the cheaper-to-model part first.

    Construction swaps the parts (with a warning) when g's L3 exceeds h's,
    so the modeled component is always the slowly-varying one. The zero
    sentinel is allowed only as h and keeps its position; it routes the
    solver through the degenerate single-function path.
    """

    def __init__(self, g: ProblemOracle, h: ProblemOracle):
        if g.dim != h.dim:
            raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
        if g.is_zero:
            raise ValueError("the zero part must be passed second")
        if not h.is_zero:
            if g.lipschitz_L3 <= 0.0 or h.lipschitz_L3 <= 0.0:
                raise ValueError("composite parts need positive L3 bounds")
            if g.lipschitz_L3 > h.lipschitz_L3:
                warnings.warn("swapping composite parts so the smaller L3 "
                              "is modeled", stacklevel=2)
                g, h = h, g
        self.g = counted(g)
        self.h = counted(h)

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def counts(self) -> dict[str, int]:
        return {
            "value_g": self.g.n_value, "grad_g": self.g.n_grad,
            "hess_g": self.g.n_hess, "third_g": self.g.n_third,
            "value_h": self.h.n_value, "grad_h": self.h.n_grad,
            "hess_h": self.h.n_hess, "third_h": self.h.n_third,
        }


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
    abs_tol = 1e-12 * (1.0 + anchor_norm)
    return MembershipResult(lhs, rhs, lhs <= rhs + abs_tol)


@dataclass(frozen=True)
class SlidingRecord:
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
    n_grad_g: int
    n_hess_g: int
    n_grad_h: int
    n_hess_h: int
    n_third_g: int
    mid_iters: int
    sigma_observed: float = 0.0
    window_value: float = 0.0
    n_trials: int = 1
    reason: str = "certified"
    y: Vector | None = None


@dataclass(frozen=True)
class SlidingResult:
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


class _GModel:
    """Cached third-order model of g at an outer anchor.

    Exact function of y given the anchor data; its gradient and Hessian away
    from the anchor consume g's directional third derivative, which shows up
    in the third_g counter (or in extra gradient calls on oracles without
    analytic thirds, which distorts the per-component budget; the shipped
    problem classes all provide thirds).
    """

    def __init__(self, g: CountedOracle, anchor: Vector, H: float):
        self.spec = ModelSpec(g, anchor, H)
        self.H = H

    def value(self, y: Vector) -> float:
        return model_value(self.spec, y)

    def grad(self, y: Vector) -> Vector:
        return model_grad(self.spec, y)

    def hess(self, y: Vector) -> np.ndarray:
        return model_hess(self.spec, y)


def _middle_solve(cfg: NatmiConfig, prob: CompositeProblem, gmodel: _GModel,
                  x_anchor: Vector, abs_tol: float,
                  warm: dict | None = None):
    """Accelerated loop on F_mid = gmodel + h until the outer membership
    holds at its iterate.

    warm maps middle-iteration index to the lambda accepted at that stage
    of the previous run; consecutive outer trials move the anchor only
    slightly, so the same-stage lambda usually lands in the window on the
    first attempt instead of rebuilding the bracket from scratch.

    Returns (T, grad_f_T, mid_iters, inner_total, reason, eng_grad_max,
    eng_hess_max) with reason "member" or "floor".
    """
    h_or = prob.h
    g_or = prob.g
    L3h = h_or.lipschitz_L3
    H_h = cfg.xi * L3h
    # The engine objective is [model of h] + [cached model of g]; the cubic
    # part varies with constant L3h while the g-model's quartic regularizer
    # has third-derivative Lipschitz constant exactly 4*H_g.
    L3_inner = L3h + 4.0 * gmodel.H
    gamma = cfg.gamma
    A = 0.0
    x = x_anchor.copy()
    y = x_anchor.copy()
    lam_prev = None
    mid_iters = 0
    inner_total = 0
    eng_grad_max = 0.0
    eng_hess_max = 0.0

    for _ in range(cfg.middle_k_max):
        A_cur, x_cur, y_cur = A, x, y

        def make_trial(lam: float) -> TrialPoint:
            a = step_weight(lam, A_cur)
            A_next = A_cur + a
            assert abs(A_next - a * a / lam) <= 1e-10 * max(1.0, A_next)
            x_tm = (A_cur / A_next) * y_cur + (a / A_next) * x_cur
            gh_anchor = h_or.grad(x_tm)
            Bh = h_or.hess(x_tm)
            g0 = gmodel.grad(x_tm) + gh_anchor
            B = gmodel.hess(x_tm) + Bh
            cell: dict = {}

            def inexact(state, z):
                s = np.asarray(z) - x_tm
                if not np.any(s):
                    return g0.copy()
                fd3 = bdgm.fd_third_action(h_or, x_tm, s, state.tau_used,
                                           g0=gh_anchor)
                return (gh_anchor + Bh @ s + 0.5 * fd3
                        + (2.0 * H_h / 3.0) * float(s @ s) * s
                        + gmodel.grad(z))

            def target(z):
                gh = h_or.grad(z)
                gg = gmodel.grad(z)
                cell["z"], cell["gh"], cell["gg"] = z, gh, gg
                return gg + gh

            eng = bdgm.custom_setup(x_tm, g0, B, L3_inner, cfg.eps,
                                    inexact, target, c_delta=cfg.c_delta,
                                    gamma=gamma)
            res = bdgm.solve(eng, cfg.inner_max_iters)
            if cell.get("z") is not res.z:
                if np.array_equal(res.z, x_tm):
                    cell = {"z": res.z, "gh": gh_anchor,
                            "gg": g0 - gh_anchor}
                else:
                    cell = {"z": res.z, "gh": h_or.grad(res.z),
                            "gg": gmodel.grad(res.z)}
            r = float(np.linalg.norm(res.z - x_tm))
            return TrialPoint(lam=lam, a=a, A_next=A_next, x_tilde=x_tm,
                              y=res.z, r=r, w=lam * 0.75 * L3h * r * r,
                              inner_iters=res.iters, reason=res.reason,
                              grad_y=res.grad_at_z,
                              grad_anchor_norm=eng.grad_norm0,
                              hess_anchor_norm=eng.hess_norm0,
                              extra=cell)

        seed = warm.get(mid_iters + 1) if warm is not None else None
        if seed is None:
            seed = lam_prev
        t, _ = search_lambda(make_trial, L3h, seed, A_cur,
                             growth=cfg.lam_growth,
                             max_expand=cfg.lam_max_expand,
                             max_bisect=cfg.lam_max_bisect)
        mid_iters += 1
        inner_total += t.inner_iters
        if warm is not None and A_cur > 0.0 and \
                t.reason not in ("zero_gradient", "accuracy_floor"):
            warm[mid_iters] = t.lam
        eng_grad_max = max(eng_grad_max, t.grad_anchor_norm)
        eng_hess_max = max(eng_hess_max, t.hess_anchor_norm)
        T = t.y
        grad_mid_T = t.grad_y
        grad_f_T = g_or.grad(T) + t.extra["gh"]
        lhs = float(np.linalg.norm(grad_mid_T))
        rhs = gamma * float(np.linalg.norm(grad_f_T))
        if lhs <= rhs + abs_tol:
            return (T, grad_f_T, mid_iters, inner_total, "member",
                    eng_grad_max, eng_hess_max)
        if t.reason in ("zero_gradient", "accuracy_floor"):
            # The middle level cannot refine further at this eps.
            return (T, grad_f_T, mid_iters, inner_total, "floor",
                    eng_grad_max, eng_hess_max)
        x = x - t.a * grad_mid_T
        y = T
        A = t.A_next
        lam_prev = t.lam
    raise bdgm.SubproblemError(
        f"middle loop exhausted {cfg.middle_k_max} iterations without "
        "reaching the outer membership set")


def _degenerate_solve(prob: CompositeProblem, x0: Vector,
                      cfg: NatmiConfig) -> SlidingResult:
    """h is the zero sentinel: run the single-function method on g.

    The composite membership check still evaluates h's gradient at each
    accepted iterate (the residual genuinely contains grad h(y), it just
    contributes nothing), so grad_h counts the accepted iterations while
    hess_h stays zero.
    """
    base = prob.counts
    res = natmi_solve(cfg, prob.g, x0)
    for rec in res.records:
        prob.h.grad(rec.y)
    records = []
    for i, rec in enumerate(res.records):
        records.append(SlidingRecord(
            k=rec.k, f=rec.f, grad_norm=rec.grad_norm,
            step_radius=rec.step_radius, lam=rec.lam, A=rec.A,
            inner_iters=rec.inner_iters,
            n_grad=rec.n_grad + i + 1, n_hess=rec.n_hess,
            max_grad_norm=rec.max_grad_norm,
            max_hess_norm=rec.max_hess_norm, wall_ms=rec.wall_ms,
            n_grad_g=rec.n_grad, n_hess_g=rec.n_hess,
            n_grad_h=i + 1, n_hess_h=0, n_third_g=rec.n_third,
            mid_iters=0, sigma_observed=rec.sigma_observed,
            window_value=rec.window_value, n_trials=rec.n_trials,
            reason=rec.reason, y=rec.y))
    delta_counts = {key: prob.counts[key] - base[key] for key in base}
    return SlidingResult(
        y=res.y, f=res.f, grad_norm=res.grad_norm, status=res.status,
        converged=res.converged, iters=res.iters, A=res.A,
        records=tuple(records), sigma_max=res.sigma_max,
        counts=delta_counts, max_grad_norm=res.max_grad_norm,
        max_hess_norm=res.max_hess_norm)


def solve_composite_natmi(prob: CompositeProblem, x0: Vector,
                          cfg: NatmiConfig) -> SlidingResult:
    """Outer accelerated loop on f = g + h with g modeled, h kept exact.

    Identical bookkeeping to the single-function loop: lambda window on
    L3_g, dual update with the full gradient of f, contraction ratio
    recorded per iteration. Subproblems go to the middle loop.
    """
    report = validate_params(cfg)
    if not report.ok:
        raise ValueError("invalid parameters: " + "; ".join(report.violations))
    if prob.h.is_zero:
        return _degenerate_solve(prob, x0, cfg)
    records: list[SlidingRecord] = []
    try:
        return _composite_loop(prob, cfg, np.array(x0, dtype=np.float64),
                               records)
    except Exception as exc:
        # Let the harness flush whatever rows exist before dying.
        exc.records = tuple(records)
        raise


def _composite_loop(prob: CompositeProblem, cfg: NatmiConfig, x0: Vector,
                    records: list) -> SlidingResult:
    g_or, h_or = prob.g, prob.h
    L3g = g_or.lipschitz_L3
    H_g = cfg.xi * L3g
    base = prob.counts
    A = 0.0
    x = x0.copy()
    y = x0.copy()
    k = 0
    lam_prev = None
    G_max = 0.0
    H_max = 0.0
    status = None
    grad_final = None
    mid_warm: dict = {}

    while k < cfg.k_max and status is None:
        t_start = time.perf_counter() if cfg.timing else 0.0
        A_cur, x_cur, y_cur = A, x, y

        def make_trial(lam: float) -> TrialPoint:
            nonlocal G_max, H_max
            a = step_weight(lam, A_cur)
            A_next = A_cur + a
            assert abs(A_next - a * a / lam) <= 1e-10 * max(1.0, A_next)
            x_t = (A_cur / A_next) * y_cur + (a / A_next) * x_cur
            gmodel = _GModel(g_or, x_t, H_g)
            gf_anchor = gmodel.spec.grad_anchor + h_or.grad(x_t)
            ga_norm = float(np.linalg.norm(gf_anchor))
            G_max = max(G_max, ga_norm)
            if ga_norm == 0.0:
                return TrialPoint(lam=lam, a=a, A_next=A_next, x_tilde=x_t,
                                  y=x_t.copy(), r=0.0, w=0.0, inner_iters=0,
                                  reason="zero_gradient", grad_y=gf_anchor,
                                  grad_anchor_norm=0.0, hess_anchor_norm=0.0,
                                  extra={"mid_iters": 0})
            abs_tol = 1e-12 * (1.0 + ga_norm)
            (T, grad_f_T, mid_iters, inner_total, reason, eg, eh) = \
                _middle_solve(cfg, prob, gmodel, x_t, abs_tol, warm=mid_warm)
            G_max = max(G_max, eg)
            H_max = max(H_max, eh)
            r = float(np.linalg.norm(T - x_t))
            return TrialPoint(
                lam=lam, a=a, A_next=A_next, x_tilde=x_t, y=T, r=r,
                w=lam * 0.75 * L3g * r * r, inner_iters=inner_total,
                reason="accuracy_floor" if reason == "floor" else "certified",
                grad_y=grad_f_T, grad_anchor_norm=ga_norm,
                hess_anchor_norm=eh, extra={"mid_iters": mid_iters})

        t, n_trials = search_lambda(make_trial, L3g, lam_prev, A,
                                    growth=cfg.lam_growth,
                                    max_expand=cfg.lam_max_expand,
                                    max_bisect=cfg.lam_max_bisect)
        if t.reason == "zero_gradient":
            y = t.x_tilde.copy()
            status = "stationary"
            grad_final = 0.0
            break
        if t.reason == "accuracy_floor":
            # As in natmi.outer_step: keep the floor trial's point when its
            # gradient is below the last accepted y's.
            floor_grad = float(np.linalg.norm(t.grad_y))
            if grad_final is not None and floor_grad < grad_final:
                y, grad_final = t.y.copy(), floor_grad
            status = "accuracy_floor"
            break
        grad_y = t.grad_y
        grad_norm = float(np.linalg.norm(grad_y))
        G_max = max(G_max, grad_norm)
        sigma_obs = 0.0
        if t.r > 0.0:
            drift = t.y - (t.x_tilde - t.lam * grad_y)
            sigma_obs = float(np.linalg.norm(drift)) / t.r
        x = x - t.a * grad_y
        y = t.y
        A = t.A_next
        k += 1
        lam_prev = t.lam
        grad_final = grad_norm
        f_y = g_or.value(y) + h_or.value(y)
        wall_ms = (time.perf_counter() - t_start) * 1e3 if cfg.timing else 0.0
        c = prob.counts
        records.append(SlidingRecord(
            k=k, f=f_y, grad_norm=grad_norm, step_radius=t.r, lam=t.lam,
            A=A, inner_iters=t.inner_iters,
            n_grad=(c["grad_g"] - base["grad_g"]) + (c["grad_h"] - base["grad_h"]),
            n_hess=(c["hess_g"] - base["hess_g"]) + (c["hess_h"] - base["hess_h"]),
            max_grad_norm=G_max, max_hess_norm=H_max, wall_ms=wall_ms,
            n_grad_g=c["grad_g"] - base["grad_g"],
            n_hess_g=c["hess_g"] - base["hess_g"],
            n_grad_h=c["grad_h"] - base["grad_h"],
            n_hess_h=c["hess_h"] - base["hess_h"],
            n_third_g=c["third_g"] - base["third_g"],
            mid_iters=t.extra["mid_iters"], sigma_observed=sigma_obs,
            window_value=t.w, n_trials=n_trials, reason=t.reason,
            y=y.copy()))
        if cfg.grad_tol > 0.0 and grad_norm <= cfg.grad_tol:
            status = "grad_tol"
    if status is None:
        status = "k_max"
    if grad_final is None:
        grad_final = float(np.linalg.norm(g_or.grad(y) + h_or.grad(y)))
    f_final = g_or.value(y) + h_or.value(y)
    sigma_max = max((rec.sigma_observed for rec in records), default=0.0)
    delta_counts = {key: prob.counts[key] - base[key] for key in base}
    return SlidingResult(
        y=y, f=f_final, grad_norm=grad_final, status=status,
        converged=status in ("stationary", "grad_tol", "accuracy_floor"),
        iters=k, A=A, records=tuple(records), sigma_max=sigma_max,
        counts=delta_counts, max_grad_norm=G_max, max_hess_norm=H_max)


def solve_sliding(prob: CompositeProblem, x0: Vector,
                  cfg: NatmiConfig) -> SlidingResult:
    """Three-level solve; the result's counts field carries the
    per-component gradient and Hessian totals."""
    return solve_composite_natmi(prob, x0, cfg)
