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

import warnings

import numpy as np

from . import bdgm
from .natmi import (
    _TERMINAL,
    Answer,
    NatmiConfig,
    SolveResult,
    accelerated_steps,
    oracle_subproblem,
    outer_loop,
)
from .oracles import ProblemOracle, Vector, counted
from .taylor import MembershipResult, ModelSpec, model_grad, model_hess


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
        return {f"{kind}_{part}": calls
                for part, oracle in (("g", self.g), ("h", self.h))
                for kind, calls in oracle.counts.items()}

    def value(self, y: Vector) -> float:
        return self.g.value(y) + self.h.value(y)

    def grad(self, y: Vector) -> Vector:
        return self.g.grad(y) + self.h.grad(y)


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


def _middle_solve(cfg: NatmiConfig, prob: CompositeProblem, gspec: ModelSpec,
                  x_anchor: Vector, ga_norm: float, warm: dict) -> Answer:
    """Accelerated loop on F_mid = [g-model at x_anchor] + h until the outer
    membership holds at its iterate T.

    ga_norm is ||grad f(x_anchor)||, and warm the middle loop's lambda
    memory across outer trials (see accelerated_steps). Answers the outer
    trial with T, grad f(T), the inner iterations of all middle steps and
    reason "certified", or "accuracy_floor" when the middle level cannot
    refine further at this eps. Its anchor norms are the largest over the
    outer anchor and the accepted middle steps.
    """
    g, h = prob.g, prob.h
    L3h = h.lipschitz_L3
    H_h = cfg.xi * L3h
    # The engine objective is [model of h] + [cached model of g]; the cubic
    # part varies with constant L3h while the g-model's quartic regularizer
    # has third-derivative Lipschitz constant exactly 4*H_g.
    L3_inner = L3h + 4.0 * gspec.H
    abs_tol = 1e-12 * (1.0 + ga_norm)

    def subproblem(x_tm: Vector) -> Answer:
        gh_anchor = h.grad(x_tm)
        Bh = h.hess(x_tm)
        g0 = model_grad(gspec, x_tm) + gh_anchor
        B = model_hess(gspec, x_tm) + Bh
        last: dict = {}

        def inexact(state, z):
            s = np.asarray(z) - x_tm
            if not np.any(s):
                return g0.copy()
            fd3 = bdgm.fd_third_action(h, x_tm, s, state.tau_used,
                                       g0=gh_anchor)
            return (gh_anchor + Bh @ s + 0.5 * fd3
                    + (2.0 * H_h / 3.0) * float(s @ s) * s
                    + model_grad(gspec, z))

        def target(z):
            gh = h.grad(z)
            last["z"], last["gh"] = z, gh
            return model_grad(gspec, z) + gh

        eng = bdgm.custom_setup(x_tm, g0, B, L3_inner, cfg.eps,
                                inexact, target, c_delta=cfg.c_delta,
                                gamma=cfg.gamma)
        res = bdgm.solve(eng, cfg.inner_max_iters)
        # The engine answers either at the anchor or at the last point whose
        # target gradient it took.
        gh = last["gh"] if last.get("z") is res.z else gh_anchor
        return Answer(res.z, res.grad_at_z, res.iters, res.reason,
                      eng.grad_norm0, eng.hess_norm0, {"gh": gh})

    mid_iters = inner_total = 0
    peak_grad, peak_hess = ga_norm, 0.0
    for t, _ in accelerated_steps(subproblem, L3h, x_anchor, cfg,
                                  cfg.middle_k_max, warm):
        mid_iters += 1
        inner_total += t.inner_iters
        peak_grad = max(peak_grad, t.grad_anchor_norm)
        peak_hess = max(peak_hess, t.hess_anchor_norm)
        grad_f_T = g.grad(t.y) + t.extra["gh"]
        lhs = float(np.linalg.norm(t.grad_y))
        member = lhs <= cfg.gamma * float(np.linalg.norm(grad_f_T)) + abs_tol
        if member or t.reason in _TERMINAL:
            return Answer(t.y, grad_f_T, inner_total,
                          "certified" if member else "accuracy_floor",
                          peak_grad, peak_hess, {"mid_iters": mid_iters})
    raise bdgm.SubproblemError(
        f"middle loop exhausted {cfg.middle_k_max} iterations without "
        "reaching the outer membership set")


def solve_sliding(prob: CompositeProblem, x0: Vector,
                  cfg: NatmiConfig) -> SolveResult:
    """Three-level solve of f = g + h with g modeled and h kept exact.

    The outer loop is the single-function one with the window on L3_g, the
    dual update along the full gradient of f and each subproblem handed to
    the middle loop. The result's counts carry the per-component totals.
    With h the zero sentinel, the single-function builder runs on g.
    """
    g, h = prob.g, prob.h
    if h.is_zero:
        def measure(y: Vector) -> float:
            # The composite residual at an accepted iterate contains
            # grad h(y); it adds nothing here, but it is taken and counted.
            h.grad(y)
            return g.value(y)

        return outer_loop(oracle_subproblem(cfg, g), g.lipschitz_L3, x0, cfg,
                          g, lambda: prob.counts, measure)
    H_g = cfg.xi * g.lipschitz_L3
    mid_warm: dict = {}

    def subproblem(x_t: Vector) -> Answer:
        spec = ModelSpec(g, x_t, H_g)
        gf_anchor = spec.grad_anchor + h.grad(x_t)
        ga_norm = float(np.linalg.norm(gf_anchor))
        if ga_norm == 0.0:
            return Answer(x_t.copy(), gf_anchor, 0, "zero_gradient", 0.0, 0.0)
        return _middle_solve(cfg, prob, spec, x_t, ga_norm, mid_warm)

    return outer_loop(subproblem, g.lipschitz_L3, x0, cfg, prob,
                      lambda: prob.counts)
