"""Three-level scheme for objectives split as f = g + h.

The split pays off when g's third derivative varies much more slowly than
h's (L3_g << L3_h): the outer loop then models only g, paying one Hessian of
g per outer trial, and hands the composite subproblem

    min_y  [third-order model of g at the outer anchor](y) + h(y)

to a middle loop. The middle loop is the same accelerated scheme applied to
that sum: it starts at the previous middle answer T (at the outer anchor
for the first one), which usually lies nearer the new middle minimizer
than the outer anchor, so it mostly takes one step. It models h at its own
anchors (one Hessian of h per middle trial), keeps the cached g-model
exact, and stops as soon as its iterate meets the outer certificate. The
innermost level is the single-function builder, natmi.oracle_subproblem on
h, called with the cached g-model as a second part, minimizing [model of
h] + [model of g]; each middle trial after the first of its search starts
that solve at the previous trial's answer, as natmi.accelerated_steps
passes it. The outer level's builder ignores that start: each middle loop
already starts at the last middle answer. Each g-model evaluation takes
one analytic third-derivative action of g (counted as n_third_g; see
ROADMAP.md item 2). The engine is built for xi = 3/2 only.

Every level accepts on the paper's certificate ||grad m(y)|| <= gamma *
||grad f(y)||, with m that level's model. Outer windows use H = xi*L3_g and
middle windows H = xi*L3_h. Per-component call counters are the point of the
construction and are reported alongside the trace.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import bdgm
from .natmi import (
    NatmiConfig,
    SolveResult,
    Trial,
    accelerated_steps,
    oracle_subproblem,
    outer_loop,
)
from .oracles import ConfigError, ProblemOracle, SumOracle, Vector, counted
from .taylor import ModelSpec

#: Middle-loop steps allowed per outer trial before the solve fails.
_MIDDLE_K_MAX = 300


class CompositeProblem(SumOracle):
    """f = g + h, the sum of two counted oracles, the cheaper-to-model g first.

    Construction swaps the parts (with a warning) when g's L3 exceeds h's,
    so the modeled component is always the slowly-varying one. The zero
    sentinel is allowed only as h and keeps its position; it routes the
    solver through the degenerate single-function path.
    """

    def __init__(self, g: ProblemOracle, h: ProblemOracle):
        if g.is_zero:
            raise ValueError("the zero part must be passed second")
        if not h.is_zero and g.lipschitz_L3 > h.lipschitz_L3:
            warnings.warn("swapping composite parts so the smaller L3 "
                          "is modeled", stacklevel=2)
            g, h = h, g
        super().__init__(counted(g), counted(h))
        self.g, self.h = self.first, self.second

    @property
    def counts(self) -> dict[str, int]:
        return {f"{kind}_{part}": calls
                for part, oracle in (("g", self.g), ("h", self.h))
                for kind, calls in oracle.counts.items()}


def _middle_solve(cfg: NatmiConfig, prob: CompositeProblem, gspec: ModelSpec,
                  x_start: Vector, inner) -> Trial:
    """Accelerated loop on F_mid = [g-model at the outer anchor] + h from
    x_start until its iterate T meets the outer certificate ||grad F_mid(T)||
    <= gamma * ||grad f(T)||, with inner h's oracle_subproblem builder,
    which each middle trial calls with gspec as the model.

    Answers the outer trial with T, grad f(T), the inner iterations of all
    middle steps and reason "certified", or "accuracy_floor" when an
    accuracy_floor middle trial fails the certificate. Its anchor norms are
    the largest over every middle trial; the first is anchored at x_start.
    """
    mid_iters = inner_total = 0
    for t, _ in accelerated_steps(lambda x_tm, start: inner(x_tm, gspec, start),
                                  prob.h.lipschitz_L3, cfg.xi, x_start,
                                  _MIDDLE_K_MAX):
        mid_iters += 1
        inner_total += t.inner_iters
        grad_f_T = prob.g.grad(t.y) + t.part_grad
        lhs = float(np.linalg.norm(t.grad_y))
        member = lhs <= cfg.gamma * float(np.linalg.norm(grad_f_T))
        if member or t.reason == "accuracy_floor":
            return Trial(t.y, grad_f_T, inner_total,
                         "certified" if member else "accuracy_floor",
                         t.grad_anchor_norm, t.hess_anchor_norm,
                         mid_iters=mid_iters)
    raise bdgm.SubproblemError(
        f"middle loop exhausted {_MIDDLE_K_MAX} iterations without "
        "reaching the outer certificate")


def solve_sliding(prob: CompositeProblem, x0: Vector,
                  cfg: NatmiConfig) -> SolveResult:
    """Three-level solve of f = g + h with g modeled and h kept exact.

    The outer loop is the single-function one with the window on H =
    xi*L3_g, the dual update along the full gradient of f and each
    subproblem handed to the middle loop, whose inner solves are
    natmi.oracle_subproblem's on h plus g's model at the outer anchor.
    Each middle loop starts at the latest middle answer of the solve, from
    an accepted or a rejected outer trial alike; the first starts at the
    outer anchor. An outer trial's gradient anchor norm also takes
    ||grad f|| at the outer anchor, while its Hessian anchor norm covers
    its middle trials only: h has no Hessian at the outer anchor.
    The result's counts carry the per-component totals. With h the zero
    sentinel, that builder runs on g as the outer one. A subsolver other
    than "bdgm", a bad regime, gamma = 0 or xi != bdgm.XI is a ConfigError
    before any call. A failed inner certificate or outer contraction adds
    bdgm.l3_hint, on h or g, to its message.
    """
    if cfg.subsolver != "bdgm":
        raise ConfigError(f"sliding runs subsolver 'bdgm' only, got {cfg.subsolver!r}")
    g, h = prob.g, prob.h
    inner = oracle_subproblem(cfg, g if h.is_zero else h)
    if h.is_zero:
        return outer_loop(inner, x0, cfg, g, lambda: prob.counts)
    H_g = cfg.xi * g.lipschitz_L3
    last_T = None

    def subproblem(x_t: Vector, start: Vector | None = None) -> Trial:
        nonlocal last_T
        spec = ModelSpec(g, x_t, H_g)
        gf_norm = float(np.linalg.norm(spec.grad_anchor + h.grad(x_t)))
        t = _middle_solve(cfg, prob, spec, x_t if last_T is None else last_T, inner)
        last_T = t.y
        return t._replace(grad_anchor_norm=max(t.grad_anchor_norm, gf_norm))

    return outer_loop(subproblem, x0, cfg, prob, lambda: prob.counts)
