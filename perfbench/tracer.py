"""Span tracing of hyperfast's public entry points, done from outside the package.

A Tracer rebinds each traced function on every hyperfast module that holds it,
so by-name imports (``sliding.search_lambda``, ``sliding.model_grad``) are
traced as well, and wraps the ``CountedOracle`` methods, labelling each call
with the composite part (g or h) its oracle belongs to. ``uninstall`` puts the
original functions back. Spans are kept in memory, one per call: name, role,
start, end, parent index and a small result digest.

``layer_metrics`` turns the spans of one solve into per-layer counts and
self times. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import NamedTuple

# Outcomes that end a window search without an accepted step.
TERMINAL = ("zero_gradient", "accuracy_floor")

_ORACLE_METHODS = {"value": "value", "grad": "grad", "hess": "hess",
                   "third_action": "third", "third_dir": "third"}


class Span:
    __slots__ = ("name", "role", "parent", "start", "end", "info")

    def __init__(self, name, role, parent):
        self.name = name
        self.role = role
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._roles: dict[int, str] = {}
        self._parts: tuple = ()
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, role_of=None, digest=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, role_of(args[0]) if role_of else "",
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if digest is not None:
                span.info = digest(result)
            return result

        return traced

    def _bind_everywhere(self, module, attr, name, digest=None):
        """Wrap module.attr and rebind every hyperfast module alias of it."""
        original = getattr(module, attr)
        traced = self._wrap(original, name, digest=digest)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hyperfast" and not mod_name.startswith("hyperfast."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, traced)

    def _oracle_role(self, oracle) -> str:
        return self._roles.get(id(oracle.inner), "f")

    def _note_problem(self, bundle):
        # CompositeProblem models the part with the smaller L3 as g.
        parts = tuple(bundle.parts)
        self._parts = parts  # keeps the parts alive, so their ids stay unique
        self._roles = {}
        if len(parts) == 2:
            g, h = sorted(parts, key=lambda p: (p.is_zero, p.lipschitz_L3))
            self._roles = {id(g): "g", id(h): "h"}
        return None

    def install(self) -> None:
        from hyperfast import bdgm, harness, natmi, oracles, sliding, taylor

        self._bind_everywhere(harness, "run", "harness.run")
        self._bind_everywhere(harness, "make_problem", "harness.make_problem",
                              digest=self._note_problem)
        self._bind_everywhere(harness, "write_trace", "harness.write_trace")
        self._bind_everywhere(natmi, "solve", "solver")
        self._bind_everywhere(sliding, "solve_sliding", "solver")
        self._bind_everywhere(natmi, "search_lambda", "natmi.search_lambda",
                              digest=lambda res: (res[1], res[0].reason))
        for attr in ("setup", "custom_setup", "approx_grad", "bregman_step",
                     "fd_third_action"):
            self._bind_everywhere(bdgm, attr, f"bdgm.{attr}")
        self._bind_everywhere(bdgm, "solve", "bdgm.solve",
                              digest=lambda res: res.iters)
        for attr in ("model_grad", "model_hess", "model_value"):
            self._bind_everywhere(taylor, attr, f"taylor.{attr}")
        cls = oracles.CountedOracle
        for attr, kind in _ORACLE_METHODS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"oracles.{kind}",
                                          role_of=self._oracle_role))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._parts = ()
        self._roles = {}

    def take_spans(self) -> list[Span]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


class Agg(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    digests: list


def _stats(spans) -> dict[tuple, Agg]:
    """Aggregate spans by (name, role, search depth)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    rows: dict[tuple, list] = {}
    for i, span in enumerate(spans):
        depth = 0
        if span.name == "natmi.search_lambda":
            j = i
            while j >= 0:
                depth += spans[j].name == "natmi.search_lambda"
                j = spans[j].parent
        row = rows.setdefault((span.name, span.role, depth), [0, 0.0, 0.0, []])
        dur = span.end - span.start
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
        if span.info is not None:
            row[3].append(span.info)
    return {key: Agg(*row) for key, row in rows.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, sliding_method: bool) -> tuple[dict, dict]:
    """Per-layer metrics of one traced solve.

    Returns (metrics, counts): metrics maps metric name to value; counts
    holds the oracle calls seen per (kind, role), for comparison with the
    program's own counters. Search depth 1 is the outer window search,
    depth 2 the sliding middle loop's.
    """
    st = _stats(spans)

    def pick(*names, role=None, depth=None) -> Agg:
        rows = [v for (n, r, d), v in st.items() if n in names
                and (role is None or r == role) and (depth is None or d == depth)]
        return Agg(sum(v.calls for v in rows), sum(v.total_s for v in rows),
                   sum(v.self_s for v in rows), [x for v in rows for x in v.digests])

    run = pick("harness.run")
    if run.calls != 1:
        raise ValueError(f"expected one harness.run span, got {run.calls}")
    outer = pick("natmi.search_lambda", depth=1)
    middle = pick("natmi.search_lambda", depth=2)
    outer_iters = sum(1 for _, reason in outer.digests if reason not in TERMINAL)
    outer_trials = sum(trials for trials, _ in outer.digests)
    middle_trials = sum(trials for trials, _ in middle.digests)
    setup = pick("bdgm.setup", "bdgm.custom_setup")
    solve = pick("bdgm.solve")
    inner_iters = sum(solve.digests)
    approx = pick("bdgm.approx_grad")
    breg = pick("bdgm.bregman_step")
    grad = pick("oracles.grad")
    third = pick("oracles.third")
    model_grad = pick("taylor.model_grad")
    counts = {(kind, role): pick(f"oracles.{kind}", role=role).calls
              for kind in ("value", "grad", "hess", "third")
              for role in ("f", "g", "h")}

    metrics = {
        "harness.self_s": run.self_s + pick("harness.write_trace").total_s,
        "natmi.outer_iters": outer_iters,
        "natmi.lambda_trials": outer_trials,
        "natmi.accept_ratio": _ratio(outer_iters, outer_trials),
        "bdgm.setups": setup.calls,
        "bdgm.setup_s": setup.total_s,
        "bdgm.setup_self_s": setup.self_s,
        "bdgm.inner_iters": inner_iters,
        "bdgm.inner_per_setup": _ratio(inner_iters, setup.calls),
        "bdgm.fd_third_calls": pick("bdgm.fd_third_action").calls,
        "bdgm.approx_grad_calls": approx.calls,
        "bdgm.approx_grad_self_s": approx.self_s,
        "bdgm.solve_self_s": solve.self_s,
        "bdgm.bregman_steps": breg.calls,
        "bdgm.bregman_self_s": breg.self_s,
        "bdgm.bregman_us_per_step": 1e6 * _ratio(breg.self_s, breg.calls),
        "oracles.grad_s": grad.total_s,
        "oracles.hess_s": pick("oracles.hess").total_s,
        "oracles.value_s": pick("oracles.value").total_s,
        "oracles.third_s": third.total_s,
        "oracles.grad_us_per_call": 1e6 * _ratio(grad.total_s, grad.calls),
        "oracles.third_calls": third.calls,
        "oracles.grad_calls_g": counts["grad", "g"],
        "oracles.grad_calls_h": counts["grad", "h"],
        "oracles.hess_calls_g": counts["hess", "g"],
        "oracles.hess_calls_h": counts["hess", "h"],
        "oracles.third_calls_g": counts["third", "g"],
        "taylor.model_grad_calls": model_grad.calls,
        "taylor.model_grad_s": model_grad.total_s,
        "taylor.model_hess_calls": pick("taylor.model_hess").calls,
        "sliding.outer_trials": outer_trials if sliding_method else 0,
        "sliding.middle_iters": middle.calls,
        "sliding.middle_trials": middle_trials,
        "sliding.middle_accept_ratio": _ratio(middle.calls, middle_trials),
        "sliding.middle_s": middle.total_s,
        # The solver entry points are traced only to split harness time from
        # solver time; their self time is the loop code no layer span covers.
        "trace.uncovered_frac": _ratio(pick("solver").self_s, run.total_s),
    }
    return metrics, counts
