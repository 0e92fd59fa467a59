"""Benchmark plumbing: configs, problem registry, traces, fits, baselines.

Configuration is a flat key=value text format ('#' starts a comment, on a
line of its own or after a value). Traces are CSV with a '#'-prefixed block
echoing the configuration, then a bare column row and one row per outer
iteration, floats printed with 17 significant digits so reruns are
byte-comparable. The solvers always measure wall time; run keeps and
writes it as 0 unless timing is switched on, because measured times would
break the byte-identical determinism contract.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import natmi, sliding
from .natmi import IterationRecord, NatmiConfig, SolveResult, start_point
from .oracles import (ConfigError, ProblemOracle, SolverError, SumOracle, Vector,
                      ZeroOracle, counted, operator_norm)
from .problems import LogisticLoss, QuarticChain, QuarticObjective, synth_logreg
from .sliding import CompositeProblem
from .taylor import newton_min

BASE_COLUMNS = ("k", "f", "grad_norm", "step_radius", "lambda", "A",
                "inner_iters", "n_grad", "n_hess", "max_grad_norm",
                "max_hess_norm", "wall_ms")
SLIDING_COLUMNS = BASE_COLUMNS + ("n_grad_g", "n_hess_g", "n_grad_h",
                                  "n_hess_h", "n_third_g", "mid_iters")

_METHODS = ("hyperfast", "natmi_exact", "sliding", "gd_baseline")
_CLI_METHOD_ALIASES = {"natmi-exact": "natmi_exact", "gd": "gd_baseline"}


class DivergenceError(SolverError):
    """Baseline failed to make progress at any admissible step size."""


@dataclass(frozen=True)
class RunConfig:
    problem: str
    method: str = "hyperfast"
    eps: float = NatmiConfig.eps
    max_iters: int = 30
    grad_tol: float = NatmiConfig.grad_tol
    gamma: float = NatmiConfig.gamma
    xi: float = NatmiConfig.xi
    timing: bool = False
    trace_path: str | None = None
    summary_path: str | None = None
    problem_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r} "
                              f"(choose from {', '.join(_METHODS)})")
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ConfigError("max_iters must be an integer >= 1, "
                              f"got {self.max_iters!r}")
        # NatmiConfig checks the solver settings, for every method.
        _natmi_config(self)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; everything after a '#' is a comment, and lines
    left blank are skipped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


#: The numeric top-level keys and their types; RunConfig holds the defaults.
_NUMERIC_KEYS = {"eps": float, "max_iters": int, "grad_tol": float,
                 "gamma": float, "xi": float}
_SCALAR_KEYS = {"problem", "method", "timing", "trace", "summary", *_NUMERIC_KEYS}


def _number(kind, key: str, raw):
    """kind(str(raw)), int or float, for config key: a Python value is read
    as its text in a config file would be, so 2.7, 2.0 and True are no
    integers. A ConfigError that names the key and the bad value otherwise."""
    try:
        return kind(str(raw))
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {raw!r}") from exc


def build_run_config(mapping: dict[str, str]) -> RunConfig:
    """Typed RunConfig from a flat string mapping; problem.* keys pass
    through untouched for the problem builders."""
    problem_params = {}
    plain = {}
    for key, value in mapping.items():
        if key.startswith("problem."):
            problem_params[key[len("problem."):]] = value
        elif key in _SCALAR_KEYS:
            plain[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if "problem" not in plain:
        raise ConfigError("config must name a problem")
    given = {key: _number(kind, key, plain[key])
             for key, kind in _NUMERIC_KEYS.items() if key in plain}
    if "method" in plain:
        given["method"] = _CLI_METHOD_ALIASES.get(plain["method"], plain["method"])
    if "timing" in plain:
        timing_raw = str(plain["timing"]).lower()
        if timing_raw not in ("on", "off", "true", "false", "0", "1"):
            raise ConfigError(f"timing must be on/off, got {plain['timing']!r}")
        given["timing"] = timing_raw in ("on", "true", "1")
    return RunConfig(
        problem=plain["problem"], trace_path=plain.get("trace"),
        summary_path=plain.get("summary"), problem_params=problem_params, **given)


@dataclass(frozen=True)
class ProblemBundle:
    """A registered problem: one or two oracle parts, a start point, and
    the reference optimum when one is known."""

    parts: tuple
    x0: Vector
    f_star: float | None = None

    def single(self) -> ProblemOracle:
        if len(self.parts) == 1:
            return self.parts[0]
        return SumOracle(self.parts[0], self.parts[1])

    def composite(self) -> CompositeProblem:
        if len(self.parts) == 2:
            return CompositeProblem(self.parts[0], self.parts[1])
        part = self.parts[0]
        return CompositeProblem(part, ZeroOracle(part.dim))


def _quartic1d():
    oracle = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 0.25)
    return ProblemBundle((oracle,), np.array([1.0]), f_star=0.0)


def _quadratic(*, n: int, seed: int):
    if n < 1:
        raise ConfigError(f"problem.n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / math.sqrt(n)
    Q = M.T @ M + 0.1 * np.eye(n)
    c = rng.standard_normal(n)
    oracle = QuarticObjective(Q, c, 0.0)
    x_star = np.linalg.solve(Q, -c)
    f_star = float(0.5 * x_star @ (Q @ x_star) + c @ x_star)
    return ProblemBundle((oracle,), np.zeros(n), f_star=f_star)


def _quartic_chain(*, n: int):
    return ProblemBundle((QuarticChain(n),), np.ones(n), f_star=0.0)


def _logreg(*, m: int, n: int, ridge: float, seed: int):
    oracle = LogisticLoss(synth_logreg(seed, m, n), ridge=ridge)
    return ProblemBundle((oracle,), np.zeros(n), f_star=None)


def _logreg_fixture():
    oracle = LogisticLoss(synth_logreg(7, 200, 20), ridge=1e-3)
    # f* is 1 ulp from reference_fstar(oracle, tol=1e-13); TestReferenceFstar::
    # test_reproduces_committed_fixture_optimum checks it to a relative 1e-15.
    return ProblemBundle((oracle,), np.zeros(20), f_star=0.48643780650938095)


def _sliding_bench(*, m: int, n: int, seed: int):
    data = synth_logreg(seed, m, n)
    logistic = LogisticLoss(data, ridge=1e-3)
    h = SumOracle(logistic, QuarticObjective(np.zeros((n, n)), np.zeros(n), 0.5))
    # g's quartic coefficient is set from h's L3 so the ratio is exactly 1e-3.
    a4_g = 1e-3 * h.lipschitz_L3 / 6.0
    rng = np.random.default_rng(seed)
    Qg = np.diag(rng.uniform(0.5, 1.5, size=n))
    cg = 0.1 * rng.standard_normal(n)
    g = QuarticObjective(Qg, cg, a4_g)
    return ProblemBundle((g, h), np.zeros(n), f_star=None)


#: Registered problems: the builder and its problem.* keys with their
#: defaults, whose types (int or float) are the keys' types.
PROBLEMS = {
    "quartic1d": (_quartic1d, {}),
    "quadratic": (_quadratic, {"n": 10, "seed": 0}),
    "quartic_chain": (_quartic_chain, {"n": 4}),
    "logreg": (_logreg, {"m": 100, "n": 10, "ridge": 1e-3, "seed": 0}),
    "logreg_fixture": (_logreg_fixture, {}),
    "sliding_bench": (_sliding_bench, {"m": 40, "n": 8, "seed": 11}),
}


def make_problem(cfg: RunConfig) -> ProblemBundle:
    """The problem cfg names, built from cfg.problem_params; an unknown
    problem, a problem.* key its builder does not take (problem.seed on fixed
    data, say) or an inadmissible value is a ConfigError."""
    if cfg.problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {cfg.problem!r} "
                          f"(choose from {', '.join(sorted(PROBLEMS))})")
    builder, defaults = PROBLEMS[cfg.problem]
    unknown = sorted(set(cfg.problem_params) - set(defaults))
    if unknown:
        takes = ", ".join(f"problem.{key}" for key in defaults) or "none"
        raise ConfigError(f"problem {cfg.problem} has no parameter "
                          f"problem.{unknown[0]} (it takes: {takes})")
    params = {key: _number(type(defaults[key]), f"problem.{key}", raw)
              for key, raw in cfg.problem_params.items()}
    try:
        return builder(**{**defaults, **params})
    except ConfigError:
        raise
    except (ValueError, MemoryError) as exc:
        # Builders reject inadmissible parameters (a negative ridge, say)
        # with ValueError, and numpy refuses an oversized problem with
        # MemoryError; to the caller either is a configuration error.
        raise ConfigError(f"problem {cfg.problem}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _record_row(rec, columns) -> str:
    return ",".join(_fmt(getattr(rec, "lam" if col == "lambda" else col))
                    for col in columns)


def _write_lines(key: str, path: str, lines) -> None:
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write the {key} file {path}: {exc.strerror or exc}") from exc


def write_trace(path: str, records, config_echo: dict, columns=BASE_COLUMNS,
                error: str | None = None) -> None:
    """CSV trace: '#' config header (sorted keys), column row, data rows,
    and an error footer marker when a run failed mid-flight."""
    lines = [f"# {key}={config_echo[key]}" for key in sorted(config_echo)]
    lines.append(",".join(columns))
    lines.extend(_record_row(rec, columns) for rec in records)
    if error is not None:
        lines.append(f"# ERROR: {error}")
    _write_lines("trace", path, lines)


def read_trace(path: str):
    """Rows of a trace file as dicts of floats (header echo skipped)."""
    rows = []
    columns = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append(dict(zip(columns, (float(tok) for tok in line.split(",")))))
    return rows


def fit_rate(trace, k_window, f_star: float) -> float:
    """Least-squares slope of log(rec.f - f_star) against log(rec.k).

    Points inside [k_lo, k_hi] with f_k > f_star are used; anything at or
    below the reference value carries no rate information and is dropped.
    Fewer than 3 usable points is an error.
    """
    k_lo, k_hi = k_window
    if not k_hi > k_lo or k_lo < 1:
        raise ValueError(f"bad fit window [{k_lo}, {k_hi}]")
    ks, gaps = [], []
    for rec in trace:
        if k_lo <= rec.k <= k_hi and rec.f > f_star:
            ks.append(float(rec.k))
            gaps.append(float(rec.f) - f_star)
    if len(ks) < 3:
        raise ValueError(f"only {len(ks)} usable points in [{k_lo}, {k_hi}]")
    slope, _ = np.polyfit(np.log(np.asarray(ks)), np.log(np.asarray(gaps)), 1)
    return float(slope)


def reference_fstar(oracle: ProblemOracle, tol: float = 1e-13) -> float:
    """High-accuracy optimum value: f at taylor.newton_min's answer from zero,
    where ||grad f|| <= tol or at the float limit, past which no Newton step
    changes f. newton_min's ModelError (500 steps, a Hessian no shift makes
    positive definite, a failed line search) refuses the reference."""
    return float(oracle.value(newton_min(oracle.value, oracle.grad, oracle.hess,
                                         np.zeros(oracle.dim), tol, "objective")))


def baseline_gd(oracle: ProblemOracle, x0: Vector, steps: int) -> SolveResult:
    """Plain gradient descent with step 1/L1, each step timed.

    x0 passes natmi.start_point. L1 starts at the operator norm of the
    Hessian at x0, which must be finite, and doubles whenever a step fails
    to decrease the objective; an objective that never decreases even at
    vanishing steps (for instance one returning NaN) is divergence. Each
    record reports the gradient at its own point, which the next step
    reuses. The result has status "steps", f, grad_norm and the max_* norms
    of its last record, and counts of the oracle calls since it started.
    """
    co = counted(oracle)
    base = co.counts
    x = start_point(co, x0)
    H0 = co.hess(x)
    if not np.isfinite(H0).all():
        raise SolverError("non-finite Hessian at the start point")
    L1 = hess_norm = max(operator_norm(H0), 1e-12)
    f_cur = co.value(x)
    records = []
    try:
        g = co.grad(x)
        gn = G_max = float(np.linalg.norm(g))
        for k in range(1, steps + 1):
            t_start = time.perf_counter()
            step, radius = 1.0 / L1, 0.0
            if gn != 0.0:
                for _ in range(200):
                    step = 1.0 / L1
                    x_new = x - step * g
                    f_new = co.value(x_new)
                    if f_new <= f_cur:
                        break
                    L1 *= 2.0
                else:
                    raise DivergenceError("no decrease even at vanishing step size")
                x, f_cur, radius = x_new, f_new, step * gn
                g = co.grad(x)
                gn = float(np.linalg.norm(g))
                if not math.isfinite(gn):
                    raise SolverError(f"non-finite gradient after step {k}")
                G_max = max(G_max, gn)
            records.append(IterationRecord(
                k=k, f=f_cur, grad_norm=gn, step_radius=radius, lam=step,
                A=0.0, inner_iters=0, n_grad=co.n_grad - base["grad"],
                n_hess=co.n_hess - base["hess"], max_grad_norm=G_max,
                max_hess_norm=hess_norm,
                wall_ms=(time.perf_counter() - t_start) * 1e3,
                reason="gd" if gn != 0.0 else "stationary",
                n_value=co.n_value - base["value"], y=x.copy()))
            if gn == 0.0:
                break
    except SolverError as exc:
        exc.records = tuple(records)
        raise
    # steps >= 1, so there is at least one record.
    last = records[-1]
    return SolveResult(
        y=x, f=last.f, grad_norm=last.grad_norm, status="steps",
        converged=False, iters=len(records), records=tuple(records),
        sigma_max=0.0,
        counts={key: value - base[key] for key, value in co.counts.items()},
        max_grad_norm=last.max_grad_norm, max_hess_norm=last.max_hess_norm)


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """summary holds results only; the summary file adds config's echo.
    records are the run's IterationRecords with y set to None and, unless
    config.timing, wall_ms 0."""

    config: RunConfig
    records: tuple
    summary: dict


def _natmi_config(cfg: RunConfig, subsolver: str = "bdgm") -> NatmiConfig:
    return NatmiConfig(eps=cfg.eps, k_max=cfg.max_iters, gamma=cfg.gamma,
                       xi=cfg.xi, grad_tol=cfg.grad_tol, subsolver=subsolver)


def config_echo(cfg: RunConfig) -> dict:
    echo = {"problem": cfg.problem, "method": cfg.method,
            "timing": "on" if cfg.timing else "off"}
    echo.update((key, _fmt(getattr(cfg, key))) for key in _NUMERIC_KEYS)
    echo.update((f"problem.{key}", value) for key, value in cfg.problem_params.items())
    return echo


def run(cfg: RunConfig) -> RunOutcome:
    """Execute one configured run; write the trace and summary files.

    A ConfigError, from here or from a solver, comes before any output (a
    write refused after the solve excepted). A SolverError flushes the rows
    it carries as a partial trace with an error footer before it propagates.
    """
    bundle = make_problem(cfg)
    for key, path in (("trace", cfg.trace_path), ("summary", cfg.summary_path)):
        target = Path(path or ".")
        writable = os.access(target if target.exists() else target.parent, os.W_OK)
        if path and (target.is_dir() or not writable):
            raise ConfigError(f"cannot write the {key} file {path}")
    echo = config_echo(cfg)
    columns = SLIDING_COLUMNS if cfg.method == "sliding" else BASE_COLUMNS

    def kept(records) -> tuple:  # nothing reads y past r_hat
        return tuple(replace(rec, y=None, wall_ms=rec.wall_ms if cfg.timing else 0.0)
                     for rec in records)

    try:
        if cfg.method == "sliding":
            res = sliding.solve_sliding(bundle.composite(), bundle.x0,
                                        _natmi_config(cfg))
        elif cfg.method == "gd_baseline":
            res = baseline_gd(bundle.single(), bundle.x0, cfg.max_iters)
        else:
            sub = "bdgm" if cfg.method == "hyperfast" else "exact"
            res = natmi.solve(_natmi_config(cfg, sub), bundle.single(),
                              bundle.x0)
    except SolverError as exc:
        if cfg.trace_path:
            write_trace(cfg.trace_path, kept(exc.records), echo, columns,
                        error=f"{type(exc).__name__}: {exc}")
        raise
    records = res.records
    summary = dict(final_f=res.f, final_grad_norm=res.grad_norm,
                   iters=res.iters, status=res.status,
                   converged=int(res.converged), sigma_max=res.sigma_max,
                   max_grad_norm=res.max_grad_norm,
                   max_hess_norm=res.max_hess_norm)
    summary.update((f"n_{key}", value) for key, value in res.counts.items())
    summary["slope"] = math.nan
    if bundle.f_star is not None:
        with contextlib.suppress(ValueError):  # < 3 usable points
            summary["slope"] = fit_rate(records, (3, 30), bundle.f_star)
    # Proxy for the initial-set radius: distance actually travelled. It is
    # not claimed to equal the true distance to the optimum.
    summary["r_hat"] = (float(np.linalg.norm(records[-1].y - bundle.x0))
                        if records else 0.0)
    records = kept(records)
    if cfg.trace_path:
        write_trace(cfg.trace_path, records, echo, columns)
    if cfg.summary_path:
        written = {**summary, **{f"config.{key}": v for key, v in echo.items()}}
        lines = [f"{key}={_fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) else v}"
                 for key, v in sorted(written.items())]
        _write_lines("summary", cfg.summary_path, lines)
    return RunOutcome(config=cfg, records=records, summary=summary)
