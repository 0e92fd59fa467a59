"""Benchmark plumbing: configs, problem registry, traces, fits, baselines.

Configuration is a flat key=value text format ('#' starts a comment, on a
line of its own or after a value). Traces are CSV with a '#'-prefixed block
echoing the configuration, then a bare column row and one row per outer
iteration, floats printed with 17 significant digits so reruns are
byte-comparable. Wall-clock columns are written as 0 unless
timing is switched on, because measured times would break the byte-identical
determinism contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import natmi, sliding
from .bdgm import SubproblemError
from .natmi import IterationRecord, LambdaSearchError, NatmiConfig
from .oracles import ProblemOracle, SumOracle, Vector, ZeroOracle, counted
from .problems import LogisticLoss, QuarticChain, QuarticObjective, synth_logreg
from .sliding import CompositeProblem
from .taylor import ModelError, newton_step

BASE_COLUMNS = ("k", "f", "grad_norm", "step_radius", "lambda", "A",
                "inner_iters", "n_grad", "n_hess", "max_grad_norm",
                "max_hess_norm", "wall_ms")
SLIDING_COLUMNS = BASE_COLUMNS + ("n_grad_g", "n_hess_g", "n_grad_h",
                                  "n_hess_h", "n_third_g", "mid_iters")

_METHODS = ("hyperfast", "natmi_exact", "sliding", "gd_baseline")
_CLI_METHOD_ALIASES = {"hyperfast": "hyperfast", "natmi-exact": "natmi_exact",
                       "natmi_exact": "natmi_exact", "sliding": "sliding",
                       "gd": "gd_baseline", "gd_baseline": "gd_baseline"}

_FSTAR_PATH = Path(__file__).with_name("fstar_fixture.json")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class DivergenceError(RuntimeError):
    """Baseline failed to make progress at any admissible step size."""


@dataclass(frozen=True)
class RunConfig:
    problem: str
    method: str = "hyperfast"
    eps: float = 1e-8
    max_iters: int = 30
    grad_tol: float = 0.0
    gamma: float = 1.0 / 6.0
    xi: float = 1.5
    c_delta: float = 1.0
    seed: int = 0
    timing: bool = False
    trace_path: str | None = None
    summary_path: str | None = None
    problem_params: dict = field(default_factory=dict)


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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


_SCALAR_KEYS = {"problem", "method", "eps", "max_iters", "grad_tol", "gamma",
                "xi", "c_delta", "seed", "timing", "trace", "summary"}


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
    method = _CLI_METHOD_ALIASES.get(plain.get("method", "hyperfast"))
    if method is None:
        raise ConfigError(f"unknown method {plain.get('method')!r} "
                          f"(choose from {', '.join(_METHODS)})")

    def _float(key, default):
        try:
            return float(plain.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {plain[key]!r}") from exc

    def _int(key, default):
        try:
            return int(plain.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {plain[key]!r}") from exc

    timing_raw = str(plain.get("timing", "off")).lower()
    if timing_raw not in ("on", "off", "true", "false", "0", "1"):
        raise ConfigError(f"timing must be on/off, got {plain['timing']!r}")
    cfg = RunConfig(
        problem=plain["problem"], method=method,
        eps=_float("eps", 1e-8), max_iters=_int("max_iters", 30),
        grad_tol=_float("grad_tol", 0.0), gamma=_float("gamma", 1.0 / 6.0),
        xi=_float("xi", 1.5), c_delta=_float("c_delta", 1.0),
        seed=_int("seed", 0), timing=timing_raw in ("on", "true", "1"),
        trace_path=plain.get("trace"), summary_path=plain.get("summary"),
        problem_params=problem_params)
    # Written as "not (...)" so that NaN, which fails every comparison, is
    # rejected too.
    if not (0.0 < cfg.eps < math.inf):
        raise ConfigError(f"eps must be positive and finite, got {cfg.eps}")
    if not (0.0 < cfg.c_delta < math.inf):
        raise ConfigError(f"c_delta must be positive and finite, got {cfg.c_delta}")
    if not (0.0 <= cfg.grad_tol < math.inf):
        raise ConfigError(f"grad_tol must be >= 0 and finite, got {cfg.grad_tol}")
    if cfg.max_iters < 1:
        raise ConfigError(f"max_iters must be >= 1, got {cfg.max_iters}")
    return cfg


@dataclass(frozen=True)
class ProblemBundle:
    """A registered problem: one or two oracle parts, a start point, and
    the reference optimum when one is known."""

    name: str
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


def fixture_fstar(name: str) -> float | None:
    if not _FSTAR_PATH.exists():
        return None
    table = json.loads(_FSTAR_PATH.read_text())
    return table.get(name)


def _p_int(params, key, default):
    try:
        return int(params.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"problem.{key} must be an integer") from exc


def _p_float(params, key, default):
    try:
        return float(params.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"problem.{key} must be a number") from exc


def _quartic1d(params, seed):
    oracle = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 0.25)
    return ProblemBundle("quartic1d", (oracle,), np.array([1.0]), f_star=0.0)


def _quadratic(params, seed):
    n = _p_int(params, "n", 10)
    if n < 1:
        raise ConfigError(f"problem.n must be >= 1, got {n}")
    rng = np.random.default_rng(_p_int(params, "seed", seed))
    M = rng.standard_normal((n, n)) / math.sqrt(n)
    Q = M.T @ M + 0.1 * np.eye(n)
    c = rng.standard_normal(n)
    oracle = QuarticObjective(Q, c, 0.0)
    x_star = np.linalg.solve(Q, -c)
    f_star = float(0.5 * x_star @ (Q @ x_star) + c @ x_star)
    return ProblemBundle("quadratic", (oracle,), np.zeros(n), f_star=f_star)


def _quartic_chain(params, seed):
    n = _p_int(params, "n", 4)
    oracle = QuarticChain(n)
    return ProblemBundle("quartic_chain", (oracle,), np.ones(n), f_star=0.0)


def _logreg(params, seed):
    m = _p_int(params, "m", 100)
    n = _p_int(params, "n", 10)
    ridge = _p_float(params, "ridge", 1e-3)
    data_seed = _p_int(params, "seed", seed)
    data = synth_logreg(data_seed, m, n)
    oracle = LogisticLoss(data, ridge=ridge)
    return ProblemBundle("logreg", (oracle,), np.zeros(n), f_star=None)


def _logreg_fixture(params, seed):
    data = synth_logreg(7, 200, 20)
    oracle = LogisticLoss(data, ridge=1e-3)
    return ProblemBundle("logreg_fixture", (oracle,), np.zeros(20),
                         f_star=fixture_fstar("logreg_fixture"))


def _sliding_bench(params, seed):
    n = _p_int(params, "n", 8)
    m = _p_int(params, "m", 40)
    bench_seed = _p_int(params, "seed", 11)
    data = synth_logreg(bench_seed, m, n)
    logistic = LogisticLoss(data, ridge=1e-3)
    h = SumOracle(logistic, QuarticObjective(np.zeros((n, n)), np.zeros(n), 0.5))
    # g's quartic coefficient is set from h's L3 so the ratio is exactly 1e-3.
    a4_g = 1e-3 * h.lipschitz_L3 / 6.0
    rng = np.random.default_rng(bench_seed)
    Qg = np.diag(rng.uniform(0.5, 1.5, size=n))
    cg = 0.1 * rng.standard_normal(n)
    g = QuarticObjective(Qg, cg, a4_g)
    return ProblemBundle("sliding_bench", (g, h), np.zeros(n), f_star=None)


PROBLEMS = {
    "quartic1d": _quartic1d,
    "quadratic": _quadratic,
    "quartic_chain": _quartic_chain,
    "logreg": _logreg,
    "logreg_fixture": _logreg_fixture,
    "sliding_bench": _sliding_bench,
}


def make_problem(cfg: RunConfig) -> ProblemBundle:
    builder = PROBLEMS.get(cfg.problem)
    if builder is None:
        raise ConfigError(f"unknown problem {cfg.problem!r} "
                          f"(choose from {', '.join(sorted(PROBLEMS))})")
    try:
        return builder(cfg.problem_params, cfg.seed)
    except ConfigError:
        raise
    except ValueError as exc:
        # Builders reject inadmissible parameters (a negative ridge, say)
        # with ValueError; to the caller that is a configuration error.
        raise ConfigError(f"problem {cfg.problem}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _record_row(rec, columns) -> str:
    return ",".join(_fmt(getattr(rec, "lam" if col == "lambda" else col))
                    for col in columns)


def write_trace(path: str, records, config_echo: dict, columns=BASE_COLUMNS,
                error: str | None = None) -> None:
    """CSV trace: '#' config header (sorted keys), column row, data rows,
    and an error footer marker when a run failed mid-flight."""
    lines = [f"# {key}={config_echo[key]}" for key in sorted(config_echo)]
    lines.append(",".join(columns))
    lines.extend(_record_row(rec, columns) for rec in records)
    if error is not None:
        lines.append(f"# ERROR: {error}")
    Path(path).write_text("\n".join(lines) + "\n")


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
    """Least-squares slope of log(f_k - f_star) against log k.

    Points inside [k_lo, k_hi] with f_k > f_star are used; anything at or
    below the reference value carries no rate information and is dropped.
    Fewer than 3 usable points is an error.
    """
    k_lo, k_hi = k_window
    if not k_hi > k_lo or k_lo < 1:
        raise ValueError(f"bad fit window [{k_lo}, {k_hi}]")
    ks, gaps = [], []
    for rec in trace:
        if isinstance(rec, dict):
            k, f = rec["k"], rec["f"]
        elif hasattr(rec, "k"):
            k, f = rec.k, rec.f
        else:
            k, f = rec[0], rec[1]
        if k_lo <= k <= k_hi and f > f_star:
            ks.append(float(k))
            gaps.append(float(f) - f_star)
    if len(ks) < 3:
        raise ValueError(f"only {len(ks)} usable points in [{k_lo}, {k_hi}]")
    slope, _ = np.polyfit(np.log(np.asarray(ks)), np.log(np.asarray(gaps)), 1)
    return float(slope)


def reference_fstar(oracle: ProblemOracle, budget: int = 500,
                    tol: float = 1e-13) -> float:
    """High-accuracy optimum value by damped Newton from zero.

    Runs until ||grad f|| <= tol; exhausting the budget is an error so a
    silently sloppy reference can never leak into fixtures.
    """
    x = np.zeros(oracle.dim)
    scale = 1.0 + float(np.linalg.norm(oracle.hess(x)))
    for _ in range(budget):
        g = oracle.grad(x)
        if float(np.linalg.norm(g)) <= tol:
            return float(oracle.value(x))
        x = x + newton_step(oracle.value, g, oracle.hess(x), x, scale,
                            "objective")[0]
    raise ModelError(f"reference optimum not reached in {budget} Newton steps")


def baseline_gd(oracle: ProblemOracle, x0: Vector, steps: int):
    """Plain gradient descent with step 1/L1.

    L1 is estimated once by power iteration on the Hessian at x0 (a fixed
    deterministic start vector, no randomness) and doubled whenever a step
    fails to decrease the objective; an objective that never decreases even
    at vanishing steps (for instance one returning NaN) is divergence.
    """
    co = counted(oracle)
    base_grad, base_hess, base_value = co.n_grad, co.n_hess, co.n_value
    x = np.array(x0, dtype=np.float64)
    H0 = co.hess(x)
    v = np.ones(co.dim) / math.sqrt(co.dim)
    for _ in range(50):
        w = H0 @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        v = w / nw
    L1 = max(float(np.linalg.norm(H0 @ v)), 1e-12)
    hess_norm = L1
    f_cur = co.value(x)
    records = []
    G_max = 0.0
    for k in range(1, steps + 1):
        g = co.grad(x)
        gn = float(np.linalg.norm(g))
        G_max = max(G_max, gn)
        if gn == 0.0:
            records.append(IterationRecord(
                k=k, f=f_cur, grad_norm=0.0, step_radius=0.0, lam=1.0 / L1,
                A=0.0, inner_iters=0, n_grad=co.n_grad - base_grad,
                n_hess=co.n_hess - base_hess, max_grad_norm=G_max,
                max_hess_norm=hess_norm, wall_ms=0.0, reason="stationary",
                n_value=co.n_value - base_value, y=x.copy()))
            break
        for _ in range(200):
            step = 1.0 / L1
            x_new = x - step * g
            f_new = co.value(x_new)
            if f_new <= f_cur:
                break
            L1 *= 2.0
        else:
            raise DivergenceError("no decrease even at vanishing step size")
        x, f_cur = x_new, f_new
        records.append(IterationRecord(
            k=k, f=f_cur, grad_norm=gn, step_radius=step * gn, lam=step,
            A=0.0, inner_iters=0, n_grad=co.n_grad - base_grad,
            n_hess=co.n_hess - base_hess, max_grad_norm=G_max,
            max_hess_norm=hess_norm, wall_ms=0.0, reason="gd",
            n_value=co.n_value - base_value, y=x.copy()))
    return records


@dataclass(frozen=True)
class RunOutcome:
    config: RunConfig
    records: tuple
    summary: dict
    trace_path: str | None
    summary_path: str | None


def _natmi_config(cfg: RunConfig, subsolver: str = "bdgm") -> NatmiConfig:
    return NatmiConfig(eps=cfg.eps, k_max=cfg.max_iters, gamma=cfg.gamma,
                       xi=cfg.xi, c_delta=cfg.c_delta, grad_tol=cfg.grad_tol,
                       subsolver=subsolver, timing=cfg.timing)


def config_echo(cfg: RunConfig) -> dict:
    echo = {
        "problem": cfg.problem, "method": cfg.method, "eps": _fmt(cfg.eps),
        "max_iters": cfg.max_iters, "grad_tol": _fmt(cfg.grad_tol),
        "gamma": _fmt(cfg.gamma), "xi": _fmt(cfg.xi),
        "c_delta": _fmt(cfg.c_delta), "seed": cfg.seed,
        "timing": "on" if cfg.timing else "off",
    }
    for key, value in cfg.problem_params.items():
        echo[f"problem.{key}"] = value
    return echo


def run(cfg: RunConfig) -> RunOutcome:
    """Execute one configured run; write the trace and summary files.

    Solver failures still flush the partial trace with an error footer
    before the exception propagates.
    """
    if cfg.method in ("hyperfast", "natmi_exact", "sliding"):
        report = natmi.validate_params(_natmi_config(cfg))
        if not report.ok:
            raise ConfigError("invalid solver parameters: "
                              + "; ".join(report.violations))
    bundle = make_problem(cfg)
    echo = config_echo(cfg)
    columns = SLIDING_COLUMNS if cfg.method == "sliding" else BASE_COLUMNS
    records: tuple = ()
    summary: dict = {}
    try:
        if cfg.method in ("hyperfast", "natmi_exact", "sliding"):
            if cfg.method == "sliding":
                res = sliding.solve_sliding(bundle.composite(), bundle.x0,
                                            _natmi_config(cfg))
            else:
                sub = "bdgm" if cfg.method == "hyperfast" else "exact"
                res = natmi.solve(_natmi_config(cfg, sub), bundle.single(),
                                  bundle.x0)
            records = res.records
            summary.update(final_f=res.f, final_grad_norm=res.grad_norm,
                           iters=res.iters, status=res.status,
                           converged=int(res.converged),
                           sigma_max=res.sigma_max,
                           max_grad_norm=res.max_grad_norm,
                           max_hess_norm=res.max_hess_norm)
            summary.update((f"n_{key}", value) for key, value in res.counts.items())
        elif cfg.method == "gd_baseline":
            records = tuple(baseline_gd(bundle.single(), bundle.x0,
                                        cfg.max_iters))
            last = records[-1] if records else None
            summary.update(
                final_f=last.f if last else math.nan,
                final_grad_norm=last.grad_norm if last else math.nan,
                iters=len(records), status="steps", converged=0,
                sigma_max=0.0,
                n_grad=last.n_grad if last else 0,
                n_hess=last.n_hess if last else 0,
                max_grad_norm=last.max_grad_norm if last else 0.0,
                max_hess_norm=last.max_hess_norm if last else 0.0)
        else:
            raise ConfigError(f"unknown method {cfg.method!r}")
    except (LambdaSearchError, SubproblemError, ModelError,
            DivergenceError) as exc:
        records = tuple(getattr(exc, "records", ()))
        if cfg.trace_path:
            write_trace(cfg.trace_path, records, echo, columns,
                        error=f"{type(exc).__name__}: {exc}")
        raise
    slope = math.nan
    if bundle.f_star is not None and len(records) >= 3:
        try:
            slope = fit_rate(records, (3, 30), bundle.f_star)
        except ValueError:
            slope = math.nan
    summary["slope"] = slope
    # Proxy for the initial-set radius: distance actually travelled. It is
    # not claimed to equal the true distance to the optimum.
    summary["r_hat"] = (float(np.linalg.norm(records[-1].y - bundle.x0))
                        if records else 0.0)
    for key, value in echo.items():
        summary[f"config.{key}"] = value
    if cfg.trace_path:
        write_trace(cfg.trace_path, records, echo, columns)
    if cfg.summary_path:
        lines = [f"{key}={_fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) else v}"
                 for key, v in sorted(summary.items())]
        Path(cfg.summary_path).write_text("\n".join(lines) + "\n")
    return RunOutcome(config=cfg, records=records, summary=summary,
                      trace_path=cfg.trace_path, summary_path=cfg.summary_path)
