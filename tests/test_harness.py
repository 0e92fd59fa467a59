"""Benchmark harness tests.

Config parsing and validation, the problem registry, trace writing and
re-reading, rate fitting on synthetic power laws, the reference Newton
optimum, the gradient-descent baseline, end-to-end runs for every method,
and the CLI exit-code contract.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperfast import cli, harness
from hyperfast.bdgm import SubproblemError
from hyperfast.harness import (
    BASE_COLUMNS,
    SLIDING_COLUMNS,
    ConfigError,
    DivergenceError,
    RunConfig,
    baseline_gd,
    build_run_config,
    config_echo,
    fit_rate,
    make_problem,
    parse_config_text,
    read_trace,
    reference_fstar,
    run,
    write_trace,
)
from hyperfast.natmi import IterationRecord
from hyperfast.oracles import ProblemOracle, SumOracle
from hyperfast.problems import QuarticObjective, make_quartic
from hyperfast.taylor import ModelError


class TestConfigParsing:
    def test_basic_mapping(self):
        text = "# run setup\nproblem = quartic1d\n\neps=1e-6\n"
        assert parse_config_text(text) == {"problem": "quartic1d", "eps": "1e-6"}

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("problem=x\njust words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("eps=1\neps=2\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("=3\n")

    def test_trailing_comment_stripped(self):
        text = "problem=quartic1d  # scalar\neps=1e-6 # tight\n"
        assert parse_config_text(text) == {"problem": "quartic1d", "eps": "1e-6"}


class TestBuildRunConfig:
    def test_defaults(self):
        cfg = build_run_config({"problem": "quartic1d"})
        assert cfg.method == "hyperfast"
        assert cfg.eps == 1e-8
        assert cfg.max_iters == 30
        assert cfg.gamma == pytest.approx(1.0 / 6.0)
        assert cfg.timing is False

    def test_method_aliases(self):
        for raw, canon in (("gd", "gd_baseline"), ("natmi-exact", "natmi_exact"),
                           ("natmi_exact", "natmi_exact"), ("sliding", "sliding")):
            cfg = build_run_config({"problem": "quartic1d", "method": raw})
            assert cfg.method == canon

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            build_run_config({"problem": "x", "method": "bfgs"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_run_config({"problem": "x", "epsodd": "1"})

    def test_problem_params_pass_through(self):
        cfg = build_run_config({"problem": "logreg", "problem.m": "50",
                                "problem.ridge": "1e-2"})
        assert cfg.problem_params == {"m": "50", "ridge": "1e-2"}

    def test_problem_required(self):
        with pytest.raises(ConfigError, match="must name a problem"):
            build_run_config({"eps": "1e-6"})

    def test_bad_numbers_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"problem": "x", "eps": "fast"})
        with pytest.raises(ConfigError, match="eps must be positive"):
            build_run_config({"problem": "x", "eps": "0"})
        with pytest.raises(ConfigError, match="max_iters"):
            build_run_config({"problem": "x", "max_iters": "0"})

    def test_timing_flag_forms(self):
        for raw, expect in (("on", True), ("true", True), ("1", True),
                            ("off", False), ("false", False), ("0", False)):
            cfg = build_run_config({"problem": "x", "timing": raw})
            assert cfg.timing is expect
        with pytest.raises(ConfigError, match="timing"):
            build_run_config({"problem": "x", "timing": "maybe"})


class TestProblemRegistry:
    def test_unknown_problem_lists_choices(self):
        with pytest.raises(ConfigError, match="quartic1d"):
            make_problem(RunConfig(problem="nope"))

    def test_quartic1d(self):
        b = make_problem(RunConfig(problem="quartic1d"))
        assert b.f_star == 0.0
        np.testing.assert_array_equal(b.x0, np.array([1.0]))
        assert b.single().value(np.zeros(1)) == 0.0

    def test_quadratic_fstar_is_analytic(self):
        b = make_problem(RunConfig(problem="quadratic",
                                   problem_params={"n": "6", "seed": "3"}))
        orc = b.single()
        x_star = np.linalg.solve(orc.Q, -orc.c)
        assert b.f_star == pytest.approx(float(orc.value(x_star)), rel=1e-12)
        assert np.linalg.norm(orc.grad(x_star)) <= 1e-10

    def test_logreg_fixture_reference_value(self):
        b = make_problem(RunConfig(problem="logreg_fixture"))
        assert b.f_star == pytest.approx(0.48643780650938095, rel=1e-15)
        assert b.single().dim == 20

    def test_sliding_bench_scale_ratio(self):
        b = make_problem(RunConfig(problem="sliding_bench"))
        g, h = b.parts
        assert g.lipschitz_L3 / h.lipschitz_L3 == pytest.approx(1e-3, rel=1e-12)
        assert b.composite().dim == 8

    def test_single_of_two_parts_is_a_sum(self):
        b = make_problem(RunConfig(problem="sliding_bench"))
        s = b.single()
        assert isinstance(s, SumOracle)
        x = np.full(8, 0.1)
        assert s.value(x) == pytest.approx(
            b.parts[0].value(x) + b.parts[1].value(x), rel=1e-15)

    def test_composite_of_single_part_pads_with_zero(self):
        b = make_problem(RunConfig(problem="quartic1d"))
        prob = b.composite()
        assert prob.h.is_zero
        assert prob.g.lipschitz_L3 == b.parts[0].lipschitz_L3

    def test_seed_changes_logreg_data(self):
        b1 = make_problem(RunConfig(problem="logreg", seed=1))
        b2 = make_problem(RunConfig(problem="logreg", seed=2))
        x = np.full(10, 0.1)
        assert b1.single().value(x) != b2.single().value(x)


def _toy_records(n=5):
    recs = []
    for k in range(1, n + 1):
        recs.append(IterationRecord(
            k=k, f=1.0 / k, grad_norm=0.5 ** k, step_radius=0.1, lam=2.0,
            A=float(k), inner_iters=3, n_grad=10 * k, n_hess=k,
            max_grad_norm=1.0, max_hess_norm=2.0, wall_ms=0.0,
            y=np.zeros(1)))
    return recs


class TestTraceIO:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, _toy_records(), {"problem": "toy", "eps": "1e-08"})
        rows = read_trace(path)
        assert len(rows) == 5
        assert list(rows[0]) == list(BASE_COLUMNS)
        for k, row in enumerate(rows, start=1):
            assert row["k"] == k
            assert row["f"] == 1.0 / k
            assert row["grad_norm"] == 0.5 ** k
            assert row["n_grad"] == 10 * k

    def test_header_echo_is_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, [], {"zeta": "1", "alpha": "2"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# alpha=2"
        assert lines[1] == "# zeta=1"
        assert lines[2] == ",".join(BASE_COLUMNS)

    def test_error_footer(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, _toy_records(2), {}, error="boom")
        text = path.read_text()
        assert text.rstrip().endswith("# ERROR: boom")
        assert len(read_trace(path)) == 2

    def test_seventeen_digit_floats(self, tmp_path):
        value = 0.48643780650938095
        rec = IterationRecord(k=1, f=value, grad_norm=0.0, step_radius=0.0,
                              lam=1.0, A=1.0, inner_iters=0, n_grad=1,
                              n_hess=1, max_grad_norm=0.0, max_hess_norm=0.0,
                              wall_ms=0.0, y=np.zeros(1))
        path = tmp_path / "t.csv"
        write_trace(path, [rec], {})
        assert read_trace(path)[0]["f"] == value


class TestFitRate:
    def test_quartic_power_law(self):
        rows = [(k, 2.0 + k ** -4.0) for k in range(1, 40)]
        assert fit_rate(rows, (3, 30), 2.0) == pytest.approx(-4.0, abs=1e-9)

    def test_seventh_power_law(self):
        rows = [{"k": k, "f": k ** -7.0} for k in range(1, 40)]
        assert fit_rate(rows, (3, 30), 0.0) == pytest.approx(-7.0, abs=1e-9)

    def test_attribute_records_accepted(self):
        recs = [IterationRecord(k=k, f=k ** -4.0, grad_norm=0.0,
                                step_radius=0.0, lam=1.0, A=1.0,
                                inner_iters=0, n_grad=0, n_hess=0,
                                max_grad_norm=0.0, max_hess_norm=0.0,
                                wall_ms=0.0)
                for k in range(1, 31)]
        assert fit_rate(recs, (3, 30), 0.0) == pytest.approx(-4.0, abs=1e-9)

    def test_points_at_reference_are_dropped(self):
        rows = [(k, k ** -4.0) for k in range(1, 31)]
        rows += [(31, 0.0), (32, 0.0)]
        assert fit_rate(rows, (3, 32), 0.0) == pytest.approx(-4.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="usable points"):
            fit_rate([(3, 1.0), (4, 0.5)], (3, 30), 0.0)

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            fit_rate([(1, 1.0)], (10, 10), 0.0)
        with pytest.raises(ValueError, match="window"):
            fit_rate([(1, 1.0)], (0, 5), 0.0)


class _NanObjective(ProblemOracle):
    """Objective that evaluates to NaN; only used to trip the baseline's
    no-decrease guard (a finite uphill direction stalls silently instead
    because tiny steps stop changing x in float64)."""

    def __init__(self):
        super().__init__(1, 1.0)

    def value(self, x):
        return math.nan

    def grad(self, x):
        return np.array([1.0])

    def hess(self, x):
        return np.array([[2.0]])


class TestReferenceFstar:
    def test_matches_analytic_quadratic(self):
        rng = np.random.default_rng(41)
        M = rng.standard_normal((4, 4))
        Q = M @ M.T + np.eye(4)
        c = rng.standard_normal(4)
        orc = make_quartic(Q, c, 0.0)
        expect = -0.5 * float(c @ np.linalg.solve(Q, c))
        assert reference_fstar(orc) == pytest.approx(expect, abs=1e-12)

    def test_indefinite_hessian_rejected(self):
        # Looks fine at the start point, then turns so indefinite that no
        # shift within the cap makes the factorization succeed.
        class BadCurvature(ProblemOracle):
            def __init__(self):
                super().__init__(1, 1.0)

            def value(self, x):
                return float(x[0])

            def grad(self, x):
                return np.array([1.0])

            def hess(self, x):
                if abs(float(x[0])) < 0.5:
                    return np.array([[1.0]])
                return np.array([[-1e30]])

        with pytest.raises(ModelError):
            reference_fstar(BadCurvature())


class TestBaselineGd:
    def test_hundred_rows_on_quadratic(self):
        rng = np.random.default_rng(42)
        M = rng.standard_normal((5, 5))
        orc = make_quartic(M @ M.T + 0.5 * np.eye(5), rng.standard_normal(5), 0.0)
        recs = baseline_gd(orc, np.zeros(5), 100)
        assert len(recs) == 100
        assert [r.k for r in recs] == list(range(1, 101))
        values = [r.f for r in recs]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert recs[-1].n_grad == 100

    def test_stationary_start_stops_early(self):
        orc = make_quartic(np.eye(2), np.zeros(2), 0.5)
        recs = baseline_gd(orc, np.zeros(2), 50)
        assert len(recs) == 1
        assert recs[0].reason == "stationary"
        assert recs[0].grad_norm == 0.0

    def test_nan_objective_raises(self):
        with pytest.raises(DivergenceError):
            baseline_gd(_NanObjective(), np.ones(1), 10)


class TestRun:
    def test_hyperfast_writes_trace_and_summary(self, tmp_path):
        cfg = build_run_config({
            "problem": "quartic1d", "eps": "1e-8", "max_iters": "12",
            "trace": str(tmp_path / "t.csv"),
            "summary": str(tmp_path / "s.txt")})
        out = run(cfg)
        assert out.records
        rows = read_trace(tmp_path / "t.csv")
        assert len(rows) == len(out.records)
        assert out.summary["final_f"] <= 1e-8
        assert out.summary["status"] in ("k_max", "accuracy_floor")
        assert math.isfinite(out.summary["slope"])
        assert out.summary["slope"] <= -4.0
        assert out.summary["r_hat"] == pytest.approx(1.0, abs=0.05)
        text = (tmp_path / "s.txt").read_text()
        assert "final_f=" in text and "config.problem=quartic1d" in text

    def test_natmi_exact_method(self):
        cfg = build_run_config({"problem": "quartic1d",
                                "method": "natmi-exact", "max_iters": "20"})
        out = run(cfg)
        assert out.summary["final_f"] <= 1e-9
        assert all(r.inner_iters == 0 for r in out.records)

    def test_gd_baseline_method(self, tmp_path):
        cfg = build_run_config({"problem": "quadratic", "method": "gd",
                                "max_iters": "40",
                                "trace": str(tmp_path / "g.csv")})
        out = run(cfg)
        assert out.summary["iters"] == 40
        rows = read_trace(tmp_path / "g.csv")
        assert len(rows) == 40
        assert list(rows[0]) == list(BASE_COLUMNS)

    def test_sliding_method_adds_component_columns(self, tmp_path):
        cfg = build_run_config({
            "problem": "sliding_bench", "method": "sliding",
            "eps": "1e-6", "max_iters": "2",
            "problem.n": "4", "problem.m": "20",
            "trace": str(tmp_path / "sl.csv")})
        out = run(cfg)
        rows = read_trace(tmp_path / "sl.csv")
        assert list(rows[0]) == list(SLIDING_COLUMNS)
        assert out.summary["n_hess_g"] > 0
        assert out.summary["n_hess_h"] > 0

    def test_sliding_timing_records_wall_time(self):
        cfg = build_run_config({
            "problem": "sliding_bench", "method": "sliding",
            "eps": "1e-6", "max_iters": "2", "timing": "on",
            "problem.n": "4", "problem.m": "20"})
        records = run(cfg).records
        assert records
        assert all(rec.wall_ms > 0.0 for rec in records)

    def test_invalid_regime_is_a_config_error(self):
        cfg = build_run_config({"problem": "quartic1d", "gamma": "0.5",
                                "xi": "1.0"})
        with pytest.raises(ConfigError, match="hypothesis"):
            run(cfg)

    def test_unknown_method_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown method"):
            run(RunConfig(problem="quartic1d", method="bogus"))

    def test_reruns_are_byte_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            cfg = build_run_config({
                "problem": "logreg", "problem.m": "40", "problem.n": "5",
                "eps": "1e-8", "max_iters": "5",
                "trace": str(tmp_path / name)})
            run(cfg)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_solver_failure_flushes_partial_trace(self, tmp_path, monkeypatch):
        partial = tuple(_toy_records(2))

        def boom(cfg, oracle, x0):
            exc = SubproblemError("forced failure")
            exc.records = partial
            raise exc

        monkeypatch.setattr(harness.natmi, "solve", boom)
        cfg = build_run_config({"problem": "quartic1d",
                                "trace": str(tmp_path / "p.csv")})
        with pytest.raises(SubproblemError):
            run(cfg)
        text = (tmp_path / "p.csv").read_text()
        assert "# ERROR: SubproblemError: forced failure" in text
        assert len(read_trace(tmp_path / "p.csv")) == 2


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        code = cli.main(["solve", "--problem", "quartic1d",
                         "--eps", "1e-6", "--max-iters", "5",
                         "--trace", str(tmp_path / "t.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "quartic1d" in out and "status" in out
        assert (tmp_path / "t.csv").exists()

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("problem=quartic1d\neps=1e-6\nmax_iters=3\n")
        code = cli.main(["solve", "--config", str(cfgfile),
                         "--method", "gd", "--max-iters", "4"])
        assert code == 0
        assert "gd_baseline" in capsys.readouterr().out

    def test_config_error_exit_two(self, capsys):
        assert cli.main(["solve", "--problem", "not_a_problem"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        assert cli.main(["solve", "--config", str(tmp_path / "none.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_regime_in_config_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("problem=quartic1d\ngamma=0.5\nxi=1.0\n")
        assert cli.main(["solve", "--config", str(cfgfile)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_solver_failure_exit_three(self, monkeypatch, capsys):
        def boom(cfg):
            raise SubproblemError("forced failure")

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["solve", "--problem", "quartic1d"]) == 3
        assert "solver failure" in capsys.readouterr().err


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("config, code, stderr_start", [
    ("problem=quartic1d\neps=1e-6 # tight\nmax_iters=3\n", 0, None),
    ("problem=logreg\nproblem.ridge=-1\n", 2, "config error: "),
    ("problem=quadratic\nproblem.n=0\n", 2, "config error: "),
    ("problem=quartic1d\neps=nan\n", 2, "config error: "),
    ("problem=quartic1d\neps=inf\n", 2, "config error: "),
    ("problem=quartic1d\nc_delta=nan\n", 2, "config error: "),
    ("problem=quartic1d\nc_delta=-1\n", 2, "config error: "),
    ("problem=quartic1d\ngrad_tol=nan\n", 2, "config error: "),
    ("problem=quartic1d\ngrad_tol=-1\n", 2, "config error: "),
    ("problem=quartic1d\nmethod=natmi_exact\nxi=nan\n", 2, "config error: "),
    ("problem=quartic1d\nmethod=sliding\nxi=inf\n", 2, "config error: "),
])
def test_cli_exit_codes(tmp_path, config, code, stderr_start):
    """The command line as a user runs it: exit code, and a bad config
    costs one stderr line and no traceback."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(config)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperfast.cli", "solve", "--config", str(cfgfile)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(_SRC)})
    assert proc.returncode == code, proc.stderr
    if stderr_start is None:
        assert proc.stderr == ""
    else:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(stderr_start)
        assert "Traceback" not in proc.stderr
