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
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hyperfast import cli, harness, natmi, sliding
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
from hyperfast.natmi import IterationRecord, NatmiConfig
from hyperfast.oracles import ProblemOracle, SumOracle
from hyperfast.problems import LogisticLoss, QuarticObjective, synth_logreg
from hyperfast.taylor import ModelError, newton_min

_GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_absent_keys_take_run_config_defaults(self):
        assert build_run_config({"problem": "quartic1d"}) == RunConfig(problem="quartic1d")

    @pytest.mark.parametrize("problem", sorted(harness.PROBLEMS))
    def test_every_problem_takes_every_run_config_default(self, problem):
        built = build_run_config({"problem": problem})
        default = RunConfig(problem=problem)
        for f in fields(RunConfig):
            assert getattr(built, f.name) == getattr(default, f.name), f.name

    def test_method_and_timing_defaults_live_in_run_config(self, monkeypatch):
        """build_run_config writes no default of its own, so a changed
        dataclass default reaches config files and the CLI."""

        @dataclass(frozen=True)
        class Shifted(RunConfig):
            method: str = "sliding"
            timing: bool = True

        monkeypatch.setattr(harness, "RunConfig", Shifted)
        cfg = build_run_config({"problem": "quartic1d"})
        assert (cfg.method, cfg.timing) == ("sliding", True)

    @pytest.mark.parametrize("key, value, what", [
        ("eps", "fast", "a number"), ("max_iters", "1.5", "an integer"),
        ("problem.n", "four", "an integer"), ("problem.ridge", "tiny", "a number"),
    ])
    def test_bad_number_names_key_and_value(self, key, value, what):
        cfg = {"problem": "logreg", key: value}
        with pytest.raises(ConfigError) as info:
            make_problem(build_run_config(cfg))
        assert str(info.value) == f"{key} must be {what}, got {value!r}"

    @pytest.mark.parametrize("field, value", [
        ("eps", math.nan), ("eps", 0.0), ("grad_tol", math.nan),
        ("max_iters", 0), ("max_iters", 2.5), ("xi", math.inf),
        ("gamma", math.nan),
    ])
    def test_direct_construction_validated(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(problem="quartic1d", **{field: value})

    def test_unknown_method_refused_at_construction(self):
        # The same refusal whether the method comes from a config or from
        # Python: the config's two spellings map to names RunConfig checks.
        message = ("unknown method 'bogus' (choose from hyperfast, "
                   "natmi_exact, sliding, gd_baseline)")
        for make in (lambda: RunConfig(problem="quartic1d", method="bogus"),
                     lambda: build_run_config({"problem": "quartic1d",
                                               "method": "bogus"})):
            with pytest.raises(ConfigError) as info:
                make()
            assert str(info.value) == message
        assert build_run_config({"problem": "quartic1d",
                                 "method": "natmi-exact"}).method == "natmi_exact"

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
        b1 = make_problem(RunConfig(problem="logreg", problem_params={"seed": "1"}))
        b2 = make_problem(RunConfig(problem="logreg", problem_params={"seed": "2"}))
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


def _rows(pairs):
    """Minimal records with the k and f attributes fit_rate reads."""
    return [SimpleNamespace(k=k, f=f) for k, f in pairs]


class TestFitRate:
    def test_quartic_power_law(self):
        rows = _rows((k, 2.0 + k ** -4.0) for k in range(1, 40))
        assert fit_rate(rows, (3, 30), 2.0) == pytest.approx(-4.0, abs=1e-9)

    def test_seventh_power_law(self):
        rows = _rows((k, k ** -7.0) for k in range(1, 40))
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
        rows = _rows([(k, k ** -4.0) for k in range(1, 31)]
                     + [(31, 0.0), (32, 0.0)])
        assert fit_rate(rows, (3, 32), 0.0) == pytest.approx(-4.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="usable points"):
            fit_rate(_rows([(3, 1.0), (4, 0.5)]), (3, 30), 0.0)

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            fit_rate(_rows([(1, 1.0)]), (10, 10), 0.0)
        with pytest.raises(ValueError, match="window"):
            fit_rate(_rows([(1, 1.0)]), (0, 5), 0.0)


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
        orc = QuarticObjective(Q, c, 0.0)
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

    def test_reproduces_committed_fixture_optimum(self):
        bundle = make_problem(build_run_config({"problem": "logreg_fixture"}))
        fstar = reference_fstar(bundle.single(), tol=1e-13)
        assert fstar == pytest.approx(bundle.f_star, rel=1e-15, abs=0.0)

    def test_stops_where_newton_min_stops(self):
        # A quartic whose optimum value, -461.18, is large beside its
        # curvature: Newton steps stop lowering f in float64 while ||grad f||
        # is still 1.5e-6, and the reference is f at that point.
        orc = _offset_quartic(34)
        x = newton_min(orc.value, orc.grad, orc.hess, np.zeros(orc.dim), 1e-8,
                       "objective")
        assert np.linalg.norm(orc.grad(x)) > 1e-6
        assert reference_fstar(orc, tol=1e-8) == orc.value(x)

    @pytest.mark.parametrize("problem", [
        {"problem": "logreg", "problem.m": "200", "problem.n": "20",
         "problem.seed": "3007"},
        {"problem": "logreg", "problem.m": "200", "problem.n": "20",
         "problem.seed": "5007"},
        {"problem": "sliding_bench", "problem.seed": "2011"},
        8,
    ], ids=["logreg-3007", "logreg-5007", "sliding_bench-2011", "quartic-offset"])
    def test_default_tol_returns_at_the_float_limit(self, problem):
        """The default tol 1e-13 lies below what Newton steps reach on these
        (an int is an _offset_quartic seed), so the reference stops at the
        float limit, no more than 4*eps*|f| above its value at tol 1e-8."""
        orc = (_offset_quartic(problem) if isinstance(problem, int)
               else make_problem(build_run_config(problem)).single())
        coarse = reference_fstar(orc, tol=1e-8)
        assert reference_fstar(orc) <= coarse + 4.0 * np.finfo(float).eps * abs(coarse)


def _offset_quartic(seed):
    """A 4-dim quartic with its linear term scaled by 100, so its optimum
    value is large beside its curvature."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    return QuarticObjective(M.T @ M + np.eye(4), 100.0 * rng.standard_normal(4), 1.0)


class TestBaselineGd:
    def test_hundred_rows_on_quadratic(self):
        rng = np.random.default_rng(42)
        M = rng.standard_normal((5, 5))
        orc = QuarticObjective(M @ M.T + 0.5 * np.eye(5), rng.standard_normal(5), 0.0)
        recs = baseline_gd(orc, np.zeros(5), 100).records
        assert len(recs) == 100
        assert [r.k for r in recs] == list(range(1, 101))
        values = [r.f for r in recs]
        assert all(b <= a for a, b in zip(values, values[1:]))
        # One gradient at the start and one at each step's new point.
        assert recs[-1].n_grad == 101

    def test_result_carries_the_last_record_and_every_call(self):
        orc = LogisticLoss(synth_logreg(1, 30, 4), ridge=1e-3)
        res = baseline_gd(orc, np.zeros(4), 12)
        last = res.records[-1]
        assert (res.status, res.converged, res.iters, res.sigma_max) == ("steps", False, 12, 0.0)
        assert (res.f, res.grad_norm) == (last.f, last.grad_norm)
        assert (res.max_grad_norm, res.max_hess_norm) == (last.max_grad_norm, last.max_hess_norm)
        assert res.f == orc.value(res.y)
        # One Hessian for L1, a gradient at the start and at each step's
        # new point, and a value at the start and at each step's trial points.
        assert {k: res.counts[k] for k in ("grad", "hess", "third")} == {
            "grad": last.n_grad, "hess": last.n_hess, "third": 0}
        assert (last.n_grad, last.n_hess) == (13, 1)
        assert res.counts["value"] >= 13

    def test_each_row_reports_the_gradient_at_its_point(self):
        bundle = make_problem(RunConfig(problem="logreg_fixture"))
        orc = bundle.single()
        res = baseline_gd(orc, bundle.x0, 30)
        for rec in res.records:
            assert rec.grad_norm == float(np.linalg.norm(orc.grad(rec.y)))
        assert res.grad_norm == float(np.linalg.norm(orc.grad(res.y)))
        # L1 is the operator norm of the start Hessian.
        assert res.max_hess_norm == float(
            np.max(np.abs(np.linalg.eigvalsh(orc.hess(bundle.x0)))))

    def test_stationary_start_stops_early(self):
        orc = QuarticObjective(np.eye(2), np.zeros(2), 0.5)
        recs = baseline_gd(orc, np.zeros(2), 50).records
        assert len(recs) == 1
        assert recs[0].grad_norm == 0.0

    def test_nan_objective_raises(self):
        with pytest.raises(DivergenceError):
            baseline_gd(_NanObjective(), np.ones(1), 10)

    def test_non_finite_start_hessian_exits_three(self, monkeypatch, tmp_path, capsys):
        # Checked before L1 is taken: numpy's eigvalsh can return finite
        # eigenvalues for a matrix with a NaN entry.
        clean = LogisticLoss.hess

        def hess(self, x):
            H = clean(self, x).copy()
            H[0, 0] = math.nan
            return H

        monkeypatch.setattr(LogisticLoss, "hess", hess)
        trace = tmp_path / "t.csv"
        assert cli.main(["solve", "--problem", "logreg_fixture", "--method", "gd",
                         "--trace", str(trace)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "solver failure: non-finite Hessian at the start point"]
        assert trace.read_text().splitlines()[-1] == (
            "# ERROR: SolverError: non-finite Hessian at the start point")
        assert read_trace(trace) == []


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

    def test_kept_outcome_is_small(self, tmp_path):
        """A kept outcome holds its records in slots, without iterates, and
        its summary holds results only; the summary file still echoes the
        whole config."""
        cfg = build_run_config({
            "problem": "logreg", "problem.m": "40", "problem.n": "4",
            "max_iters": "3", "summary": str(tmp_path / "s.txt")})
        out = run(cfg)
        assert out.records
        for obj in (out, *out.records):
            assert not hasattr(obj, "__dict__")
        assert all(rec.y is None for rec in out.records)
        assert not [key for key in out.summary if key.startswith("config.")]
        lines = (tmp_path / "s.txt").read_text().splitlines()
        echo = [line for line in lines if line.startswith("config.")]
        assert echo == [f"config.{key}={value}"
                        for key, value in sorted(config_echo(cfg).items())]
        assert len(lines) == len(out.summary) + len(echo)

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

    @pytest.mark.parametrize("method", ["hyperfast", "natmi_exact", "sliding",
                                        "gd_baseline"])
    def test_timing_records_wall_time(self, method):
        cfg = build_run_config({
            "problem": "sliding_bench", "method": method,
            "eps": "1e-6", "max_iters": "2", "timing": "on",
            "problem.n": "4", "problem.m": "20"})
        records = run(cfg).records
        assert records
        assert all(rec.wall_ms > 0.0 for rec in records)

    def test_solvers_always_measure_wall_time(self):
        # Timing is the harness's setting: every solver's records carry the
        # measured time.
        cfg = build_run_config({"problem": "sliding_bench", "problem.n": "4",
                                "problem.m": "20"})
        bundle = make_problem(cfg)
        for res in (natmi.solve(NatmiConfig(eps=1e-6, k_max=2), bundle.single(), bundle.x0),
                    sliding.solve_sliding(bundle.composite(), bundle.x0,
                                          NatmiConfig(eps=1e-6, k_max=2)),
                    baseline_gd(bundle.single(), bundle.x0, 2)):
            assert res.records
            assert all(rec.wall_ms > 0.0 for rec in res.records)

    @pytest.mark.parametrize("method", ["hyperfast", "gd_baseline"])
    def test_timing_off_keeps_and_writes_zero_wall_time(self, tmp_path, method):
        cfg = build_run_config({"problem": "logreg_fixture", "method": method,
                                "max_iters": "3", "trace": str(tmp_path / "t.csv")})
        records = run(cfg).records
        assert len(records) == 3
        assert all(rec.wall_ms == 0.0 for rec in records)
        assert [row["wall_ms"] for row in read_trace(tmp_path / "t.csv")] == [0.0] * 3

    @pytest.mark.parametrize("timing, written", [("off", 0.0), ("on", 5.0)])
    def test_partial_trace_wall_time_follows_timing(self, tmp_path, monkeypatch,
                                                    timing, written):
        timed = tuple(replace(rec, wall_ms=5.0) for rec in _toy_records(2))

        def boom(cfg, oracle, x0):
            exc = SubproblemError("forced failure")
            exc.records = timed
            raise exc

        monkeypatch.setattr(harness.natmi, "solve", boom)
        cfg = build_run_config({"problem": "quartic1d", "timing": timing,
                                "trace": str(tmp_path / "p.csv")})
        with pytest.raises(SubproblemError):
            run(cfg)
        assert [row["wall_ms"] for row in read_trace(tmp_path / "p.csv")] == [written] * 2

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


class TestNonFiniteGradient:
    """A NaN gradient in the middle of a solve stops it at once with a
    SubproblemError that names it, instead of failing later in a radius
    solve. The clean run makes 151 gradients and 8 steps, the 7th ending
    at gradient 85, so a NaN from call 100 on fails step 8's search."""

    @pytest.fixture
    def nan_from_call_100(self, monkeypatch):
        clean = LogisticLoss.grad
        calls = [0]

        def grad(self, x):
            calls[0] += 1
            g = clean(self, x)
            return g * math.nan if calls[0] >= 100 else g

        monkeypatch.setattr(LogisticLoss, "grad", grad)

    def test_partial_trace_keeps_error_footer(self, tmp_path, nan_from_call_100):
        trace = tmp_path / "t.csv"
        with pytest.raises(SubproblemError, match="non-finite"):
            run(build_run_config({"problem": "logreg_fixture", "eps": "1e-9",
                                  "trace": str(trace)}))
        last = trace.read_text().splitlines()[-1]
        assert last.startswith("# ERROR: SubproblemError: non-finite")
        assert len(read_trace(trace)) == 7

    def test_cli_exit_three(self, nan_from_call_100, capsys):
        assert cli.main(["solve", "--problem", "logreg_fixture",
                         "--eps", "1e-9"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("solver failure: non-finite")


class TestNonFinitePoint:
    """A non-finite gradient under gd is a solver failure as soon as it is
    taken, at the end of the step whose point it belongs to: exit 3 with
    one stderr line, and a trace that keeps the clean rows before it and
    ends in the error footer. The 6th gradient is the one after step 5."""

    @pytest.mark.parametrize("method, golden, first_nan_call, n_rows", [
        ("gd", "logreg_fixture_gd", 6, 4),
    ])
    def test_cli_exit_three_with_partial_trace(self, tmp_path, monkeypatch, capsys,
                                               method, golden, first_nan_call, n_rows):
        clean = LogisticLoss.grad
        calls = [0]

        def grad(self, x):
            calls[0] += 1
            g = clean(self, x)
            return g * math.nan if calls[0] >= first_nan_call else g

        monkeypatch.setattr(LogisticLoss, "grad", grad)
        trace = tmp_path / "t.csv"
        assert cli.main(["solve", "--problem", "logreg_fixture", "--method", method,
                         "--eps", "1e-9", "--trace", str(trace)]) == 3
        message = f"non-finite gradient after step {n_rows + 1}"
        assert capsys.readouterr().err.splitlines() == [f"solver failure: {message}"]
        text = trace.read_text()
        assert text.splitlines()[-1] == f"# ERROR: SolverError: {message}"
        assert "nan" not in text
        assert read_trace(trace) == read_trace(_GOLDEN / f"{golden}.trace")[:n_rows]


class TestNonFiniteExact:
    """natmi_exact checks its oracle values as the inexact engine does: a
    NaN gradient at an anchor or at an answer is a SubproblemError that
    names it, exit 3 with one stderr line, and a trace of the clean rows
    before it, ending in the error footer. Each step takes the anchor
    gradient, then the answer gradient, once per lambda trial."""

    @pytest.mark.parametrize("first_nan_call, n_rows, message", [
        pytest.param(5, 1, "non-finite gradient or Hessian at the anchor", id="anchor-5"),
        pytest.param(6, 1, "non-finite target gradient at the answer", id="answer-6"),
        pytest.param(20, 5, "non-finite target gradient at the answer", id="answer-20"),
    ])
    def test_cli_exit_three_names_the_nan(self, tmp_path, monkeypatch, capsys,
                                          first_nan_call, n_rows, message):
        clean = LogisticLoss.grad
        calls = [0]

        def grad(self, x):
            calls[0] += 1
            g = clean(self, x)
            return g * math.nan if calls[0] >= first_nan_call else g

        monkeypatch.setattr(LogisticLoss, "grad", grad)
        trace = tmp_path / "t.csv"
        assert cli.main(["solve", "--problem", "logreg_fixture", "--method",
                         "natmi-exact", "--eps", "1e-9", "--trace", str(trace)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"solver failure: {message}"]
        text = trace.read_text()
        assert text.splitlines()[-1] == f"# ERROR: SubproblemError: {message}"
        assert "nan" not in text
        golden = read_trace(_GOLDEN / "logreg_fixture_natmi_exact.trace")
        assert read_trace(trace) == golden[:n_rows]


class TestEighFailure:
    """A LinAlgError from the anchor Hessian's eigendecomposition in the
    middle of a solve is a numeric failure like any other: SubproblemError,
    the partial trace with its error footer, and exit 3."""

    @pytest.fixture
    def eigh_fails_from_call_10(self, monkeypatch):
        clean = np.linalg.eigh
        calls = [0]

        def eigh(a, *args, **kwargs):
            calls[0] += 1
            if calls[0] >= 10:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return clean(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    def test_partial_trace_keeps_error_footer(self, tmp_path, eigh_fails_from_call_10):
        trace = tmp_path / "t.csv"
        with pytest.raises(SubproblemError, match="eigendecomposition"):
            run(build_run_config({"problem": "logreg_fixture", "eps": "1e-9",
                                  "trace": str(trace)}))
        last = trace.read_text().splitlines()[-1]
        assert last.startswith("# ERROR: SubproblemError: anchor Hessian "
                               "eigendecomposition failed")
        assert 0 < len(read_trace(trace)) < 14

    def test_cli_exit_three(self, eigh_fails_from_call_10, capsys):
        assert cli.main(["solve", "--problem", "logreg_fixture",
                         "--eps", "1e-9"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("solver failure: anchor Hessian "
                                   "eigendecomposition failed")


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

    def test_seed_flag_overrides_config_file(self, tmp_path, capsys):
        # --seed writes problem.seed, so it overrides the file's value like
        # every other flag overrides its key.
        outputs = {}
        for seed in ("3", "5"):
            cfgfile = tmp_path / f"seed{seed}.cfg"
            cfgfile.write_text(f"problem=logreg\nproblem.seed={seed}\nmax_iters=3\n")
            assert cli.main(["solve", "--config", str(cfgfile)]) == 0
            outputs[seed] = capsys.readouterr().out
        assert outputs["3"] != outputs["5"]
        assert cli.main(["solve", "--config", str(tmp_path / "seed3.cfg"),
                         "--seed", "5"]) == 0
        assert capsys.readouterr().out == outputs["5"]

    def test_seed_flag_is_problem_seed_on_sliding_bench(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("problem=sliding_bench\nmethod=sliding\neps=1e-10\n"
                           "problem.seed=36\n")
        assert cli.main(["solve", "--config", str(cfgfile)]) == 0
        expected = capsys.readouterr().out
        assert "iters = 3, status = accuracy_floor" in expected
        assert cli.main(["solve", "--problem", "sliding_bench", "--method",
                         "sliding", "--eps", "1e-10", "--seed", "36"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("problem", ["quartic1d", "logreg_fixture",
                                         "quartic_chain"])
    def test_seed_flag_refused_where_no_problem_seed(self, problem, capsys):
        assert cli.main(["solve", "--problem", problem, "--seed", "5"]) == 2
        assert (f"problem {problem} has no parameter problem.seed"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("flag, value", [
        ("--method", "natmi_exact"), ("--method", "gd_baseline"),
        ("--method", "bogus"), ("--eps", "abc"), ("--eps", "nan"),
        ("--max-iters", "2.5"), ("--max-iters", "0"), ("--seed", "x"),
        ("--seed", "5"),
    ])
    def test_flag_parses_as_its_config_key(self, tmp_path, capsys, flag, value):
        # A flag writes its key as text, so it runs or is refused exactly as
        # the same line in a config file, with the one-line error.
        key = {"--method": "method", "--eps": "eps", "--max-iters": "max_iters",
               "--seed": "problem.seed"}[flag]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"problem=quartic1d\n{key}={value}\n")

        def outcome(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        by_flag = outcome(["solve", "--problem", "quartic1d", flag, value])
        assert by_flag == outcome(["solve", "--config", str(cfgfile)])
        code, captured = by_flag
        if code == 2:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: ")

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "quartic1d", "--eps", "-1e-6"],
        ["solve", "--problem", "quartic1d", "--eps"],
        ["solve", "--problem", "quartic1d", "--epss", "1"],
        ["solve", "--problem", "quartic1d", "--max", "5"],
        [],
    ])
    def test_bad_command_line_is_one_config_error_line(self, capsys, argv):
        # argparse's own refusals (a value that looks like a flag, a missing
        # value, an unknown or abbreviated flag, no subcommand) print the one
        # config error line too, not a usage block.
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", "--help"])
        assert info.value.code == 0
        assert "--max-iters" in capsys.readouterr().out

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "latin1.cfg"
        cfgfile.write_bytes("problem=quartic1d\n# caf\u00e9\n".encode("latin-1"))
        assert cli.main(["solve", "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: cannot read config {cfgfile}: 'utf-8' codec can't "
            "decode byte 0xe9 in position 23: invalid continuation byte"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("flag", ["--summary", "--trace"])
    def test_full_device_exit_two(self, capsys, flag):
        """/dev/full passes the writability check before the solve, and
        refuses the write after it."""
        assert cli.main(["solve", "--problem", "quartic1d", "--max-iters", "2",
                         flag, "/dev/full"]) == 2
        key = flag.lstrip("-")
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot write the {key} file /dev/full: "
            "No space left on device"]

    @pytest.mark.parametrize("argv", [
        ["--problem", "logreg", "--eps", "1e300", "--max-iters", "2"],
        ["--problem", "logreg", "--method", "sliding", "--eps", "1e300",
         "--max-iters", "2"],
        ["--problem", "sliding_bench", "--method", "sliding", "--eps", "1e300",
         "--max-iters", "2"],
        ["--problem", "logreg", "--eps", "1e200", "--max-iters", "2"],
    ], ids=["1e300", "1e300-sliding", "1e300-sliding-bench", "1e200"])
    def test_huge_eps_stops_at_the_floor(self, capsys, argv):
        """An eps whose budget eps^1.5 overflows float64 (1e300), or whose
        difference step's square does (1e200), puts the anchor at the
        accuracy floor: exit 0, with no traceback and no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.rstrip().endswith("iters = 0, status = accuracy_floor")

    def test_huge_ridge_stops_at_the_floor(self, tmp_path, capsys):
        """A ridge of 1e300 puts the anchor Hessian's norm^1.5 past float64,
        which puts the anchor at the accuracy floor as a huge eps does."""
        cfgfile = tmp_path / "ridge.cfg"
        cfgfile.write_text("problem=logreg\nproblem.ridge=1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", str(cfgfile)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.rstrip().endswith("iters = 0, status = accuracy_floor")

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
    ("problem=logreg\nproblem.ridge=nan\n", 2, "config error: "),
    ("problem=logreg\nproblem.ridge=inf\n", 2, "config error: "),
    ("problem=quadratic\nproblem.n=0\n", 2, "config error: "),
    ("problem=quartic1d\neps=nan\n", 2, "config error: "),
    ("problem=quartic1d\neps=inf\n", 2, "config error: "),
    ("problem=quartic1d\nc_delta=nan\n", 2, "config error: "),
    ("problem=quartic1d\nc_delta=-1\n", 2, "config error: "),
    ("problem=quartic1d\ngrad_tol=nan\n", 2, "config error: "),
    ("problem=quartic1d\ngrad_tol=-1\n", 2, "config error: "),
    ("problem=quartic1d\nmethod=natmi_exact\nxi=nan\n", 2, "config error: "),
    ("problem=quartic1d\nmethod=sliding\nxi=inf\n", 2, "config error: "),
    ("problem=quartic1d\nmethod=gd\nxi=nan\n", 2, "config error: "),
    ("problem=quadratic\nproblem.n=100000000\n", 2, "config error: "),
    ("problem=quartic1d\nxi=7\n", 2, "config error: "),
    ("problem=quartic1d\nmethod=sliding\nxi=7\n", 2, "config error: "),
    ("problem=quartic1d\nproblem.nn=5\n", 2, "config error: "),
    ("problem=logreg\nproblem.rigde=5\n", 2, "config error: "),
    ("problem=quartic1d\ngamma=0\n", 2, "config error: "),
    ("problem=quartic1d\nmethod=natmi_exact\ngamma=0\n", 2, "config error: "),
    ("problem=sliding_bench\nmethod=sliding\ngamma=0\n", 2, "config error: "),
    ("problem=sliding_bench\nmethod=sliding\nxi=2\n", 2, "config error: "),
    ("problem=sliding_bench\nseed=5\n", 2, "config error: "),
    ("problem=logreg_fixture\nseed=5\n", 2, "config error: "),
    ("problem=quartic1d\nseed=5\n", 2, "config error: "),
    ("problem=quartic_chain\nseed=5\n", 2, "config error: "),
    ("problem=quartic_chain\nproblem.n=60\nmethod=natmi_exact\n", 2,
     "config error: "),
    ("problem=quartic1d\ntrace={tmp}/missing/t.csv\n", 2, "config error: "),
    ("problem=quartic1d\ntrace={tmp}/t.csv\nsummary={tmp}/missing/s.txt\n", 2,
     "config error: "),
    ("problem=quartic1d\nsummary={tmp}\n", 2, "config error: "),
])
def test_cli_exit_codes(tmp_path, config, code, stderr_start):
    """The command line as a user runs it: exit code, and a bad config
    costs one stderr line and no traceback, and is refused before any
    output file is written. {tmp} in a config stands for tmp_path."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(config.replace("{tmp}", str(tmp_path)))
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
    if code == 2:
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
