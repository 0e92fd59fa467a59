"""Outer accelerated loop tests.

Parameter-regime validation, the step-weight accumulator identity, the
acceptance window search (exercised against synthetic trial curves, drawn
power and kinked curves included, and real solves), per-record invariants,
and end-to-end convergence checks on quadratic, quartic, and logistic
problems.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperfast import bdgm, cli, harness, natmi
from hyperfast.bdgm import SubproblemError
from hyperfast.harness import reference_fstar
from hyperfast.natmi import (
    LambdaSearchError,
    NatmiConfig,
    Trial,
    WINDOW_HI,
    WINDOW_LO,
    search_lambda,
    solve,
    step_weight,
    validate_params,
)
from hyperfast.oracles import ConfigError, CountedOracle, SolverError
from hyperfast.problems import (
    Dataset,
    LogisticLoss,
    QuarticChain,
    QuarticObjective,
    sampled_l3,
    synth_logreg,
)
from hyperfast.sliding import CompositeProblem, solve_sliding
from hyperfast.taylor import ModelSpec, model_grad

from crosschecks import assert_paper_invariants


class TestValidateParams:
    def test_default_regime_sigma_is_three_fifths(self):
        rep = validate_params(NatmiConfig())
        assert rep.ok
        assert rep.sigma == 0.6

    def test_unregularized_regime_sigma_is_half(self):
        rep = validate_params(NatmiConfig(gamma=0.0, xi=1.0))
        assert rep.ok
        assert rep.sigma == 0.5

    def test_large_gamma_rejected(self):
        rep = validate_params(NatmiConfig(gamma=0.5, xi=1.0))
        assert not rep.ok
        assert any("hypothesis" in v for v in rep.violations)

    def test_gamma_out_of_range_rejected(self):
        assert not validate_params(NatmiConfig(gamma=1.0)).ok
        assert not validate_params(NatmiConfig(gamma=-0.1)).ok

    def test_small_xi_rejected(self):
        assert not validate_params(NatmiConfig(xi=0.5)).ok

    def test_solve_refuses_bad_regime(self):
        orc = QuarticObjective(np.eye(1), np.ones(1), 0.5)
        with pytest.raises(ValueError):
            solve(NatmiConfig(gamma=0.5, xi=1.0), orc, np.ones(1))
        # validate_params admits gamma = 0, but no subproblem answer can be
        # certified with it, so every solve would stop at its start point.
        for subsolver in ("bdgm", "exact"):
            with pytest.raises(ValueError, match="gamma"):
                solve(NatmiConfig(gamma=0.0, subsolver=subsolver), orc,
                      np.ones(1))

    def test_inexact_engine_refuses_other_xi(self):
        # The engine's step scale and ball are derived for xi = 3/2; the
        # exact subsolver takes any admissible xi.
        orc = QuarticObjective(np.eye(1), np.ones(1), 0.5)
        with pytest.raises(ValueError, match="xi"):
            solve(NatmiConfig(xi=7.0), orc, np.ones(1))
        assert solve(NatmiConfig(xi=7.0, subsolver="exact", k_max=2), orc,
                     np.ones(1)).iters >= 1

    def test_solve_refuses_unknown_subsolver(self):
        orc = QuarticObjective(np.eye(1), np.ones(1), 0.5)
        with pytest.raises(ValueError):
            solve(NatmiConfig(subsolver="cg"), orc, np.ones(1))

    @pytest.mark.parametrize("field, value", [
        ("eps", 0.0), ("eps", math.nan), ("k_max", 2.5), ("k_max", 0),
        ("k_max", -3), ("grad_tol", math.nan), ("subsolver", "cg"),
    ])
    def test_bad_setting_refused_before_any_call(self, field, value):
        # NatmiConfig refuses what the command line refuses, so a bad
        # setting costs no oracle call.
        orc = CountedOracle(QuarticObjective(np.eye(1), np.ones(1), 0.5))
        with pytest.raises(ConfigError, match=field):
            solve(NatmiConfig(**{field: value}), orc, np.ones(1))
        assert orc.counts == {"value": 0, "grad": 0, "hess": 0, "third": 0}

    @pytest.mark.parametrize("x0", [np.ones(3), np.ones((2, 1)),
                                    np.array([1.0, math.nan])],
                             ids=["long", "column", "nan"])
    @pytest.mark.parametrize("method", ["bdgm", "exact", "sliding", "gd"])
    def test_bad_start_point_refused_before_any_call(self, method, x0):
        # Every solver passes x0 through natmi.start_point, the objective's
        # point rule, so a wrong shape or a non-finite entry is a setting
        # error and costs no call, gd's start Hessian included.
        g = QuarticObjective(np.eye(2), np.ones(2), 0.01)
        h = QuarticObjective(np.eye(2), -np.ones(2), 0.5)
        if method == "sliding":
            prob = CompositeProblem(g, h)
            run = functools.partial(solve_sliding, prob, x0, NatmiConfig())
        elif method == "gd":
            prob = CountedOracle(h)
            run = functools.partial(harness.baseline_gd, prob, x0, 5)
        else:
            prob = CountedOracle(h)
            run = functools.partial(solve, NatmiConfig(subsolver=method), prob, x0)
        with pytest.raises(ConfigError, match="x0"):
            run()
        assert not any(prob.counts.values())


class TestStepWeight:
    def test_accumulator_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            lam = float(10.0 ** rng.uniform(-6, 6))
            A = float(10.0 ** rng.uniform(-6, 6))
            a = step_weight(lam, A)
            assert a > 0.0
            assert a * a == pytest.approx(lam * (A + a), rel=1e-12)

    def test_zero_accumulator(self):
        assert step_weight(2.0, 0.0) == pytest.approx(2.0, rel=1e-15)


#: The message of a search that exhausts its trials; the weight behind w is
#: not the search's, so it names only the last trial.
_SEARCH_FAILED = (r"^window not hit within 60 trials \(last lambda = \S+, "
                  r"w = \S+\); check the oracle's L3$")


def _fake_trial(lam, w, r=1.0, reason="certified"):
    return Trial(y=np.zeros(1), grad_y=None, inner_iters=0, reason=reason,
                 grad_anchor_norm=1.0, hess_anchor_norm=0.0, lam=lam, a=lam,
                 A_next=lam, x_tilde=np.zeros(1), r=r, w=w)


class TestSearchLambda:
    """Mechanics against synthetic window curves, no oracle involved."""

    def test_cold_start_hits_window_midpoint(self):
        calls = []

        def make_trial(lam):
            # At A = 0, w = lam*(xi/2)*L3*r^2: here xi = L3 = 3/2 and r = 2.
            calls.append(lam)
            return _fake_trial(lam, w=lam * 4.5, r=2.0)

        t, n = search_lambda(make_trial, lam_warm=None, A=0.0)
        assert calls == [1.0]
        assert n == 1
        # One solve, lambda set analytically: w = midpoint, a = lam = A_next.
        assert t.w == pytest.approx(0.625, abs=1e-12)
        assert t.lam == pytest.approx(2.5 / (3.0 * 1.5 * 4.0), rel=1e-12)
        assert t.a == t.lam and t.A_next == t.lam

    def test_cold_start_zero_radius_raises(self):
        make = lambda lam: _fake_trial(lam, w=0.0, r=0.0)._replace(grad_y=np.ones(1))
        with pytest.raises(LambdaSearchError):
            search_lambda(make, lam_warm=None, A=0.0)

    def test_warm_start_expands_upward(self):
        make = lambda lam: _fake_trial(lam, w=lam)
        t, n = search_lambda(make, lam_warm=1e-3, A=1.0)
        assert WINDOW_LO <= t.w <= WINDOW_HI
        assert n <= 12

    def test_warm_start_shrinks_downward(self):
        make = lambda lam: _fake_trial(lam, w=lam)
        t, n = search_lambda(make, lam_warm=100.0, A=1.0)
        assert WINDOW_LO <= t.w <= WINDOW_HI
        assert n <= 12

    def test_bracket_steps_by_the_secant(self):
        """Inside a bracket the next trial is the secant point on
        (log lambda, log w) through its two ends, even one close to an end:
        w = 0.49 at lambda = 1 and w = 50 at the first step's lambda put it
        at s = log(0.625/0.49)/log(50/0.49), about 0.0526 of the way."""
        lam1 = (0.625 / 0.49) ** (1.0 / natmi._FIRST_SLOPE)
        calls = []

        def make_trial(lam):
            calls.append(lam)
            w = {0: 0.49, 1: 50.0}.get(len(calls) - 1, 0.625)
            return _fake_trial(lam, w=w)

        t, n = search_lambda(make_trial, lam_warm=1.0, A=1.0)
        s = math.log(0.625 / 0.49) / math.log(50.0 / 0.49)
        assert n == 3
        assert calls[1] == pytest.approx(1.20586, rel=1e-5)
        assert s == pytest.approx(0.0526, abs=1e-4)
        assert calls[2] == pytest.approx(lam1 ** s, rel=1e-12)
        assert calls[2] == pytest.approx(1.00990, rel=1e-5)

    def test_bracket_with_zero_lower_end_takes_the_log_midpoint(self):
        """log w is undefined at w = 0, so a bracket whose lower end has
        w = 0 steps to the log-midpoint of its ends."""
        calls = []

        def make_trial(lam):
            calls.append(lam)
            w = {0: 0.0, 1: 50.0}.get(len(calls) - 1, 0.625)
            return _fake_trial(lam, w=w)

        t, n = search_lambda(make_trial, lam_warm=1.0, A=1.0)
        assert n == 3
        assert calls[:2] == [1.0, natmi._MAX_STEP]
        assert calls[2] == pytest.approx(math.sqrt(natmi._MAX_STEP), rel=1e-12)

    def test_terminal_reason_short_circuits(self):
        make = lambda lam: _fake_trial(lam, w=0.0, r=0.0, reason="accuracy_floor")
        t, n = search_lambda(make, lam_warm=5.0, A=1.0)
        assert t.reason == "accuracy_floor"
        assert n == 1

    def test_flat_zero_curve_exhausts_bracket(self):
        make = lambda lam: _fake_trial(lam, w=0.0, r=0.0)
        with pytest.raises(LambdaSearchError, match=_SEARCH_FAILED) as info:
            search_lambda(make, lam_warm=1.0, A=1.0)
        # Each trial moves lambda by 64x, so the 60th is at 64^59 = 2^354.
        assert f"last lambda = {2.0 ** 354:.6g}, w = 0)" in str(info.value)


#: Trials a search may take on a drawn curve: the worst seen over 40,000
#: draws of each family, taken uniformly over the ranges below from
#: numpy.random.default_rng(2026), was 10 on power and on kinked curves.
_SEARCH_TRIALS = 16


@st.composite
def _window_curves(draw, kinked):
    """A warm start lam0 and a curve w(lambda) through w(lam0) = w0 in
    [1e-8, 1e8]: the power curve w0*(lambda/lam0)^p with p in [1/2, 3], or
    with kinked=True one whose slope turns from p to q in [1/2, 3] at a kink
    up to 8 decades away from lam0."""
    lam0 = 10.0 ** draw(st.floats(-6.0, 6.0))
    w0 = 10.0 ** draw(st.floats(-8.0, 8.0))
    p = draw(st.floats(0.5, 3.0))
    if not kinked:
        return lam0, lambda lam: w0 * (lam / lam0) ** p
    q = draw(st.floats(0.5, 3.0))
    lam_k = lam0 * 10.0 ** draw(st.floats(-8.0, 8.0))
    w_k = w0 * (lam_k / lam0) ** p

    def curve(lam):
        if (lam < lam_k) == (lam0 < lam_k):
            return w0 * (lam / lam0) ** p
        return w_k * (lam / lam_k) ** q

    return lam0, curve


class TestSearchLambdaProperties:
    """The search against drawn window curves, no oracle involved."""

    @pytest.mark.parametrize("kinked", [False, True], ids=["power", "kink"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lands_in_window(self, kinked, data):
        lam0, curve = data.draw(_window_curves(kinked))
        t, n = search_lambda(lambda lam: _fake_trial(lam, w=curve(lam)),
                             lam_warm=lam0, A=1.0)
        assert WINDOW_LO <= t.w <= WINDOW_HI
        assert n <= _SEARCH_TRIALS

    @settings(max_examples=300, deadline=None)
    @given(w1=st.floats(1e-300, 1e300), r=st.floats(1e-6, 1e6))
    def test_first_step_lands_at_the_midpoint(self, w1, r):
        """At A = 0 the anchor does not move with lambda, so w is linear in
        lambda: one trial at lambda = 1 gives w(1), and the step lands at
        lambda = 0.625/w(1) exactly and at w = 0.625 within one ulp."""
        calls = []

        def make_trial(lam):
            calls.append(lam)
            return _fake_trial(lam, w=lam * w1, r=r)

        t, n = search_lambda(make_trial, lam_warm=None, A=0.0)
        assert (calls, n) == ([1.0], 1)
        assert t.lam == t.a == t.A_next == 0.625 / w1
        assert abs(t.w - 0.625) <= math.ulp(0.625)

    @settings(max_examples=100, deadline=None)
    @given(log_jump=st.floats(-6.0, 6.0), log_warm=st.floats(-6.0, 6.0),
           p=st.floats(0.5, 3.0), below=st.floats(1e-3, 0.49),
           above=st.floats(0.76, 1e3))
    def test_jump_over_window_raises(self, log_jump, log_warm, p, below, above):
        """w jumps from below 1/2 straight past 3/4 at lam_jump, so no lambda
        lands in the window and the search must give up at its trial cap."""
        lam_jump, lam_warm = 10.0 ** log_jump, 10.0 ** log_warm
        calls = []

        def make_trial(lam):
            calls.append(lam)
            w = (below if lam < lam_jump else above) * (lam / lam_jump) ** p
            return _fake_trial(lam, w=w)

        with pytest.raises(LambdaSearchError, match=_SEARCH_FAILED):
            search_lambda(make_trial, lam_warm=lam_warm, A=1.0)
        assert len(calls) == natmi._MAX_TRIALS


def test_search_starts_at_extrapolated_lambda(monkeypatch):
    """From step 3 on, while lambda grew by at most 2x over the last step
    (rho = lam_{k-1}/lam_{k-2} <= 2), the search starts at
    lam_{k-1}*rho*(0.625/w_{k-1})^(1/1.3), aimed from the last accepted
    window value w_{k-1} at the window midpoint; else at lam_{k-1}."""
    starts = []
    inner = natmi.search_lambda

    def spy(make_trial, lam_warm, A):
        starts.append(lam_warm)
        return inner(make_trial, lam_warm, A)

    monkeypatch.setattr(natmi, "search_lambda", spy)
    out = harness.run(harness.build_run_config(
        {"problem": "logreg_fixture", "eps": "1e-9"}))
    lams = [rec.lam for rec in out.records]
    ws = [rec.window_value for rec in out.records]
    branches = set()
    for k in range(3, len(starts) + 1):
        rho = lams[k - 2] / lams[k - 3]
        extrapolated = rho <= natmi._MAX_EXTRAPOLATE
        branches.add(extrapolated)
        aim = (natmi._WINDOW_MID / ws[k - 2]) ** (1.0 / natmi._FIRST_SLOPE)
        expected = lams[k - 2] * rho * aim if extrapolated else lams[k - 2]
        assert starts[k - 1] == pytest.approx(expected, rel=1e-12), k
    assert branches == {True, False}


def test_window_takes_the_oracle_l3(monkeypatch):
    """solve hands accelerated_steps, which alone forms the window weight
    xi*L3, the oracle's L3 and the config's xi."""
    seen = []
    steps = natmi.accelerated_steps

    def spy(subproblem, L3, xi, *rest):
        seen.append((L3, xi))
        return steps(subproblem, L3, xi, *rest)

    monkeypatch.setattr(natmi, "accelerated_steps", spy)
    orc = QuarticChain(4)
    res = solve(NatmiConfig(eps=1e-8, k_max=3), orc, np.full(4, 0.5))
    assert res.iters == 3
    assert seen == [(orc.lipschitz_L3, 1.5)]


def test_each_trial_after_the_first_starts_at_the_previous_answer():
    """The builder gets start=None for the first trial of each lambda
    search and, for each later trial, the previous trial's y."""
    orc = LogisticLoss(synth_logreg(3, 80, 6), ridge=1e-3)
    cfg = NatmiConfig(eps=1e-8)
    build = natmi.oracle_subproblem(cfg, orc)
    calls = []

    def spy(x_t, start=None):
        t = build(x_t, start=start)
        calls.append((start, t.y))
        return t

    searches = []
    for _, n_trials in natmi.accelerated_steps(spy, orc.lipschitz_L3, cfg.xi,
                                               np.zeros(6), k_max=8):
        searches.append(calls[len(calls) - n_trials:])
    assert sum(len(s) for s in searches) == len(calls)
    assert max(len(s) for s in searches) > 1
    for search in searches:
        assert search[0][0] is None
        for (_, previous), (start, _) in zip(search, search[1:]):
            np.testing.assert_array_equal(start, previous)


@pytest.fixture(scope="module")
def logreg_run():
    orc = LogisticLoss(synth_logreg(3, 80, 6), ridge=1e-3)
    cfg = NatmiConfig(eps=1e-8, k_max=8)
    return solve(cfg, orc, np.zeros(6))


class TestRecordInvariants:

    def test_first_window_value_is_midpoint(self, logreg_run):
        assert logreg_run.records[0].window_value == pytest.approx(0.625, abs=1e-12)

    def test_windows_stay_inside(self, logreg_run):
        for rec in logreg_run.records:
            assert WINDOW_LO - 1e-12 <= rec.window_value <= WINDOW_HI + 1e-12

    def test_accumulator_identity_across_records(self, logreg_run):
        A_prev = 0.0
        for rec in logreg_run.records:
            a = rec.A - A_prev
            assert a > 0.0
            assert a * a == pytest.approx(rec.lam * rec.A, rel=1e-9)
            A_prev = rec.A

    def test_contraction_never_exceeds_predicted(self, logreg_run):
        assert validate_params(NatmiConfig(eps=1e-8, k_max=8)).sigma == 0.6
        for rec in logreg_run.records:
            assert rec.sigma_observed <= 0.6 + 1e-8
        assert logreg_run.sigma_max == max(
            rec.sigma_observed for rec in logreg_run.records)

    def test_monotone_objective(self, logreg_run):
        values = [rec.f for rec in logreg_run.records]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_counters_are_cumulative(self, logreg_run):
        grads = [rec.n_grad for rec in logreg_run.records]
        hessians = [rec.n_hess for rec in logreg_run.records]
        assert all(b > a for a, b in zip(grads, grads[1:]))
        assert all(b >= a for a, b in zip(hessians, hessians[1:]))
        # A terminal probe after the last accepted step still costs calls,
        # so the result totals may exceed the last record's counters.
        assert logreg_run.counts["grad"] >= grads[-1]
        assert logreg_run.counts["hess"] >= hessians[-1]

    def test_trial_counts_bounded(self, logreg_run):
        for rec in logreg_run.records:
            assert 1 <= rec.n_trials <= 40


class TestAcceptedStepCertificate:
    def test_model_gradient_bound_at_accepted_point(self):
        """On exact-third-derivative problems the accepted iterate must
        satisfy the relative certificate transferred to a cubic bound:
        ||grad model at y|| <= (gamma/(1-gamma)) * ((p+1)H + L3)/6 * r^3."""
        rng = np.random.default_rng(23)
        orc = QuarticObjective(np.eye(3), rng.standard_normal(3), 0.6)
        L3 = orc.lipschitz_L3
        cfg = NatmiConfig(eps=1e-10)
        steps = natmi.accelerated_steps(natmi.oracle_subproblem(cfg, orc), L3,
                                        cfg.xi, rng.standard_normal(3), k_max=4)
        for t, _ in steps:
            assert t.reason == "certified"
            spec = ModelSpec(orc, t.x_tilde, H=1.5 * L3)
            lhs = float(np.linalg.norm(model_grad(spec, t.y)))
            bound = (1.0 / 5.0) * (7.0 * L3 / 6.0) * t.r ** 3
            assert lhs <= bound * (1.0 + 1e-8) + 1e-15


@st.composite
def _generated_instances(draw):
    """A quartic (Q = M'M/n + 0.01 I, a4 in [0.01, 1]), a quadratic
    (Q = M'M/n + 0.1 I) or a logistic loss (m in [10, 80], ridge in
    [1e-4, 1e-2]), n in [1, 8]. The quartic's 0.01 I keeps reference_fstar
    inside its Newton budget, which near-singular pure quartics exhaust."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["quartic", "quadratic", "logistic"]))
    if family == "logistic":
        data = synth_logreg(seed, draw(st.integers(10, 80)), n)
        return LogisticLoss(data, ridge=draw(st.floats(1e-4, 1e-2)))
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    if family == "quadratic":
        return QuarticObjective(M.T @ M / n + 0.1 * np.eye(n), c, 0.0)
    return QuarticObjective(M.T @ M / n + 0.01 * np.eye(n), c,
                            draw(st.floats(0.01, 1.0)))


class TestExactEngineCertificate:
    @pytest.mark.parametrize("subsolver", ["exact", "bdgm"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(orc=_generated_instances())
    def test_every_step_keeps_the_paper_invariants(self, subsolver, orc):
        """natmi_exact and hyperfast stop on the paper's certificate: every
        accepted step keeps the paper's invariants, and the run ends at its
        floor."""
        eps = 1e-9
        res = solve(NatmiConfig(eps=eps, k_max=100, subsolver=subsolver), orc,
                    np.zeros(orc.dim))
        assert_paper_invariants(res, reference_fstar(orc, tol=1e-8), eps)

    @pytest.mark.parametrize("xi", [1.0, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("problem", ["quartic1d", "quartic_chain"])
    def test_window_scales_with_xi(self, xi, problem):
        """natmi_exact's window bounds lam*H*r^2/2 with H = xi*L3, so every
        step keeps its regime's contraction bound: with the window fixed at
        H = 3*L3/2, xi = 3 and 7 took uncertified larger steps (sigma up to
        0.909 on QuarticChain(4) at xi = 3, 3.651 at xi = 7)."""
        if problem == "quartic1d":
            bundle = harness.make_problem(harness.build_run_config({"problem": problem}))
            orc, x0 = bundle.single(), bundle.x0
        else:
            orc, x0 = QuarticChain(4), np.full(4, 0.5)
        cfg = NatmiConfig(eps=1e-9, k_max=100, xi=xi, subsolver="exact")
        res = solve(cfg, orc, x0)
        assert_paper_invariants(res, 0.0, cfg.eps, sigma=validate_params(cfg).sigma)


def _ends_at_the_floor(params: dict) -> None:
    """Run params through the harness: it raises nothing, keeps every
    step's contraction within 0.6 and ends at accuracy_floor."""
    out = harness.run(harness.build_run_config(params))
    assert all(rec.sigma_observed <= 0.6 for rec in out.records)
    assert out.summary["status"] == "accuracy_floor"


def _quadratic_at_eps_1e9(n: int, seed: int) -> dict:
    return {"problem": "quadratic", "problem.n": str(n), "problem.seed": str(seed),
            "eps": "1e-9", "max_iters": "100", "method": "hyperfast"}


class TestInexactMarginOnQuadratics:
    @pytest.mark.parametrize("n, seed", [(2, 26), (2, 37), (2, 56), (8, 45), (10, 33),
                                         (4, 28), (6, 55), (8, 82), (10, 47), (10, 58)])
    def test_sigma_bound_at_the_float_floor(self, n, seed):
        """These registered quadratics reach the float floor, where a
        certificate less delta alone, not theta_abs, accepts roundoff (sigma
        up to 33) or never certifies (n=10 seed 33 raises SubproblemError).
        The last five are where a roundoff term sized from ||grad f(x~)||
        alone once fell below the real roundoff (sigma broke the bound, or
        no inner solve reached its floor); the term now takes the terms the
        gradient sums. Each ends at accuracy_floor."""
        _ends_at_the_floor(_quadratic_at_eps_1e9(n, seed))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 10), seed=st.integers(0, 99))
    @example(n=8, seed=67)
    @example(n=9, seed=76)
    def test_generated_quadratics_end_at_the_floor(self, n, seed):
        """Every registered quadratic (n in [2, 10], seed in [0, 99]) ends
        at accuracy_floor within the contraction bound. The two examples
        ran out of inner steps with the roundoff term sized from
        ||grad f(x~)||."""
        _ends_at_the_floor(_quadratic_at_eps_1e9(n, seed))


class TestLogregFixtureFloor:
    @pytest.mark.parametrize("eps", ["1e-10", "1e-11", "1e-12"])
    def test_small_eps_ends_at_the_floor(self, eps):
        """Below the fixture's float floor the run stops at accuracy_floor;
        with the roundoff term sized from ||grad f(x~)||, eps 1e-11 found no
        certificate in 10000 inner steps."""
        _ends_at_the_floor({"problem": "logreg_fixture", "eps": eps})


class TestWrongL3Hint:
    """A quartic whose L3 (3) is reported at 1e-2: started at 2*1, the first
    inner solve finds no certificate, and the one-line message names
    problems.sampled_l3's estimate beside the reported constant. (From 0
    the first step is accepted with sigma_observed 14.06, which outer_loop
    refuses first; see TestContractionBreak.) A run that does not fail that
    way never takes the estimate."""

    x0 = 2.0 * np.ones(3)

    def quartic(self):
        return QuarticObjective(np.eye(3), np.ones(3), 0.5)

    def test_no_certificate_names_the_sampled_estimate(self):
        orc = self.quartic()
        orc.lipschitz_L3 *= 1e-2
        with pytest.raises(SubproblemError) as info:
            solve(NatmiConfig(eps=1e-9, k_max=30), orc, self.x0)
        message = str(info.value)
        assert message.startswith("no certificate in 10000 iterations (last lhs ")
        assert message.endswith("; reported L3 0.03, sampled_l3 estimate 2.97")
        assert "\n" not in message

    def test_good_run_takes_no_estimate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled_l3 called on a good run")

        monkeypatch.setattr(bdgm, "sampled_l3", refuse)
        res = solve(NatmiConfig(eps=1e-9, k_max=30), self.quartic(), np.zeros(3))
        assert res.converged

    def test_estimate_moves_no_counter(self, monkeypatch):
        """Given a counted oracle, the estimate runs on the oracle it wraps,
        so the caller's counters stay where the failure left them."""
        orc = self.quartic()
        orc.lipschitz_L3 *= 1e-2
        co = CountedOracle(orc)
        seen = []

        def record(oracle, *args, **kwargs):
            seen.append((oracle, co.counts))
            return sampled_l3(oracle, *args, **kwargs)

        monkeypatch.setattr(bdgm, "sampled_l3", record)
        with pytest.raises(SubproblemError, match="sampled_l3 estimate 2.97$"):
            solve(NatmiConfig(eps=1e-9, k_max=30), co, self.x0)
        [(oracle, counts)] = seen
        assert oracle is orc
        assert co.counts == counts

    def test_valid_l3_names_no_estimate(self, monkeypatch):
        """logreg_fixture's reported L3 (0.125) is a valid bound. An inner
        budget of one step forces a "no certificate" failure, and the
        estimate (0.000587) lies below the bound, so the message names none."""
        monkeypatch.setattr(bdgm, "_MAX_ITERS", 1)
        cfg = harness.build_run_config({"problem": "logreg_fixture"})
        with pytest.raises(SubproblemError) as info:
            harness.run(cfg)
        message = str(info.value)
        assert message.startswith("no certificate in 1 iterations (last lhs ")
        assert "L3" not in message and "sampled_l3" not in message

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_exact_l3_on_small_data_names_no_estimate(self, ridge):
        """One-row, n = 1 logistic data, whose reported L3 = ||a||^4/8 is
        exact, at 160 row norms from 1e-3 to 1. The gradient differences'
        roundoff is large beside an L3 down to 1.25e-13: taken at face
        value, the estimate exceeds the reported L3 on 101 (ridge 0) and 99
        (ridge 1e-3) of them, by up to 131x and 221x. Net of that roundoff
        it stays below, and no hint names it."""
        for norm in np.geomspace(1e-3, 1.0, 160):
            orc = LogisticLoss(Dataset(np.array([[norm]]), np.array([1.0])), ridge)
            assert sampled_l3(orc) <= orc.lipschitz_L3, norm
            assert bdgm.l3_hint(orc) == "", norm


class TestContractionBreak:
    """logreg_fixture's loss, its L3 (0.0103) reported on a counting wrapper
    at 1e-4 and at 1e-3 of itself: the first accepted step contracts by
    more than the regime's sigma = 0.6. Such runs used to end silently (at
    the former L3 0.125: at k_max after 100 steps with sigma_max 6.512 and
    at accuracy_floor with sigma_max 0.608). outer_loop refuses the step: a
    SolverError that names problems.sampled_l3's estimate (0.000587), exit 3
    with one stderr line, and the rows before it (none) with the error
    footer."""

    CASES = [
        pytest.param(1e-4, "step 1: sigma_observed 78.74 exceeds the regime's sigma 0.6; "
                     "reported L3 1.03e-06, sampled_l3 estimate 0.000587", id="1e-4"),
        pytest.param(1e-3, "step 1: sigma_observed 7.89 exceeds the regime's sigma 0.6; "
                     "reported L3 1.03e-05, sampled_l3 estimate 0.000587", id="1e-3"),
    ]

    @staticmethod
    def scaled(factor):
        def wrap(oracle):
            co = CountedOracle(oracle)
            co.lipschitz_L3 *= factor
            return co
        return wrap

    @pytest.mark.parametrize("factor, message", CASES)
    def test_solve_refuses_the_step(self, factor, message):
        bundle = harness.make_problem(harness.build_run_config({"problem": "logreg_fixture"}))
        co = self.scaled(factor)(bundle.single())
        with pytest.raises(SolverError) as info:
            solve(NatmiConfig(), co, bundle.x0)
        assert type(info.value) is SolverError
        assert str(info.value) == message
        assert info.value.records == ()

    @pytest.mark.parametrize("factor, message", CASES)
    def test_cli_exit_three_with_partial_trace(self, factor, message, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setattr(natmi, "counted", self.scaled(factor))
        trace = tmp_path / "t.csv"
        assert cli.main(["solve", "--problem", "logreg_fixture", "--eps", "1e-8",
                         "--max-iters", "100", "--trace", str(trace)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"solver failure: {message}"]
        assert trace.read_text().splitlines()[-1] == f"# ERROR: SolverError: {message}"
        assert harness.read_trace(trace) == []

    def test_sliding_outer_step_names_g(self):
        """sliding_bench seed 11 with g's L3 reported at a tenth: the first
        outer step breaks the contraction (it ran to k_max with sigma_max
        1.66 before). The window models g, so the message names g's reported
        L3 and problems.sampled_l3's estimate of g."""
        bundle = harness.make_problem(harness.build_run_config(
            {"problem": "sliding_bench", "problem.seed": "11"}))
        prob = bundle.composite()
        prob.g.lipschitz_L3 *= 0.1
        with pytest.raises(SolverError) as info:
            solve_sliding(prob, bundle.x0, NatmiConfig(eps=1e-6, k_max=30))
        assert str(info.value) == (
            "step 1: sigma_observed 1.552 exceeds the regime's sigma 0.6; "
            "reported L3 0.000303, sampled_l3 estimate 0.00281")


class TestSolveEndToEnd:
    def test_quadratic_five_iterations(self):
        rng = np.random.default_rng(25)
        M = rng.standard_normal((5, 5))
        Q = M @ M.T + np.eye(5)
        c = rng.standard_normal(5)
        orc = QuarticObjective(Q, c, 0.0)
        f_star = -0.5 * float(c @ np.linalg.solve(Q, c))
        res = solve(NatmiConfig(eps=1e-9, k_max=5), orc, np.zeros(5))
        assert res.records[-1].f - f_star < 1e-12

    def test_scalar_quartic_converges(self):
        orc = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 0.25)
        res = solve(NatmiConfig(eps=1e-10, k_max=30), orc, np.ones(1))
        assert res.f <= 1e-12
        assert res.status in ("k_max", "accuracy_floor")

    def test_grad_tol_stop(self):
        # grad_tol must sit above the eps-implied anchor floor (about
        # eps * 6^(2/3) here) or the floor exit wins the race.
        orc = QuarticChain(4)
        res = solve(NatmiConfig(eps=1e-8, k_max=60, grad_tol=1e-6),
                    orc, np.full(4, 0.5))
        assert res.status == "grad_tol"
        assert res.converged
        assert res.grad_norm <= 1e-6

    def test_zero_gradient_start_is_stationary(self):
        orc = QuarticObjective(np.eye(2), np.zeros(2), 1.0)
        res = solve(NatmiConfig(), orc, np.zeros(2))
        assert res.status == "stationary"
        assert res.converged
        assert res.iters == 0
        assert res.records == ()
        np.testing.assert_array_equal(res.y, np.zeros(2))

    def test_exact_zero_gradient_start_is_stationary(self):
        """natmi_exact at the optimum of a quartic: the model minimizer is
        the anchor, whose zero gradient certifies (0 <= 0), and the search
        returns it, so outer_loop stops stationary at x0 with no row."""
        orc = QuarticObjective(np.eye(2), np.zeros(2), 1.0)
        res = solve(NatmiConfig(subsolver="exact"), orc, np.zeros(2))
        assert (res.status, res.converged, res.iters, res.records) == (
            "stationary", True, 0, ())
        np.testing.assert_array_equal(res.y, np.zeros(2))
        assert res.grad_norm == 0.0
        assert res.counts == {"value": 2, "grad": 2, "hess": 1, "third": 2}

    @pytest.mark.parametrize("reason", ["certified", "accuracy_floor"])
    def test_zero_gradient_answer_is_stationary(self, reason):
        """A builder that answers the optimum of x^2/2 from x0 = 2, with its
        exact zero gradient, ends the solve stationary there with no row.
        The answer lies away from the anchor: taken as a step, its
        sigma_observed of 1 would break the regime's 0.6, and as a floor
        answer the solve would end back at x0."""
        orc = CountedOracle(QuarticObjective(np.eye(1), np.zeros(1), 0.0))

        def optimum(x_t, start=None):
            y = np.zeros(1)
            return Trial(y, orc.grad(y), 0, reason,
                         float(np.linalg.norm(orc.grad(x_t))), 1.0)

        res = natmi.outer_loop(optimum, np.array([2.0]), NatmiConfig(), orc,
                               lambda: orc.counts)
        assert (res.status, res.converged, res.iters, res.records) == (
            "stationary", True, 0, ())
        np.testing.assert_array_equal(res.y, np.zeros(1))
        assert (res.f, res.grad_norm, res.max_grad_norm) == (0.0, 0.0, 2.0)

    def test_certified_anchor_with_zero_gradient_is_stationary(self):
        """A builder that answers certified at the anchor of x^2/2 from
        x0 = 0, the optimum, ends the solve stationary there with no row."""
        orc = CountedOracle(QuarticObjective(np.eye(1), np.zeros(1), 0.0))

        def at_anchor(x_t, start=None):
            return Trial(x_t.copy(), orc.grad(x_t), 0, "certified", 0.0, 1.0)

        res = natmi.outer_loop(at_anchor, np.zeros(1), NatmiConfig(), orc,
                               lambda: orc.counts)
        assert (res.status, res.converged, res.iters, res.records) == (
            "stationary", True, 0, ())
        np.testing.assert_array_equal(res.y, np.zeros(1))

    def test_k_max_status_when_budget_runs_out(self):
        orc = LogisticLoss(synth_logreg(9, 50, 5), ridge=1e-3)
        res = solve(NatmiConfig(eps=1e-8, k_max=3), orc, np.zeros(5))
        assert res.status == "k_max"
        assert not res.converged
        assert res.iters == 3

    def test_exact_subsolver_matches_inexact(self, monkeypatch):
        """The inexact engine stops at its first certified iterate, so its
        answers, and the run's f values, differ from the exact minimizer's
        by the certificate's slack; both runs still end within eps of f* = 0.
        Driven to its floor, as a standalone bdgm.solve is, the engine
        lands on the exact minimizer: its first three f values match."""
        orc = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 0.25)
        res_b = solve(NatmiConfig(eps=1e-8, k_max=12), orc, np.ones(1))
        res_e = solve(NatmiConfig(eps=1e-8, k_max=12, subsolver="exact"),
                      orc, np.ones(1))
        assert all(rec.inner_iters == 0 for rec in res_e.records)
        # The inexact path may stop at its accuracy floor a little above
        # where the exact path lands; both must be deep by then.
        assert res_b.f <= 1e-9 and res_e.f <= 1e-9
        floor_solve = bdgm.solve
        monkeypatch.setattr(bdgm, "solve", lambda state, start=None, certificate_stop=False:
                            floor_solve(state, start))
        res_f = solve(NatmiConfig(eps=1e-8, k_max=12), orc, np.ones(1))
        assert res_f.f <= 1e-9
        k = min(len(res_f.records), len(res_e.records))
        for rf, re in zip(res_f.records[:3], res_e.records[:3]):
            assert abs(rf.f - re.f) <= 1e-6 * (1.0 + abs(rf.f))
        assert k >= 3

    def test_exact_subsolver_hits_accuracy_floor(self):
        orc = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 0.25)
        res = solve(NatmiConfig(k_max=60, subsolver="exact"), orc, np.ones(1))
        assert res.status == "accuracy_floor"
        assert res.converged

    def test_floor_exit_keeps_the_better_point(self):
        """On this instance the last lambda trial stops at the accuracy floor
        at a point far closer to the optimum than the last accepted y
        (f - f* of 0 against 1.1e-9); the solve must end on it."""
        orc = LogisticLoss(synth_logreg(3030, 200, 20), ridge=1e-3)
        res = solve(NatmiConfig(eps=1e-9, k_max=30), orc, np.zeros(20))
        assert res.status == "accuracy_floor"
        assert res.grad_norm < res.records[-1].grad_norm
        assert res.f - reference_fstar(orc, tol=1e-8) <= 1e-9

    def test_deterministic_replay(self):
        orc = LogisticLoss(synth_logreg(3, 80, 6), ridge=1e-3)
        cfg = NatmiConfig(eps=1e-8, k_max=6)
        a = solve(cfg, orc, np.zeros(6))
        b = solve(cfg, orc, np.zeros(6))
        np.testing.assert_array_equal(a.y, b.y)
        assert [r.f for r in a.records] == [r.f for r in b.records]
        assert [r.lam for r in a.records] == [r.lam for r in b.records]
