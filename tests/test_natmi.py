"""Outer accelerated loop tests.

Parameter-regime validation, the step-weight accumulator identity, the
acceptance window search (exercised both against synthetic trial curves and
real solves), per-record invariants, and end-to-end convergence checks on
quadratic, quartic, and logistic problems.
"""

import numpy as np
import pytest

from hyperfast import natmi
from hyperfast.harness import reference_fstar
from hyperfast.natmi import (
    LambdaSearchError,
    NatmiConfig,
    TrialPoint,
    WINDOW_HI,
    WINDOW_LO,
    lambda_window,
    search_lambda,
    solve,
    step_weight,
    validate_params,
)
from hyperfast.problems import (
    LogisticLoss,
    QuarticChain,
    QuarticObjective,
    make_quartic,
    synth_logreg,
)
from hyperfast.taylor import ModelSpec, model_grad


class TestValidateParams:
    def test_default_regime_sigma_is_three_fifths(self):
        rep = validate_params(NatmiConfig())
        assert rep.ok
        assert rep.sigma == 0.6
        assert rep.window == (0.5, 0.75)

    def test_unregularized_regime_sigma_is_half(self):
        rep = validate_params(NatmiConfig(gamma=0.0, xi=1.0))
        assert rep.ok
        assert rep.sigma == 0.5

    def test_large_gamma_rejected(self):
        rep = validate_params(NatmiConfig(gamma=0.5, xi=1.0))
        assert not rep.ok
        assert any("hypothesis" in v for v in rep.violations)

    def test_wrong_order_rejected(self):
        rep = validate_params(NatmiConfig(p=2))
        assert not rep.ok

    def test_gamma_out_of_range_rejected(self):
        assert not validate_params(NatmiConfig(gamma=1.0)).ok
        assert not validate_params(NatmiConfig(gamma=-0.1)).ok

    def test_small_xi_rejected(self):
        assert not validate_params(NatmiConfig(xi=0.5)).ok

    def test_solve_refuses_bad_regime(self):
        orc = make_quartic(np.eye(1), np.ones(1), 0.5)
        with pytest.raises(ValueError):
            solve(NatmiConfig(gamma=0.5, xi=1.0), orc, np.ones(1))

    def test_solve_refuses_unknown_subsolver(self):
        orc = make_quartic(np.eye(1), np.ones(1), 0.5)
        with pytest.raises(ValueError):
            solve(NatmiConfig(subsolver="cg"), orc, np.ones(1))


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


class TestLambdaWindow:
    def test_bounds(self):
        # At L3 = 4/3 and r = 1 the statistic equals lam.
        L3 = 4.0 / 3.0
        assert lambda_window(0.5, 1.0, L3)
        assert lambda_window(0.75, 1.0, L3)
        assert not lambda_window(0.49, 1.0, L3)
        assert not lambda_window(0.76, 1.0, L3)

    def test_zero_radius_never_inside(self):
        assert not lambda_window(1e12, 0.0, 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            lambda_window(1.0, -1.0, 1.0)


def _fake_trial(lam, w, r=1.0, reason="certified"):
    return TrialPoint(lam=lam, a=lam, A_next=lam, x_tilde=np.zeros(1),
                      y=np.zeros(1), r=r, w=w, inner_iters=0, reason=reason,
                      grad_y=None, grad_anchor_norm=1.0, hess_anchor_norm=0.0)


class TestSearchLambda:
    """Mechanics against synthetic window curves, no oracle involved."""

    def test_cold_start_hits_window_midpoint(self):
        calls = []

        def make_trial(lam):
            calls.append(lam)
            return _fake_trial(lam, w=0.0, r=2.0)

        t, n = search_lambda(make_trial, L3=1.5, lam_warm=None, A=0.0)
        assert calls == [1.0]
        assert n == 1
        # One solve, lambda set analytically: w = midpoint, a = lam = A_next.
        assert t.w == pytest.approx(0.625, abs=1e-12)
        assert t.lam == pytest.approx(2.5 / (3.0 * 1.5 * 4.0), rel=1e-12)
        assert t.a == t.lam and t.A_next == t.lam

    def test_cold_start_zero_radius_raises(self):
        with pytest.raises(LambdaSearchError):
            search_lambda(lambda lam: _fake_trial(lam, w=0.0, r=0.0),
                          L3=1.0, lam_warm=None, A=0.0)

    def test_warm_start_expands_upward(self):
        make = lambda lam: _fake_trial(lam, w=lam)
        t, n = search_lambda(make, L3=1.0, lam_warm=1e-3, A=1.0)
        assert WINDOW_LO <= t.w <= WINDOW_HI
        assert n <= 12

    def test_warm_start_shrinks_downward_then_bisects(self):
        make = lambda lam: _fake_trial(lam, w=lam)
        t, n = search_lambda(make, L3=1.0, lam_warm=100.0, A=1.0)
        assert WINDOW_LO <= t.w <= WINDOW_HI
        assert n <= 12

    def test_terminal_reason_short_circuits(self):
        make = lambda lam: _fake_trial(lam, w=0.0, r=0.0, reason="accuracy_floor")
        t, n = search_lambda(make, L3=1.0, lam_warm=5.0, A=1.0)
        assert t.reason == "accuracy_floor"
        assert n == 1

    def test_flat_zero_curve_exhausts_bracket(self):
        make = lambda lam: _fake_trial(lam, w=0.0, r=0.0)
        with pytest.raises(LambdaSearchError):
            search_lambda(make, L3=1.0, lam_warm=1.0, A=1.0, max_expand=10)

    def test_bad_growth_rejected(self):
        make = lambda lam: _fake_trial(lam, w=lam)
        with pytest.raises(ValueError):
            search_lambda(make, L3=1.0, lam_warm=1.0, A=1.0, growth=1.0)


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
        assert logreg_run.report.sigma == 0.6
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
                                        rng.standard_normal(3), cfg, k_max=4)
        for t, _ in steps:
            assert t.reason == "certified"
            spec = ModelSpec(orc, t.x_tilde, H=1.5 * L3)
            lhs = float(np.linalg.norm(model_grad(spec, t.y)))
            bound = (1.0 / 5.0) * (7.0 * L3 / 6.0) * t.r ** 3
            assert lhs <= bound * (1.0 + 1e-8) + 1e-15


class TestSolveEndToEnd:
    def test_quadratic_five_iterations(self):
        rng = np.random.default_rng(25)
        M = rng.standard_normal((5, 5))
        Q = M @ M.T + np.eye(5)
        c = rng.standard_normal(5)
        orc = make_quartic(Q, c, 0.0)
        f_star = -0.5 * float(c @ np.linalg.solve(Q, c))
        res = solve(NatmiConfig(eps=1e-9, k_max=5), orc, np.zeros(5))
        assert res.records[-1].f - f_star < 1e-12

    def test_scalar_quartic_converges(self):
        orc = make_quartic(np.zeros((1, 1)), np.zeros(1), 0.25)
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
        orc = make_quartic(np.eye(2), np.zeros(2), 1.0)
        res = solve(NatmiConfig(), orc, np.zeros(2))
        assert res.status == "stationary"
        assert res.converged
        assert res.iters == 0
        assert res.records == ()
        np.testing.assert_array_equal(res.y, np.zeros(2))

    def test_k_max_status_when_budget_runs_out(self):
        orc = LogisticLoss(synth_logreg(9, 50, 5), ridge=1e-3)
        res = solve(NatmiConfig(eps=1e-8, k_max=3), orc, np.zeros(5))
        assert res.status == "k_max"
        assert not res.converged
        assert res.iters == 3

    def test_exact_subsolver_matches_inexact(self):
        orc = make_quartic(np.zeros((1, 1)), np.zeros(1), 0.25)
        res_b = solve(NatmiConfig(eps=1e-8, k_max=12), orc, np.ones(1))
        res_e = solve(NatmiConfig(eps=1e-8, k_max=12, subsolver="exact"),
                      orc, np.ones(1))
        assert all(rec.inner_iters == 0 for rec in res_e.records)
        # The inexact path may stop at its accuracy floor a little above
        # where the exact path lands; both must be deep by then.
        assert res_b.f <= 1e-9 and res_e.f <= 1e-9
        k = min(len(res_b.records), len(res_e.records))
        for rb, re in zip(res_b.records[:3], res_e.records[:3]):
            assert abs(rb.f - re.f) <= 1e-6 * (1.0 + abs(rb.f))
        assert k >= 3

    def test_exact_subsolver_hits_accuracy_floor(self):
        orc = make_quartic(np.zeros((1, 1)), np.zeros(1), 0.25)
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
