"""Composite three-level scheme tests.

Composite construction rules, the composite membership residual against its
single-function degenerate form and a hand example, the zero-part degenerate
path (which must replay the single-function solver exactly), and composite
solves checking per-component call counters and the usual record invariants.
"""

import warnings

import numpy as np
import pytest

from hyperfast.natmi import NatmiConfig, solve as natmi_solve
from hyperfast.oracles import ProblemOracle, ZeroOracle
from hyperfast.problems import QuarticObjective, make_quartic
from hyperfast.sliding import (
    CompositeProblem,
    composite_membership,
    solve_sliding,
)
from hyperfast.taylor import ModelSpec, membership_residual, model_grad, model_hess, model_value


def _newton_composite_min(spec, h, y0, tol=1e-12):
    """Damped Newton on [cached model of g] + h, small n only."""
    y = np.array(y0, dtype=np.float64)
    for _ in range(200):
        grad = model_grad(spec, y) + h.grad(y)
        if np.linalg.norm(grad) <= tol:
            return y
        H = model_hess(spec, y) + h.hess(y)
        step = np.linalg.solve(H, grad)
        t = 1.0
        base = model_value(spec, y) + h.value(y)
        while t > 1e-12:
            cand = y - t * step
            if model_value(spec, cand) + h.value(cand) < base:
                y = cand
                break
            t *= 0.5
        else:
            raise AssertionError("reference Newton stalled")
    raise AssertionError("reference Newton did not converge")


class TestCompositeProblem:
    def test_dimension_mismatch_rejected(self):
        g = make_quartic(np.eye(2), np.zeros(2), 0.5)
        h = make_quartic(np.eye(3), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            CompositeProblem(g, h)

    def test_zero_part_must_be_second(self):
        h = make_quartic(np.eye(2), np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            CompositeProblem(ZeroOracle(2), h)

    def test_nonpositive_l3_rejected(self):
        flat = ProblemOracle(2, 0.0, allow_zero_l3=True)
        h = make_quartic(np.eye(2), np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            CompositeProblem(flat, h)

    def test_swap_keeps_smaller_l3_first(self):
        big = QuarticObjective(np.eye(2), np.zeros(2), 2.0)
        small = QuarticObjective(np.eye(2), np.zeros(2), 0.1)
        with pytest.warns(UserWarning):
            prob = CompositeProblem(big, small)
        assert prob.g.lipschitz_L3 <= prob.h.lipschitz_L3

    def test_counts_start_at_zero(self):
        prob = CompositeProblem(make_quartic(np.eye(2), np.ones(2), 0.5),
                                make_quartic(np.eye(2), np.ones(2), 1.0))
        assert set(prob.counts) == {
            "value_g", "grad_g", "hess_g", "third_g",
            "value_h", "grad_h", "hess_h", "third_h"}
        assert all(v == 0 for v in prob.counts.values())


class TestCompositeMembership:
    def test_zero_part_reduces_to_single_membership(self):
        rng = np.random.default_rng(33)
        g = QuarticObjective(np.eye(2), rng.standard_normal(2), 0.7)
        prob = CompositeProblem(g, ZeroOracle(2))
        x_tilde = rng.standard_normal(2)
        spec = ModelSpec(prob.g, x_tilde, 1.5 * g.lipschitz_L3)
        for _ in range(5):
            T = x_tilde + 0.3 * rng.standard_normal(2)
            comp = composite_membership(prob, x_tilde, T)
            single = membership_residual(spec, 1.0 / 6.0, T)
            assert comp.lhs == pytest.approx(single.lhs, rel=1e-14)
            assert comp.rhs == pytest.approx(single.rhs, rel=1e-14)
            assert comp.member == single.member

    def test_hand_example_at_the_anchor(self):
        # g = x^4/4 and h = x^2/2 at T = anchor = 1: the model gradient
        # equals the true gradient there, so lhs = |1 + 1| = 2 and
        # rhs = 2/6. Construction swaps the parts (the quadratic carries
        # the placeholder bound) without changing either number.
        with pytest.warns(UserWarning):
            prob = CompositeProblem(
                QuarticObjective(np.zeros((1, 1)), np.zeros(1), 1.0),
                make_quartic(np.eye(1), np.zeros(1), 0.0))
        m = composite_membership(prob, np.ones(1), np.ones(1))
        assert m.lhs == pytest.approx(2.0, rel=1e-15)
        assert m.rhs == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert not m.member

    def test_reference_minimizer_is_member(self):
        rng = np.random.default_rng(34)
        g = QuarticObjective(0.1 * np.eye(2), 0.1 * rng.standard_normal(2), 0.2)
        h = QuarticObjective(np.eye(2), rng.standard_normal(2), 0.5)
        prob = CompositeProblem(g, h)
        x_tilde = 0.2 * rng.standard_normal(2)
        spec = ModelSpec(prob.g, x_tilde, 1.5 * g.lipschitz_L3)
        T = _newton_composite_min(spec, prob.h, x_tilde)
        m = composite_membership(prob, x_tilde, T)
        assert m.member
        assert m.lhs <= 1e-9


class TestDegeneratePath:
    def test_iterates_replay_single_function_solver(self):
        orc = QuarticObjective(np.zeros((2, 2)), np.zeros(2), 0.5)
        cfg = NatmiConfig(eps=1e-8, k_max=12)
        prob = CompositeProblem(
            QuarticObjective(np.zeros((2, 2)), np.zeros(2), 0.5), ZeroOracle(2))
        res_s = solve_sliding(prob, np.ones(2), cfg)
        res_n = natmi_solve(cfg, orc, np.ones(2))
        assert res_s.status == res_n.status
        assert len(res_s.records) == len(res_n.records)
        for rs, rn in zip(res_s.records, res_n.records):
            np.testing.assert_array_equal(rs.y, rn.y)
            assert rs.f == rn.f
            assert rs.lam == rn.lam
        np.testing.assert_array_equal(res_s.y, res_n.y)

    def test_zero_part_counters(self):
        prob = CompositeProblem(
            QuarticObjective(np.zeros((2, 2)), np.zeros(2), 0.5), ZeroOracle(2))
        res = solve_sliding(prob, np.ones(2), NatmiConfig(eps=1e-8, k_max=12))
        assert res.counts["hess_h"] == 0
        assert res.counts["grad_h"] > 0
        assert res.counts["grad_h"] == len(res.records)
        assert res.counts["hess_g"] > 0

    def test_stationary_start_takes_one_gradient(self):
        # The zero anchor gradient the first trial measured is the final
        # gradient norm; no second call confirms it.
        orc = make_quartic(np.eye(2), np.zeros(2), 1.0)
        res_n = natmi_solve(NatmiConfig(), orc, np.zeros(2))
        res_s = solve_sliding(CompositeProblem(orc, ZeroOracle(2)),
                              np.zeros(2), NatmiConfig())
        for res, key in ((res_n, "grad"), (res_s, "grad_g")):
            assert res.status == "stationary"
            assert res.grad_norm == 0.0
            assert res.counts[key] == 1
        assert res_s.counts["grad_h"] == 0

    def test_record_counters_include_both_parts(self):
        prob = CompositeProblem(
            QuarticObjective(np.zeros((2, 2)), np.zeros(2), 0.5), ZeroOracle(2))
        res = solve_sliding(prob, np.ones(2), NatmiConfig(eps=1e-8, k_max=8))
        for rec in res.records:
            assert rec.n_grad == rec.n_grad_g + rec.n_grad_h
            assert rec.n_hess == rec.n_hess_g + rec.n_hess_h
            assert rec.n_hess_h == 0
            assert rec.mid_iters == 0


class TestCompositeSolve:
    def test_scalar_split_reaches_tight_gradient(self):
        # g = x^4/4, h = x^4/4 + x^2/2 from x0 = 1.
        g = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 1.0)
        h = QuarticObjective(np.eye(1), np.zeros(1), 1.0)
        prob = CompositeProblem(g, h)
        cfg = NatmiConfig(eps=1e-10, k_max=30, grad_tol=1e-8)
        res = solve_sliding(prob, np.ones(1), cfg)
        assert res.status == "grad_tol"
        assert res.iters <= 30
        assert res.grad_norm <= 1e-8

    def test_matched_parts_agree_with_plain_solver_on_sum(self):
        rng = np.random.default_rng(31)
        Q = np.eye(2)
        c = rng.standard_normal(2)
        prob = CompositeProblem(QuarticObjective(Q, c, 0.8),
                                QuarticObjective(Q, c, 0.8))
        cfg = NatmiConfig(eps=1e-9, k_max=20)
        res_s = solve_sliding(prob, np.zeros(2), cfg)
        res_n = natmi_solve(cfg, QuarticObjective(2 * Q, 2 * c, 1.6), np.zeros(2))
        assert abs(res_s.f - res_n.f) <= 1e-6 * (1.0 + abs(res_n.f))
        assert res_s.converged

    def test_matched_parts_equalize_hessian_counts(self):
        rng = np.random.default_rng(31)
        Q = np.eye(2)
        c = rng.standard_normal(2)
        prob = CompositeProblem(QuarticObjective(Q, c, 0.8),
                                QuarticObjective(Q, c, 0.8))
        res = solve_sliding(prob, np.zeros(2), NatmiConfig(eps=1e-9, k_max=20))
        hg, hh = res.counts["hess_g"], res.counts["hess_h"]
        assert hg > 0 and hh > 0
        # The middle level needs about two accelerated steps per outer
        # trial, so parity holds only up to a small constant.
        assert hh <= 3.5 * hg
        assert hg <= 3.5 * hh

    def test_separated_scales_order_hessian_counts(self):
        rng = np.random.default_rng(35)
        g = QuarticObjective(0.05 * np.eye(2), 0.02 * np.ones(2), 1e-3)
        h = QuarticObjective(np.eye(2), rng.standard_normal(2), 1.0)
        prob = CompositeProblem(g, h)
        res = solve_sliding(prob, np.zeros(2), NatmiConfig(eps=1e-8, k_max=10))
        assert res.counts["hess_g"] < res.counts["hess_h"]

    def test_record_invariants(self):
        rng = np.random.default_rng(36)
        g = QuarticObjective(0.1 * np.eye(3), 0.1 * rng.standard_normal(3), 0.1)
        h = QuarticObjective(np.eye(3), rng.standard_normal(3), 1.0)
        prob = CompositeProblem(g, h)
        res = solve_sliding(prob, np.zeros(3), NatmiConfig(eps=1e-8, k_max=8))
        assert res.records
        grads = [rec.n_grad for rec in res.records]
        assert all(b > a for a, b in zip(grads, grads[1:]))
        for rec in res.records:
            assert rec.reason == "certified"
            assert rec.mid_iters >= 1
            assert 0.5 - 1e-12 <= rec.window_value <= 0.75 + 1e-12
            assert rec.sigma_observed <= 0.6 + 1e-8
            assert rec.n_grad == rec.n_grad_g + rec.n_grad_h
            assert rec.n_hess == rec.n_hess_g + rec.n_hess_h
        assert res.sigma_max == max(rec.sigma_observed for rec in res.records)
        assert res.counts["grad_g"] >= res.records[-1].n_grad_g
        assert res.counts["hess_h"] >= res.records[-1].n_hess_h

    def test_stationary_start(self):
        prob = CompositeProblem(
            QuarticObjective(np.eye(2), np.zeros(2), 0.5),
            QuarticObjective(np.eye(2), np.zeros(2), 1.0))
        res = solve_sliding(prob, np.zeros(2), NatmiConfig())
        assert res.status == "stationary"
        assert res.converged
        assert res.iters == 0
        assert res.records == ()
        np.testing.assert_array_equal(res.y, np.zeros(2))

    def test_invalid_regime_rejected(self):
        prob = CompositeProblem(
            QuarticObjective(np.eye(1), np.ones(1), 0.5),
            QuarticObjective(np.eye(1), np.ones(1), 1.0))
        with pytest.raises(ValueError):
            solve_sliding(prob, np.zeros(1), NatmiConfig(gamma=0.5, xi=1.0))

    def test_deterministic_replay(self):
        rng = np.random.default_rng(37)
        c1, c2 = rng.standard_normal(2), rng.standard_normal(2)
        cfg = NatmiConfig(eps=1e-8, k_max=6)

        def fresh():
            return CompositeProblem(QuarticObjective(0.2 * np.eye(2), c1, 0.2),
                                    QuarticObjective(np.eye(2), c2, 1.0))

        a = solve_sliding(fresh(), np.zeros(2), cfg)
        b = solve_sliding(fresh(), np.zeros(2), cfg)
        np.testing.assert_array_equal(a.y, b.y)
        assert [r.f for r in a.records] == [r.f for r in b.records]
        assert a.counts == b.counts
