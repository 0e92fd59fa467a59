"""Composite three-level scheme tests.

Composite construction rules, the composite membership residual against its
single-function degenerate form and a hand example, the zero-part degenerate
path (which must replay the single-function solver exactly), and composite
solves checking per-component call counters and the usual record invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfast import bdgm, harness, natmi, sliding
from hyperfast.bdgm import SubproblemError
from hyperfast.harness import reference_fstar
from hyperfast.natmi import IterationRecord, NatmiConfig, solve as natmi_solve
from hyperfast.oracles import ConfigError, ZeroOracle
from hyperfast.problems import QuarticObjective, sampled_l3
from hyperfast.sliding import CompositeProblem, solve_sliding
from hyperfast.taylor import (ModelSpec, membership_residual, model_grad, model_hess,
                             model_value, newton_min)

from crosschecks import assert_paper_invariants, composite_membership


def _newton_composite_min(spec, h, y0, tol=1e-12):
    """Damped Newton on [cached model of g] + h, small n only. newton_min may
    stop at the float limit; a point whose gradient is still above tol fails
    here instead of passing as a reference."""
    def grad(y):
        return model_grad(spec, y) + h.grad(y)

    y = newton_min(lambda y: model_value(spec, y) + h.value(y), grad,
                   lambda y: model_hess(spec, y) + h.hess(y), y0, tol,
                   "composite model")
    assert np.linalg.norm(grad(y)) <= tol, "reference stopped short of tol"
    return y


class TestCompositeProblem:
    def test_dimension_mismatch_rejected(self):
        g = QuarticObjective(np.eye(2), np.zeros(2), 0.5)
        h = QuarticObjective(np.eye(3), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            CompositeProblem(g, h)

    def test_zero_part_must_be_second(self):
        h = QuarticObjective(np.eye(2), np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            CompositeProblem(ZeroOracle(2), h)

    def test_swap_keeps_smaller_l3_first(self):
        big = QuarticObjective(np.eye(2), np.zeros(2), 2.0)
        small = QuarticObjective(np.eye(2), np.zeros(2), 0.1)
        with pytest.warns(UserWarning):
            prob = CompositeProblem(big, small)
        assert prob.g.lipschitz_L3 <= prob.h.lipschitz_L3

    def test_counts_start_at_zero(self):
        prob = CompositeProblem(QuarticObjective(np.eye(2), np.ones(2), 0.5),
                                QuarticObjective(np.eye(2), np.ones(2), 1.0))
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
                QuarticObjective(np.eye(1), np.zeros(1), 0.0))
        m = composite_membership(prob, np.ones(1), np.ones(1))
        assert m.lhs == pytest.approx(2.0, rel=1e-15)
        assert m.rhs == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert not m.member

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(34)
        g = QuarticObjective(0.1 * np.eye(2), 0.1 * rng.standard_normal(2), 0.2)
        h = QuarticObjective(np.eye(2), rng.standard_normal(2), 0.5)
        yield g, h, 0.2 * rng.standard_normal(2)
        # First instance of test_bdgm's composite-reference generator at
        # n = 3: the Newton step that takes the gradient from 3e-12 below
        # tol leaves the value unchanged in float64.
        rng = np.random.default_rng(4)
        n = 3
        A = rng.standard_normal((n, n))
        g = QuarticObjective(0.1 * np.eye(n), 0.1 * rng.standard_normal(n),
                             rng.uniform(0.01, 0.1))
        h = QuarticObjective(A @ A.T / n, rng.standard_normal(n),
                             rng.uniform(0.3, 1.0))
        yield g, h, 0.3 * rng.standard_normal(n)

    def test_reference_minimizer_is_member(self):
        for g, h, x_tilde in self._pairs():
            prob = CompositeProblem(g, h)
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
        assert res.counts["grad_h"] == 0
        assert res.counts["hess_g"] > 0

    def test_stationary_start_takes_one_gradient(self):
        # The zero anchor gradient the first trial measured is the final
        # gradient norm; no second call confirms it.
        orc = QuarticObjective(np.eye(2), np.zeros(2), 1.0)
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

    def test_record_invariants(self, monkeypatch):
        middle_solve = sliding._middle_solve
        trials = []

        def spy(*args):
            trials.append(middle_solve(*args))
            return trials[-1]

        monkeypatch.setattr(sliding, "_middle_solve", spy)
        rng = np.random.default_rng(36)
        g = QuarticObjective(0.1 * np.eye(3), 0.1 * rng.standard_normal(3), 0.1)
        h = QuarticObjective(np.eye(3), rng.standard_normal(3), 1.0)
        prob = CompositeProblem(g, h)
        res = solve_sliding(prob, np.zeros(3), NatmiConfig(eps=1e-8, k_max=8))
        assert res.records
        grads = [rec.n_grad for rec in res.records]
        assert all(b > a for a, b in zip(grads, grads[1:]))
        for rec in res.records:
            # Each step is the answer of one outer trial, a certified one.
            assert [t.reason for t in trials
                    if np.array_equal(t.y, rec.y)] == ["certified"]
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
        # The outer builder takes g's model and h's gradient at x0. Its one
        # middle trial's inner setup (h's gradient and Hessian, the g-model's
        # gradient and Hessian: two third calls) answers the zero gradient at
        # the floor, and the middle certificate (0 <= 0) takes g's gradient.
        assert res.counts == {"value_g": 2, "grad_g": 2, "hess_g": 1, "third_g": 2,
                              "value_h": 1, "grad_h": 2, "hess_h": 1, "third_h": 0}

    def test_invalid_regime_rejected(self):
        prob = CompositeProblem(
            QuarticObjective(np.eye(1), np.ones(1), 0.5),
            QuarticObjective(np.eye(1), np.ones(1), 1.0))
        with pytest.raises(ValueError):
            solve_sliding(prob, np.zeros(1), NatmiConfig(gamma=0.5, xi=1.0))
        with pytest.raises(ValueError, match="gamma"):
            solve_sliding(prob, np.zeros(1), NatmiConfig(gamma=0.0))

    def test_zero_part_refuses_other_xi(self):
        # With h zero the single-function inexact engine runs on g; with two
        # parts the middle loop runs the same engine on h plus g's model.
        # It is built for xi = 3/2 only, and the refusal precedes any call.
        for h in (ZeroOracle(1), QuarticObjective(np.eye(1), np.ones(1), 1.0)):
            prob = CompositeProblem(QuarticObjective(np.eye(1), np.ones(1), 0.5), h)
            with pytest.raises(ConfigError, match="xi"):
                solve_sliding(prob, np.zeros(1), NatmiConfig(xi=7.0))
            assert all(v == 0 for v in prob.counts.values())

    @pytest.mark.parametrize("subsolver", ["exact", "cg"])
    def test_refuses_other_subsolvers(self, subsolver):
        # Every level runs the inexact engine: "exact" once ran silently on
        # the one-part path (with analytic third derivatives) and was
        # ignored with two parts, and an unknown name ran as "bdgm".
        for h in (ZeroOracle(1), QuarticObjective(np.eye(1), np.ones(1), 1.0)):
            prob = CompositeProblem(QuarticObjective(np.eye(1), np.ones(1), 0.5), h)
            with pytest.raises(ConfigError, match="subsolver"):
                solve_sliding(prob, np.zeros(1), NatmiConfig(subsolver=subsolver))
            assert all(v == 0 for v in prob.counts.values())

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


def _sliding_bench(seed, eps, m=40, n=8):
    """The registered sliding_bench at problem.seed, m and n, and a solver
    config for eps at 100 outer steps."""
    cfg = harness.RunConfig(problem="sliding_bench", problem_params={
        "seed": str(seed), "m": str(m), "n": str(n)})
    return harness.make_problem(cfg), NatmiConfig(eps=eps, k_max=100)


class TestOuterCertificate:
    @pytest.mark.parametrize("seed", [0, 2, 8, 13, 36])
    def test_middle_answers_are_labelled_by_the_certificate(self, seed, monkeypatch):
        """The middle loop answers "certified" exactly when its iterate T
        meets ||grad F_mid(T)|| <= gamma*||grad f(T)||, the line natmi_exact
        tests, with no headroom. On these instances at eps 1e-10 the last
        middle answer fails it, and the run ends at accuracy_floor."""
        middle_solve = sliding._middle_solve
        answers = []

        def checked(cfg, prob, gspec, *start_and_inner):
            t = middle_solve(cfg, prob, gspec, *start_and_inner)
            # The uncounted h leaves the counters, and so the run, as they are.
            lhs = np.linalg.norm(model_grad(gspec, t.y) + prob.h.inner.grad(t.y))
            answers.append((t.reason, lhs <= cfg.gamma * np.linalg.norm(t.grad_y)))
            return t

        monkeypatch.setattr(sliding, "_middle_solve", checked)
        bundle, cfg = _sliding_bench(seed, 1e-10)
        res = solve_sliding(bundle.composite(), bundle.x0, cfg)
        assert res.status == "accuracy_floor"
        assert answers[-1] == ("accuracy_floor", False)
        for reason, meets in answers:
            assert reason in ("certified", "accuracy_floor")
            assert meets == (reason == "certified")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(10, 60),
           n=st.integers(1, 8), eps=st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_every_step_keeps_the_paper_invariants(self, seed, m, n, eps):
        """On generated sliding_bench instances every accepted outer step
        keeps the invariants natmi_exact and hyperfast keep (test_natmi)."""
        bundle, cfg = _sliding_bench(seed, eps, m, n)
        res = solve_sliding(bundle.composite(), bundle.x0, cfg)
        assert_paper_invariants(res, reference_fstar(bundle.single(), tol=1e-8), eps)


class TestPeakNorms:
    @pytest.mark.parametrize("seed", [3, 11, 5011])
    def test_max_hess_norm_covers_every_middle_trial(self, seed, monkeypatch):
        """A record's max_hess_norm is at least the anchor Hessian norm of
        every middle trial made before it, rejected trials included. The
        spy wraps h's inner builder, which each middle trial calls once,
        and notes the largest norm seen when each record is built."""
        build = sliding.oracle_subproblem
        seen, at_record = [0.0], []

        def spied(cfg, oracle):
            inner = build(cfg, oracle)

            def trial(x_t, model=None, start=None):
                t = inner(x_t, model, start)
                seen.append(max(seen[-1], t.hess_anchor_norm))
                return t
            return trial

        def record(**fields):
            at_record.append(seen[-1])
            return IterationRecord(**fields)

        monkeypatch.setattr(sliding, "oracle_subproblem", spied)
        monkeypatch.setattr(natmi, "IterationRecord", record)
        bundle, cfg = _sliding_bench(seed, 1e-6)
        res = solve_sliding(bundle.composite(), bundle.x0, cfg)
        assert len(at_record) == len(res.records) >= 1
        for rec, peak in zip(res.records, at_record):
            assert rec.max_hess_norm >= peak
        assert res.max_hess_norm == seen[-1]

    @pytest.mark.parametrize("seed", [3, 11, 5011])
    def test_max_grad_norm_covers_every_outer_anchor(self, seed, monkeypatch):
        """Each outer trial's grad_anchor_norm, and so a record's
        max_grad_norm, is at least ||grad f(x~)|| at every outer anchor x~
        made before it, rejected trials included, although the middle loops
        start away from x~. The spy wraps the g-model built once per outer
        trial and takes h's gradient uncounted."""
        build, outer_steps = sliding.ModelSpec, natmi.accelerated_steps
        prob = None
        anchor_norms, at_record = [], []

        def spied(oracle, x_t, H):
            spec = build(oracle, x_t, H)
            grad_f = spec.grad_anchor + prob.h.inner.grad(x_t)
            anchor_norms.append(float(np.linalg.norm(grad_f)))
            return spec

        def spied_outer(subproblem, *rest):
            def checked(x_t, start=None):
                t = subproblem(x_t, start=start)
                assert t.grad_anchor_norm >= anchor_norms[-1]
                return t
            return outer_steps(checked, *rest)

        def record(**fields):
            at_record.append(max(anchor_norms))
            return IterationRecord(**fields)

        monkeypatch.setattr(sliding, "ModelSpec", spied)
        monkeypatch.setattr(natmi, "accelerated_steps", spied_outer)
        monkeypatch.setattr(natmi, "IterationRecord", record)
        bundle, cfg = _sliding_bench(seed, 1e-6)
        prob = bundle.composite()
        res = solve_sliding(prob, bundle.x0, cfg)
        assert len(at_record) == len(res.records) >= 1
        for rec, peak in zip(res.records, at_record):
            assert rec.max_grad_norm >= peak
        assert res.max_grad_norm >= max(anchor_norms)


class TestMiddleStart:
    def test_each_middle_loop_starts_at_the_last_middle_answer(self, monkeypatch):
        """The first middle loop starts at the first outer anchor, and each
        later one at the previous middle answer's y, whether its outer trial
        was accepted or rejected."""
        steps, middle_solve = sliding.accelerated_steps, sliding._middle_solve
        starts, anchors, answers = [], [], []

        def spied_steps(subproblem, L3, xi, x0, *rest):
            starts.append(np.array(x0))
            return steps(subproblem, L3, xi, x0, *rest)

        def spied_middle(cfg, prob, gspec, *start_and_inner):
            anchors.append(gspec.x_tilde.copy())
            t = middle_solve(cfg, prob, gspec, *start_and_inner)
            answers.append(t.y.copy())
            return t

        monkeypatch.setattr(sliding, "accelerated_steps", spied_steps)
        monkeypatch.setattr(sliding, "_middle_solve", spied_middle)
        bundle, cfg = _sliding_bench(11, 1e-6)
        res = solve_sliding(bundle.composite(), bundle.x0, cfg)
        assert len(starts) == len(answers) > len(res.records) >= 2
        np.testing.assert_array_equal(starts[0], anchors[0])
        for start, previous, anchor in zip(starts[1:], answers, anchors[1:]):
            np.testing.assert_array_equal(start, previous)
            assert not np.array_equal(start, anchor)

    def test_each_middle_trial_after_the_first_starts_at_the_previous_answer(
            self, monkeypatch):
        """Within each middle lambda search, h's inner builder gets no start
        for the first trial and the previous trial's y for each later one."""
        steps = sliding.accelerated_steps
        searches = []

        def spied_steps(subproblem, *rest):
            calls = []

            def spy(x_t, start=None):
                t = subproblem(x_t, start=start)
                calls.append((start, t.y))
                return t

            for t, n_trials in steps(spy, *rest):
                searches.append(calls[len(calls) - n_trials:])
                yield t, n_trials

        monkeypatch.setattr(sliding, "accelerated_steps", spied_steps)
        bundle, cfg = _sliding_bench(11, 1e-6)
        solve_sliding(bundle.composite(), bundle.x0, cfg)
        assert max(len(search) for search in searches) > 1
        for search in searches:
            assert search[0][0] is None
            for (_, previous), (start, _) in zip(search, search[1:]):
                np.testing.assert_array_equal(start, previous)


class TestOuterSearchStart:
    def test_a_late_jump_starts_at_the_last_lambda(self):
        """After a jump (rho > 2) the outer search starts at lam_{k-1}. On
        sliding_bench seed 36 at eps 1e-10 that start is the trial that finds
        the floor at step 3; a start scaled past lam_{k-1} takes a fourth
        step and more Hessians. Each middle trial after the first of its
        search starts its inner solve at the previous trial's answer, and
        every inner solve stops at its first certified iterate; both move
        the h-gradients only (330 with cold floor solves, 272 with warm
        floor solves)."""
        bundle, cfg = _sliding_bench(36, 1e-10)
        res = solve_sliding(bundle.composite(), bundle.x0, cfg)
        assert (res.status, res.iters) == ("accuracy_floor", 3)
        assert {key: res.counts[key] for key in ("hess_g", "hess_h", "grad_h")} == {
            "hess_g": 7, "hess_h": 13, "grad_h": 189}


class TestWindowL3:
    """The window's L3 at each level, as accelerated_steps receives it: g's
    at the outer level (natmi's) and h's at the middle level (sliding's),
    and g's on the one-part path, which has no middle level."""

    @staticmethod
    def spy(monkeypatch) -> dict:
        seen = {"outer": [], "middle": []}
        for module, level in ((natmi, "outer"), (sliding, "middle")):
            def spied(subproblem, L3, *rest, steps=module.accelerated_steps,
                      level=level):
                seen[level].append(L3)
                return steps(subproblem, L3, *rest)
            monkeypatch.setattr(module, "accelerated_steps", spied)
        return seen

    def test_two_parts_take_g_outside_and_h_in_the_middle(self, monkeypatch):
        seen = self.spy(monkeypatch)
        bundle, _ = _sliding_bench(11, 1e-6)
        prob = bundle.composite()
        res = solve_sliding(prob, bundle.x0, NatmiConfig(eps=1e-6, k_max=2))
        L3_g, L3_h = prob.g.lipschitz_L3, prob.h.lipschitz_L3
        assert L3_g < L3_h
        assert seen["outer"] == [L3_g]
        # One middle loop per outer trial.
        assert len(seen["middle"]) >= res.iters
        assert set(seen["middle"]) == {L3_h}

    def test_one_part_takes_g(self, monkeypatch):
        seen = self.spy(monkeypatch)
        g = QuarticObjective(np.zeros((2, 2)), np.zeros(2), 0.5)
        prob = CompositeProblem(g, ZeroOracle(2))
        solve_sliding(prob, np.ones(2), NatmiConfig(eps=1e-8, k_max=3))
        assert seen == {"outer": [g.lipschitz_L3], "middle": []}


class TestWrongL3Hint:
    """h = a quartic whose L3 (3) is reported at 1e-2, beside a g with L3
    6e-5: a middle-level inner solve finds no certificate, and the one-line
    message names h's reported L3 and problems.sampled_l3's estimate of h,
    as natmi.solve does. On the one-part path the engine models g, and the
    message names g's. The runs start at 2*1, where the one-part path's
    first inner solve fails; from 0 it accepts a first step with
    sigma_observed 14.06, which outer_loop refuses first. A run that does
    not fail that way takes no estimate."""

    def parts(self):
        g = QuarticObjective(0.1 * np.eye(3), 0.1 * np.ones(3), 1e-5)
        h = QuarticObjective(np.eye(3), np.ones(3), 0.5)
        return g, h

    def failure(self, prob):
        with pytest.raises(SubproblemError) as info:
            solve_sliding(prob, 2.0 * np.ones(3), NatmiConfig(eps=1e-9, k_max=30))
        message = str(info.value)
        assert message.startswith("no certificate in 10000 iterations (last lhs ")
        assert "\n" not in message
        return message

    def test_under_reported_h_names_the_sampled_estimate(self):
        g, h = self.parts()
        h.lipschitz_L3 *= 1e-2
        message = self.failure(CompositeProblem(g, h))
        assert message.endswith("; reported L3 0.03, sampled_l3 estimate 2.97")

    def test_one_part_path_names_g(self):
        _, h = self.parts()
        h.lipschitz_L3 *= 1e-2
        message = self.failure(CompositeProblem(h, ZeroOracle(3)))
        assert message.endswith("; reported L3 0.03, sampled_l3 estimate 2.97")

    @pytest.mark.parametrize("two_parts", [True, False])
    def test_estimate_takes_the_uncounted_part(self, two_parts, monkeypatch):
        """The estimate runs on the modeled part the CompositeProblem's
        counter wraps: h with two parts, g on the one-part path."""
        g, h = self.parts()
        h.lipschitz_L3 *= 1e-2
        prob = CompositeProblem(g, h) if two_parts else CompositeProblem(h, ZeroOracle(3))
        seen = []

        def record(oracle, *args, **kwargs):
            seen.append((oracle, prob.counts))
            return sampled_l3(oracle, *args, **kwargs)

        monkeypatch.setattr(bdgm, "sampled_l3", record)
        self.failure(prob)
        [(oracle, counts)] = seen
        assert oracle is h
        assert prob.counts == counts

    def test_good_run_takes_no_estimate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled_l3 called on a good run")

        monkeypatch.setattr(bdgm, "sampled_l3", refuse)
        res = solve_sliding(CompositeProblem(*self.parts()), np.zeros(3),
                            NatmiConfig(eps=1e-9, k_max=30))
        assert res.converged
        assert res.counts["hess_h"] > 0
