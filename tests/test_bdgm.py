"""Subproblem-engine tests.

Covers the difference formula for third-derivative actions, the setup
arithmetic (difference step, ball radius, accuracy floor), single Bregman
steps against scalar and dense reference solves, full certified solves
against the damped-Newton reference minimizer, the solve's oracle budget and
step-scale contract, and the certificate stop of the outer loop's inner
solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfast import bdgm
from hyperfast.bdgm import (
    STEP_SCALE,
    TAU_FLOOR,
    BdgmState,
    SubproblemError,
    approx_grad,
    bregman_step,
)
from hyperfast.oracles import ProblemOracle, SumOracle, counted
from hyperfast.problems import (
    LogisticLoss,
    QuarticChain,
    QuarticObjective,
    synth_logreg,
)
from hyperfast.taylor import (
    ModelSpec,
    exact_model_min,
    fd_third_action,
    membership_residual,
    model_grad,
    model_value,
)

from crosschecks import bregman_step_dense

# 3e-6 / (8*(2+sqrt(2))), the difference step at delta=1e-6, unit gradient.
TAU_EXAMPLE = 1.0983495705504468e-07
# 2*((2+sqrt(2))/24)^(1/3), the ball radius at L3=24, unit gradient.
BALL_EXAMPLE = 1.0440544356661505
# Positive root of STEP_SCALE*(2s + 3s^3) = 0.7 by 200-step bisection.
SCALAR_STEP_ROOT = 0.10096861533445309


class _Cubic1D(ProblemOracle):
    """f(x) = x^3 on the line; only used to exercise the difference formula
    (never minimized, so convexity does not matter here)."""

    def __init__(self):
        super().__init__(1, 6.0)

    def value(self, x):
        return float(x[0] ** 3)

    def grad(self, x):
        return np.array([3.0 * x[0] ** 2])

    def hess(self, x):
        return np.array([[6.0 * x[0]]])


class TestFdThirdAction:
    def test_zero_direction(self):
        orc = QuarticObjective(np.eye(2), np.zeros(2), 1.0)
        out = fd_third_action(orc, np.ones(2), np.zeros(2), 1e-3, orc.grad(np.ones(2)))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_quadratic_gives_zero(self):
        orc = QuarticObjective(np.diag([2.0, 5.0]), np.array([1.0, -1.0]), 0.0)
        rng = np.random.default_rng(1)
        for tau in (1e-1, 1e-3):
            x = rng.standard_normal(2)
            out = fd_third_action(orc, x, rng.standard_normal(2), tau, orc.grad(x))
            np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_cubic_is_exact(self):
        orc = _Cubic1D()
        for z in (0.5, -2.0, 3.0):
            for tau in (1e-1, 1e-4):
                out = fd_third_action(orc, np.zeros(1), np.array([z]), tau,
                                      orc.grad(np.zeros(1)))
                assert out[0] == pytest.approx(6.0 * z * z, rel=1e-9)

    def test_exact_on_quartics_for_any_step(self):
        rng = np.random.default_rng(2)
        orc = QuarticObjective(np.eye(3), rng.standard_normal(3), 0.7)
        x = rng.standard_normal(3)
        s = rng.standard_normal(3)
        want = orc.third_action(x, s)
        for tau in (0.5, 1e-2, 1e-4):
            got = fd_third_action(orc, x, s, tau, orc.grad(x))
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    def test_quadratic_convergence_on_logistic(self):
        """Halving the step must quarter the error while truncation still
        dominates roundoff."""
        orc = LogisticLoss(synth_logreg(3, 60, 8), ridge=1e-3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8) * 0.3
        s = rng.standard_normal(8)
        exact, g0 = orc.third_action(x, s), orc.grad(x)
        wide = float(np.linalg.norm(fd_third_action(orc, x, s, 2e-2, g0) - exact))
        narrow = float(np.linalg.norm(fd_third_action(orc, x, s, 1e-2, g0) - exact))
        assert 3.5 <= wide / narrow <= 4.5

    def test_cached_gradient_saves_one_call(self):
        # The cached anchor gradient stands in for a third gradient call.
        co = counted(QuarticObjective(np.eye(2), np.ones(2), 0.5))
        x, s = np.zeros(2), np.ones(2)
        g0 = co.grad(x)
        co.reset()
        fd_third_action(co, x, s, 1e-2, g0)
        assert co.n_grad == 2

    def test_nonpositive_step_rejected(self):
        orc = QuarticObjective(np.eye(1), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            fd_third_action(orc, np.zeros(1), np.ones(1), 0.0, np.zeros(1))


class TestSetup:
    def test_difference_step_arithmetic(self):
        # ||grad|| = 1 and zero Hessian at the anchor make delta = eps^1.5,
        # so eps = 1e-4 pins delta = 1e-6 and the nominal step follows.
        orc = QuarticObjective(np.zeros((1, 1)), np.ones(1), 1.0 / 6.0)
        st = bdgm.setup(orc, np.zeros(1), eps=1e-4)
        assert st.delta == pytest.approx(1e-6, rel=1e-12)
        assert st.tau == pytest.approx(TAU_EXAMPLE, rel=1e-12)
        assert st.tau_used == TAU_FLOOR
        assert st.tau == pytest.approx(
            3.0 * st.delta / (8.0 * (2.0 + np.sqrt(2.0)) * st.grad_norm0),
            rel=1e-14)

    def test_ball_radius_arithmetic(self):
        orc = QuarticObjective(np.zeros((1, 1)), np.ones(1), 4.0)
        st = bdgm.setup(orc, np.zeros(1), eps=1e-8)
        assert st.L3 == 24.0
        assert st.ball_radius == pytest.approx(BALL_EXAMPLE, rel=1e-12)

    def test_zero_gradient_short_circuit(self):
        # A zero anchor gradient fails the floor test theta_abs < gamma*||g0||
        # as 0 < 0: the anchor is the floor answer, with no step taken.
        orc = QuarticObjective(np.eye(2), np.zeros(2), 1.0)
        st = bdgm.setup(orc, np.zeros(2), eps=1e-8)
        assert st.solved_reason == "accuracy_floor"
        res = bdgm.solve(st)
        assert (res.iters, res.reason) == (0, "accuracy_floor")
        np.testing.assert_array_equal(res.z, np.zeros(2))

    def test_accuracy_floor_short_circuit(self):
        # Asking for eps far above the anchor gradient scale makes the
        # difference-error margin unmeetable; setup reports it up front.
        orc = QuarticObjective(np.zeros((1, 1)), np.ones(1), 0.25)
        st = bdgm.setup(orc, np.zeros(1), eps=10.0)
        assert st.solved_reason == "accuracy_floor"
        res = bdgm.solve(st)
        assert res.reason == "accuracy_floor"
        np.testing.assert_array_equal(res.z, np.zeros(1))

    def test_bad_eps_rejected(self):
        orc = QuarticObjective(np.eye(1), np.ones(1), 1.0)
        with pytest.raises(ValueError):
            bdgm.setup(orc, np.zeros(1), eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        """NaN fails every comparison, so it passed an eps <= 0 test and
        gave theta = nan, which the floor test read as accuracy_floor."""
        orc = counted(QuarticObjective(np.eye(1), np.ones(1), 0.5))
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            bdgm.setup(orc, np.zeros(1), eps=eps)
        assert orc.counts == {"value": 0, "grad": 0, "hess": 0, "third": 0}

    def test_step_scale_constant(self):
        assert STEP_SCALE == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-15)

    @staticmethod
    def _theta(st, terms):
        """max(delta, 2*noise), with noise the roundoff of the gradient
        differences: 4*eps*(terms + ||B||*ball + L3*ball^3)/tau^2."""
        noise = (4.0 * float(np.finfo(np.float64).eps)
                 * (terms + st.hess_norm0 * st.ball_radius + st.L3 * st.ball_radius**3)
                 / st.tau_used**2)
        return max(st.delta, 2.0 * noise)

    def test_roundoff_term_is_the_gradient_terms(self):
        """Near the optimum the terms the gradient sums (here ||Qx|| + ||c||)
        exceed ||g0||, and the roundoff term takes them, from one gradient
        and one Hessian call."""
        Q, c = np.diag([1.0, 2.0]), np.array([1.0, -1.0])
        orc = counted(QuarticObjective(Q, c, 0.0))
        x = np.array([-1.0, 0.5]) + 1e-6
        st = bdgm.setup(orc, x, eps=1e-9)
        terms = orc.grad_term_bound(x)
        assert terms > 1e3 * st.grad_norm0
        assert st.theta_abs == self._theta(st, terms) > self._theta(st, st.grad_norm0)
        assert (orc.n_grad, orc.n_hess) == (1, 1)

    def test_no_bound_keeps_the_gradient_norm(self):
        """An oracle with no bound (QuarticChain) sizes the roundoff term
        from ||g0|| alone, bit for bit as before bounds existed."""
        orc = QuarticChain(3)
        x = np.array([0.3, -0.2, 0.5])
        assert orc.grad_term_bound(x) is None
        st = bdgm.setup(orc, x, eps=1e-9)
        assert st.theta_abs == self._theta(st, st.grad_norm0)

    def test_call_budget_of_the_parts(self):
        """setup takes one gradient and one Hessian of the oracle, no value
        and no third derivative. A g-model part, anchored elsewhere, adds
        one third_action and one third_dir of g at x~ and no value."""
        g_calls = []

        class RecordedThird(QuarticObjective):
            def third_action(self, x, s):
                g_calls.append(("third_action", x.copy(), s.copy()))
                return super().third_action(x, s)

            def third_dir(self, x, s):
                g_calls.append(("third_dir", x.copy(), s.copy()))
                return super().third_dir(x, s)

        rng = np.random.default_rng(24)
        h = counted(LogisticLoss(synth_logreg(3, 60, 4), ridge=1e-3))
        g = counted(RecordedThird(0.1 * np.eye(4), 0.1 * np.ones(4), 2e-5))
        x_outer, x = 0.5 * rng.standard_normal(4), 0.5 * rng.standard_normal(4)
        bdgm.setup(h, x, eps=1e-8)
        assert h.counts == {"value": 0, "grad": 1, "hess": 1, "third": 0}
        gspec = ModelSpec(g, x_outer, H=1.5 * g.lipschitz_L3)
        h.reset()
        g.reset()
        bdgm.setup(h, x, eps=1e-8, model=gspec)
        assert h.counts == {"value": 0, "grad": 1, "hess": 1, "third": 0}
        assert g.counts == {"value": 0, "grad": 0, "hess": 0, "third": 2}
        assert sorted(name for name, _, _ in g_calls) == ["third_action", "third_dir"]
        for _, at, s in g_calls:
            np.testing.assert_array_equal(at, x_outer)
            np.testing.assert_array_equal(s, x - x_outer)


class TestApproxGrad:
    def test_at_anchor_returns_cached_gradient(self):
        orc = QuarticObjective(np.eye(2), np.array([0.5, -0.25]), 0.5)
        st = bdgm.setup(orc, np.zeros(2), eps=1e-8)
        out = approx_grad(st, np.zeros(2))
        np.testing.assert_array_equal(out, st.g0)
        assert out is not st.g0

    def test_quadratic_matches_model_gradient_exactly(self):
        rng = np.random.default_rng(7)
        orc = QuarticObjective(np.diag([1.0, 3.0]), rng.standard_normal(2), 0.0)
        x = rng.standard_normal(2)
        st = bdgm.setup(orc, x, eps=1e-8)
        spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
        for _ in range(5):
            z = x + 0.3 * rng.standard_normal(2)
            np.testing.assert_allclose(approx_grad(st, z), model_grad(spec, z),
                                       rtol=1e-9, atol=1e-12)

    def test_quartic_matches_model_gradient(self):
        rng = np.random.default_rng(8)
        orc = QuarticObjective(np.eye(3), rng.standard_normal(3), 0.9)
        x = rng.standard_normal(3) * 0.5
        st = bdgm.setup(orc, x, eps=1e-8)
        spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
        for _ in range(5):
            z = x + 0.2 * rng.standard_normal(3)
            np.testing.assert_allclose(approx_grad(st, z), model_grad(spec, z),
                                       rtol=1e-7, atol=1e-10)


class TestBregmanStep:
    def test_zero_gradient_stays_put(self):
        orc = QuarticObjective(np.eye(2), np.array([1.0, 0.0]), 0.5)
        st = bdgm.setup(orc, np.zeros(2), eps=1e-8)
        z_i = st.x_tilde + np.array([0.05, -0.02])
        out = bregman_step(st, z_i, np.zeros(2), STEP_SCALE,
                           bdgm._rho_grad(st, z_i - st.x_tilde))
        np.testing.assert_allclose(out, z_i, atol=1e-12)

    def test_scalar_reference_root(self):
        """One step from the anchor solves a*(mu*s + L3*s^3) = -g in 1D;
        the root for mu=2, L3=3, g=-0.7 was bisected up front."""
        orc = QuarticObjective(np.array([[2.0]]), np.array([0.7]), 0.5)
        st = bdgm.setup(orc, np.zeros(1), eps=1e-8)
        assert st.L3 == 3.0
        out = bregman_step(st, st.x_tilde, np.array([-0.7]), STEP_SCALE,
                           np.zeros(1))
        assert out[0] == pytest.approx(SCALAR_STEP_ROOT, abs=1e-11)

    def test_first_order_condition_interior(self):
        rng = np.random.default_rng(11)
        for n in (2, 5):
            M = rng.standard_normal((n, n)) / np.sqrt(n)
            orc = QuarticObjective(M.T @ M + 0.2 * np.eye(n),
                                   rng.standard_normal(n), 0.6)
            x = 0.3 * rng.standard_normal(n)
            st = bdgm.setup(orc, x, eps=1e-8)
            z_i = x + 0.05 * rng.standard_normal(n)
            g = 0.1 * rng.standard_normal(n)
            z_next = bregman_step(st, z_i, g, STEP_SCALE,
                                  bdgm._rho_grad(st, z_i - x))
            s_i = z_i - x
            s_n = z_next - x
            rho = lambda s: st.B @ s + st.L3 * float(s @ s) * s
            resid = STEP_SCALE * (rho(s_n) - rho(s_i)) + g
            assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(g))

    def test_dense_and_eig_paths_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n)) / np.sqrt(n)
            orc = QuarticObjective(M.T @ M + 0.1 * np.eye(n),
                                   rng.standard_normal(n), 0.8)
            x = 0.2 * rng.standard_normal(n)
            st = bdgm.setup(orc, x, eps=1e-8)
            z_i = x + 0.03 * rng.standard_normal(n)
            g = rng.standard_normal(n)
            a = bregman_step(st, z_i, g, STEP_SCALE, bdgm._rho_grad(st, z_i - x))
            b = bregman_step_dense(st, z_i, g)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_boundary_case_lands_on_ball(self):
        orc = QuarticObjective(np.eye(2), np.array([0.1, 0.0]), 0.5)
        st = bdgm.setup(orc, np.zeros(2), eps=1e-8)
        g = np.array([500.0, -250.0])
        out = bregman_step(st, st.x_tilde, g, STEP_SCALE, np.zeros(2))
        assert np.linalg.norm(out - st.x_tilde) == pytest.approx(
            st.ball_radius, abs=1e-10)
        out_dense = bregman_step_dense(st, st.x_tilde, g)
        np.testing.assert_allclose(out, out_dense, atol=1e-10)

    def test_model_value_decreases_until_certified(self):
        """Replay the solve loop by hand on an exact-third-derivative
        problem and check the regularized model value never increases."""
        rng = np.random.default_rng(13)
        orc = QuarticObjective(np.eye(3), rng.standard_normal(3), 0.5)
        x = rng.standard_normal(3) * 0.4
        st = bdgm.setup(orc, x, eps=1e-8)
        spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
        z = st.x_tilde.copy()
        previous = model_value(spec, z)
        for _ in range(60):
            z = bregman_step(st, z, approx_grad(st, z), STEP_SCALE,
                             bdgm._rho_grad(st, z - x))
            current = model_value(spec, z)
            assert current <= previous + 1e-12
            previous = current


class TestSolve:
    def test_agrees_with_reference_minimizer(self):
        orc = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 0.25)
        st = bdgm.setup(orc, np.ones(1), eps=1e-8)
        res = bdgm.solve(st)
        assert res.reason == "certified"
        spec = ModelSpec(orc, np.ones(1), H=1.5 * orc.lipschitz_L3)
        ystar = exact_model_min(spec)
        assert np.linalg.norm(res.z - ystar) <= 1e-4 * (1.0 + np.linalg.norm(ystar))

    def test_certified_answer_is_member(self):
        rng = np.random.default_rng(15)
        for n in (2, 4):
            orc = QuarticObjective(np.eye(n), rng.standard_normal(n), 0.7)
            x = 0.5 * rng.standard_normal(n)
            st = bdgm.setup(orc, x, eps=1e-8)
            res = bdgm.solve(st)
            spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
            assert membership_residual(spec, 1.0 / 6.0, res.z).member

    def test_truncation_keeps_a_floor_answer_uncertified(self):
        """An answer at the floor whose estimate lies above the certificate
        line less the difference's truncation (L3/6)*tau_used*||s||^3, and
        below the line itself, is not certified; at a quarter of the step
        the same answer is. On the quadratic s^2/2 - s with L3 = 1, one step
        at scale 1 from the anchor lands on the model minimizer s^3 + s = 1,
        where grad F = -s^3."""
        orc = QuarticObjective(np.eye(1), np.array([-1.0]), 0.0)
        state = _hand_built_state(orc, np.eye(1), theta=1.0, gamma=1.0 / 6.0)
        z1 = bregman_step(state, state.x_tilde, state.g0, 1.0, np.zeros(1))
        line = state.gamma * abs(float(orc.grad(z1)[0]))
        trunc = orc.lipschitz_L3 / 6.0 * TAU_FLOOR * abs(float(z1[0])) ** 3
        state.theta_abs = line - 0.5 * trunc
        lhs = float(np.linalg.norm(approx_grad(state, z1)))
        assert line - state.theta_abs - trunc < lhs <= line - state.theta_abs
        res = bdgm.solve(state)
        assert (res.iters, res.reason) == (1, "accuracy_floor")
        np.testing.assert_array_equal(res.z, z1)
        state.parts[0].tau = 0.25 * TAU_FLOOR
        res = bdgm.solve(state)
        assert (res.iters, res.reason) == (1, "certified")
        np.testing.assert_array_equal(res.z, z1)

    def test_iteration_count_growth_is_additive(self):
        # Tightening eps by two decades may add iterations but not multiply
        # them; the full four-decade sweep lives in the acceptance tests.
        orc = QuarticObjective(np.eye(2), np.array([0.8, -0.6]), 0.5)
        iters = {}
        for eps in (1e-6, 1e-8):
            st = bdgm.setup(orc, np.zeros(2), eps=eps)
            iters[eps] = bdgm.solve(st).iters
        assert iters[1e-8] - iters[1e-6] <= 40

    def test_budget_exhaustion_raises(self, monkeypatch):
        orc = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 0.25)
        st = bdgm.setup(orc, np.ones(1), eps=1e-8)
        monkeypatch.setattr(bdgm, "_MAX_ITERS", 1)
        with pytest.raises(SubproblemError):
            bdgm.solve(st)

    def test_model_part_matches_composite_reference(self):
        """Given a cached model of g, the engine minimizes [model of h] +
        [model of g]: its model gradient is the two parts' gradients, its
        answer is the composite minimizer and its result carries h's own
        gradient there."""
        rng = np.random.default_rng(16)
        n = 3
        for _ in range(3):
            A = rng.standard_normal((n, n))
            g = QuarticObjective(0.1 * np.eye(n), 0.1 * rng.standard_normal(n),
                                 rng.uniform(0.01, 0.1))
            h = QuarticObjective(A @ A.T / n, rng.standard_normal(n),
                                 rng.uniform(0.3, 1.0))
            x = 0.3 * rng.standard_normal(n)
            gspec = ModelSpec(g, x, H=1.5 * g.lipschitz_L3)
            hspec = ModelSpec(h, x, H=1.5 * h.lipschitz_L3)
            st = bdgm.setup(h, x, eps=1e-8, model=gspec)
            for _ in range(4):
                z = x + 0.2 * rng.standard_normal(n)
                want = model_grad(hspec, z) + model_grad(gspec, z)
                got = approx_grad(st, z)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            res = bdgm.solve(st)
            # Taylor terms add, so the two models sum to the model of g + h
            # at weight H_g + H_h, and its reference minimizer is the
            # composite one.
            ystar = exact_model_min(ModelSpec(SumOracle(g, h), x, H=gspec.H + hspec.H))
            assert np.linalg.norm(res.z - ystar) <= 1e-4 * (1.0 + np.linalg.norm(ystar))
            np.testing.assert_array_equal(res.oracle_grad_at_z, h.grad(res.z))


def _hand_built_state(orc, B, theta, gamma):
    """A 1-d engine state at the anchor 0 with one difference part of orc,
    whose Hessian a test may overwrite, kernel Hessian B and margin theta."""
    part = ModelSpec(orc, np.zeros(1), H=1.5 * orc.lipschitz_L3,
                     third=fd_third_action, tau=TAU_FLOOR)
    g0 = part.grad_anchor
    return BdgmState(
        x_tilde=np.zeros(1), gamma=gamma, g0=g0, B=B, L3=orc.lipschitz_L3,
        grad_norm0=float(np.linalg.norm(g0)), hess_norm0=float(B[0, 0]),
        delta=theta, tau=TAU_FLOOR, tau_used=TAU_FLOOR, theta_abs=theta,
        ball_radius=10.0, evals=B[0].copy(), evecs=np.eye(1), solved_reason=None,
        parts=(part,))


def _recording_steps(monkeypatch):
    """Route bdgm.bregman_step through a wrapper; returns the list of
    (scale, new point) pairs it sees."""
    step = bdgm.bregman_step
    seen = []

    def recording(state, z, g, scale=STEP_SCALE, rho=None):
        out = step(state, z, g, scale, rho)
        seen.append((scale, out))
        return out

    monkeypatch.setattr(bdgm, "bregman_step", recording)
    return seen


class TestEngineContract:
    def test_gradient_budget_per_solve(self, monkeypatch):
        """A solve spends two gradients per Bregman step, rejected steps
        included, plus one target gradient at its answer when it stepped;
        with a model part, these are the oracle part's gradients, and g's
        part takes one third_action per step and one at the answer. Each
        step takes one approx_grad, at its new point, and none runs at the
        anchor, where the solve starts from setup's g0. It takes rho' once
        per step, at the step's new point, plus once at the anchor: the
        next step reuses the accepted point's."""
        steps = _recording_steps(monkeypatch)
        rho_grad, approx = bdgm._rho_grad, bdgm.approx_grad
        rho_calls, approx_at = [], []

        def counting(state, s):
            rho_calls.append(1)
            return rho_grad(state, s)

        def recording(state, z):
            approx_at.append(z.copy())
            return approx(state, z)

        def assert_one_approx_grad_per_step(st):
            assert len(approx_at) == len(steps)
            assert all((z != st.x_tilde).any() for z in approx_at)

        monkeypatch.setattr(bdgm, "_rho_grad", counting)
        monkeypatch.setattr(bdgm, "approx_grad", recording)
        rng = np.random.default_rng(21)
        problems = (LogisticLoss(synth_logreg(3, 60, 8), ridge=1e-3),
                    QuarticObjective(np.diag([1.0, 2.0, 0.5]),
                                     np.array([0.8, -0.6, 0.3]), 0.5))
        n_steps = n_iters = 0
        for orc in problems:
            co = counted(orc)
            for _ in range(6):
                x = 0.5 * rng.standard_normal(orc.dim)
                st = bdgm.setup(co, x, eps=1e-8)
                co.reset()
                steps.clear()
                rho_calls.clear()
                approx_at.clear()
                res = bdgm.solve(st)
                assert co.n_grad == 2 * len(steps) + (res.iters > 0)
                assert len(rho_calls) == len(steps) + (st.solved_reason is None)
                assert_one_approx_grad_per_step(st)
                n_steps += len(steps)
                n_iters += res.iters
        # Some steps were rejected, so the identity covers them too.
        assert n_steps > n_iters

        # With a cached model of g as a second part the budget is in
        # h-gradients alone; g is reached through its cached model only.
        # g's L3 is about 1e-3 of h's, as on sliding_bench.
        g = counted(QuarticObjective(0.1 * np.eye(8), 0.1 * np.ones(8), 2e-5))
        h = counted(problems[0])
        n_steps = n_iters = 0
        for _ in range(6):
            x = 0.5 * rng.standard_normal(h.dim)
            gspec = ModelSpec(g, x, H=1.5 * g.lipschitz_L3)
            st = bdgm.setup(h, x, eps=1e-8, model=gspec)
            g.reset()
            h.reset()
            steps.clear()
            rho_calls.clear()
            approx_at.clear()
            res = bdgm.solve(st)
            assert h.n_grad == 2 * len(steps) + (res.iters > 0)
            assert len(rho_calls) == len(steps) + (st.solved_reason is None)
            assert_one_approx_grad_per_step(st)
            assert g.counts == {"value": 0, "grad": 0, "hess": 0,
                                "third": len(steps) + (res.iters > 0)}
            n_steps += len(steps)
            n_iters += res.iters
        assert n_steps > n_iters

    @pytest.mark.parametrize("factor, accepted", [(1.0 - 1e-6, 1.0), (1.0 + 1e-6, 2.0)])
    def test_curvature_margin_is_two_theta_step(self, factor, accepted):
        """A step at scale 1 whose curvature excess
        <g(z+) - g(z), d> - <rho'(z+) - rho'(z), d> lies just under
        2*theta*||d|| is accepted; just over it, the scale doubles and the
        step at scale 2 is accepted. Either way the next step's scale is the
        accepted one divided by 1.5, down to 1: 1 and 4/3. The
        oracle is linear, so its gradient differences are exactly 0, and its
        L3 equals the state's: the excess is (hess_anchor - B)*d^2, set
        through the hand-built difference part's Hessian."""
        orc = QuarticObjective(np.zeros((1, 1)), np.array([-0.5]), 0.0)
        theta = 0.05
        anchor, g0, B = np.zeros(1), np.array([-0.5]), np.eye(1)
        state = _hand_built_state(orc, B, theta, gamma=1.0 / 6.0)
        part = state.parts[0]
        rho = np.zeros(1)
        z1 = bregman_step(state, anchor, g0, 1.0, rho)
        d = float(z1[0])
        part.hess_anchor = B + factor * 2.0 * theta / abs(d)
        z, _, _, _, scale = bdgm._accepted_step(state, anchor, g0, rho, 1.0)
        assert scale == max(1.0, accepted / 1.5)
        np.testing.assert_array_equal(z, bregman_step(state, anchor, g0, accepted, rho))

    def test_next_scale_after_an_accepted_step(self, monkeypatch):
        """After an accept at scale c the next step starts at max(1, c/1.5),
        whether c passed on the first try or after doublings, with or
        without a model part; both kinds of accept occur."""
        steps = _recording_steps(monkeypatch)
        accepted = bdgm._accepted_step
        seen = []

        def recording(state, z, g_hat, rho_z, scale):
            steps.clear()
            out = accepted(state, z, g_hat, rho_z, scale)
            seen.append((len(state.parts) > 1, [c for c, _ in steps], out[-1]))
            return out

        monkeypatch.setattr(bdgm, "_accepted_step", recording)
        orc = LogisticLoss(synth_logreg(3, 60, 8), ridge=1e-3)
        rng = np.random.default_rng(23)
        for _ in range(4):
            bdgm.solve(bdgm.setup(orc, 0.5 * rng.standard_normal(orc.dim), eps=1e-8))
        # A model part of g with about 1e-3 of h's L3, as on sliding_bench.
        g = QuarticObjective(0.1 * np.eye(orc.dim), 0.1 * np.ones(orc.dim), 2e-5)
        for _ in range(4):
            x = 0.5 * rng.standard_normal(orc.dim)
            gspec = ModelSpec(g, x, H=1.5 * g.lipschitz_L3)
            bdgm.solve(bdgm.setup(orc, x, eps=1e-8, model=gspec))
        for with_model in (False, True):
            accepts = [(tried, nxt) for m, tried, nxt in seen if m == with_model]
            assert any(len(tried) == 1 for tried, _ in accepts)
            assert any(len(tried) > 1 for tried, _ in accepts)
            for tried, nxt in accepts:
                assert nxt == max(1.0, tried[-1] / 1.5)


def _same_result(a, b):
    assert (a.iters, a.reason) == (b.iters, b.reason)
    for field in ("z", "grad_at_z", "oracle_grad_at_z"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestWarmStart:
    """solve(state, start=z0) starts at z0 when it lies in the anchor ball,
    else at x~, as a solve with no start does."""

    def problems(self):
        return (LogisticLoss(synth_logreg(3, 60, 8), ridge=1e-3),
                QuarticObjective(np.diag([1.0, 2.0, 0.5]), np.array([0.8, -0.6, 0.3]), 0.5))

    def test_no_start_or_one_outside_the_ball_keeps_the_result(self):
        rng = np.random.default_rng(41)
        for orc in self.problems():
            co = counted(orc)
            for _ in range(4):
                st = bdgm.setup(co, 0.5 * rng.standard_normal(orc.dim), eps=1e-8)
                co.reset()
                cold = bdgm.solve(st)
                calls = co.counts
                u = rng.standard_normal(orc.dim)
                outside = st.x_tilde + 1.001 * st.ball_radius * u / np.linalg.norm(u)
                for start in (None, outside):
                    co.reset()
                    _same_result(bdgm.solve(st, start=start), cold)
                    assert co.counts == calls

    def test_one_approx_grad_at_the_start_and_one_per_try(self, monkeypatch):
        """A warm solve takes approx_grad once at its start, never at x~,
        and once per Bregman try; rho' likewise. Its oracle gradients are
        two per approx_grad plus the one target gradient at its answer. It
        lands on the same floor answer as the cold solve, to the reference
        comparison's tolerance."""
        steps = _recording_steps(monkeypatch)
        approx, rho_grad = bdgm.approx_grad, bdgm._rho_grad
        approx_at, rho_calls = [], []

        def recording(state, z):
            approx_at.append(z.copy())
            return approx(state, z)

        def counting(state, s):
            rho_calls.append(1)
            return rho_grad(state, s)

        monkeypatch.setattr(bdgm, "approx_grad", recording)
        monkeypatch.setattr(bdgm, "_rho_grad", counting)
        rng = np.random.default_rng(42)
        warm_tries = cold_tries = 0
        for orc in self.problems():
            co = counted(orc)
            for _ in range(4):
                x = 0.5 * rng.standard_normal(orc.dim)
                start = bdgm.solve(bdgm.setup(co, x, eps=1e-8)).z
                st = bdgm.setup(co, x + 0.05 * rng.standard_normal(orc.dim), eps=1e-8)
                assert np.linalg.norm(start - st.x_tilde) <= st.ball_radius
                steps.clear()
                cold = bdgm.solve(st)
                cold_tries += len(steps)
                co.reset()
                steps.clear()
                approx_at.clear()
                rho_calls.clear()
                warm = bdgm.solve(st, start=start)
                warm_tries += len(steps)
                np.testing.assert_array_equal(approx_at[0], start)
                assert len(approx_at) == len(steps) + 1
                assert all((z != st.x_tilde).any() for z in approx_at)
                assert len(rho_calls) == len(steps) + 1
                assert co.n_grad == 2 * len(approx_at) + 1
                assert warm.reason in ("certified", "accuracy_floor")
                assert np.linalg.norm(warm.z - cold.z) <= 1e-4 * (1.0 + np.linalg.norm(cold.z))
        assert warm_tries < cold_tries


def _anchor(kind, seed):
    """A subproblem anchor of the given kind: a convex quartic, a logistic
    loss, or sliding's two parts, a logistic h beside the model of a
    quartic g with 1e-3 of h's L3 (as on sliding_bench). Returns the
    oracle, the anchor and the model part (None without one)."""
    rng = np.random.default_rng(seed)
    if kind == "quartic":
        n = int(rng.integers(1, 5))
        M = rng.standard_normal((n, n))
        orc = QuarticObjective(M @ M.T / n, rng.standard_normal(n), rng.uniform(0.05, 1.0))
        return orc, 0.5 * rng.standard_normal(n), None
    n = int(rng.integers(2, 10))
    orc = LogisticLoss(synth_logreg(seed, int(rng.integers(20, 80)), n), ridge=1e-3)
    x = 0.5 * rng.standard_normal(n)
    if kind == "logistic":
        return orc, x, None
    g = QuarticObjective(0.1 * np.eye(n), 0.1 * rng.standard_normal(n),
                         1e-3 * orc.lipschitz_L3 / 6.0)
    return orc, x, ModelSpec(g, x, H=1.5 * g.lipschitz_L3)


class TestCertificateStop:
    """solve(state, certificate_stop=True), the inner solve of the outer
    loop's builder, also checks the certificate above the floor and answers
    at the first iterate that passes."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["quartic", "logistic", "sliding"]),
           seed=st.integers(0, 2**16), eps=st.sampled_from([1e-6, 1e-8, 1e-10]),
           warm=st.booleans())
    def test_answer_line_ball_steps_and_gradients(self, kind, seed, eps, warm):
        """A certified answer meets the line recomputed from grad_at_z and
        from the oracle, every answer lies in the ball, and the solve takes
        no more accepted steps than the floor solve of the same state; an
        accuracy_floor answer is the floor solve's. Its oracle gradients are
        two per approx_grad, at each try and at a start inside the ball, plus
        one per certificate check, with at most one check per iterate."""
        orc, x, model = _anchor(kind, seed)
        start = None
        if warm:
            near = x + 0.05 * np.random.default_rng(seed + 1).standard_normal(x.size)
            start = bdgm.solve(bdgm.setup(orc, near, eps, model=model)).z
        co = counted(orc)
        state = bdgm.setup(co, x, eps, model=model)
        floor = bdgm.solve(state, start)
        started = (start is not None and state.solved_reason is None
                   and np.linalg.norm(start - x) <= state.ball_radius)
        with pytest.MonkeyPatch.context() as patch:
            steps = _recording_steps(patch)
            checks = []
            target_grad = bdgm._target_grad

            def counting(state, z):
                checks.append(z.copy())
                return target_grad(state, z)

            patch.setattr(bdgm, "_target_grad", counting)
            co.reset()
            res = bdgm.solve(state, start, certificate_stop=True)
            assert co.n_grad == 2 * (len(steps) + started) + len(checks)
        assert len(checks) <= res.iters + 1
        assert res.iters <= floor.iters
        assert np.linalg.norm(res.z - x) <= state.ball_radius * (1.0 + 1e-9)
        if res.reason == "accuracy_floor":
            _same_result(res, floor)
            return
        assert res.reason == "certified"
        lhs = np.linalg.norm(approx_grad(state, res.z))
        trunc = (orc.lipschitz_L3 / 6.0 * state.parts[0].tau
                 * np.linalg.norm(res.z - x) ** 3)
        recomputed = orc.grad(res.z)
        if model is not None:
            recomputed = recomputed + model_grad(model, res.z)
        for grad in (res.grad_at_z, recomputed):
            assert lhs <= state.gamma * np.linalg.norm(grad) - state.theta_abs - trunc

    def test_stops_before_the_floor(self):
        """On logistic anchors, alone and with a model part, the stop saves
        accepted steps and oracle gradients against the floor solve."""
        for kind in ("logistic", "sliding"):
            saved_steps = saved_grads = 0
            for seed in range(4):
                orc, x, model = _anchor(kind, seed)
                co = counted(orc)
                state = bdgm.setup(co, x, 1e-9, model=model)
                co.reset()
                floor = bdgm.solve(state)
                floor_grads = co.n_grad
                co.reset()
                res = bdgm.solve(state, certificate_stop=True)
                assert res.reason == "certified"
                saved_steps += floor.iters - res.iters
                saved_grads += floor_grads - co.n_grad
            assert saved_steps > 0 and saved_grads > 0
