"""Model-layer tests.

The regularized third-order model around an anchor is the object every
solver in the package manipulates, so its value/gradient/Hessian algebra,
the membership test, and the reference minimizer each get direct checks
against hand arithmetic and finite differences.
"""

import numpy as np
import pytest

from hyperfast.oracles import OracleCapabilityError, ProblemOracle, counted
from hyperfast.problems import QuarticObjective
from hyperfast.taylor import (
    ModelError,
    ModelSpec,
    exact_model_min,
    fd_third_action,
    membership_residual,
    model_grad,
    model_hess,
    model_value,
)

# Root of y + 2*(y-1)^3 = 0, computed by 200-step interval bisection.
HALFSQ_MODEL_ROOT = 0.41024548769854163


def _pure_quartic_1d():
    return QuarticObjective(np.zeros((1, 1)), np.zeros(1), 4.0)  # f = x^4


def _quadratic(n, rng):
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    return QuarticObjective(M.T @ M + 0.5 * np.eye(n), rng.standard_normal(n), 0.0)


class TestSpecConstruction:
    def test_anchor_data_cached(self):
        rng = np.random.default_rng(1)
        orc = _quadratic(3, rng)
        x = rng.standard_normal(3)
        spec = ModelSpec(orc, x, H=1.0)
        assert spec.value_anchor == orc.value(x)
        np.testing.assert_array_equal(spec.grad_anchor, orc.grad(x))
        np.testing.assert_array_equal(spec.hess_anchor, orc.hess(x))

    def test_h_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ModelSpec(_pure_quartic_1d(), np.zeros(1), H=-1.0)

    def test_exact_route_needs_analytic_third(self):
        """On an oracle without analytic third derivatives the difference
        route at tau = 1e-4 gives the analytic model's gradient with no
        third call, its model Hessian raises with no call, and the analytic
        route raises."""

        class NoThird(QuarticObjective):
            def third_action(self, x, s):
                return ProblemOracle.third_action(self, x, s)

            def third_dir(self, x, s):
                return ProblemOracle.third_dir(self, x, s)

        orc = counted(NoThird(np.eye(2), np.zeros(2), 1.0))
        x, y = np.array([0.3, -0.2]), np.array([0.9, 0.4])
        spec = ModelSpec(orc, x, H=1.0, third=fd_third_action, tau=1e-4)
        exact = ModelSpec(QuarticObjective(np.eye(2), np.zeros(2), 1.0), x, H=1.0)
        np.testing.assert_allclose(model_grad(spec, y), model_grad(exact, y),
                                   rtol=1e-6)
        assert (orc.n_value, orc.n_third) == (0, 0)
        before = orc.counts
        with pytest.raises(OracleCapabilityError):
            model_hess(spec, y)
        assert orc.counts == before
        analytic = ModelSpec(orc, x, H=1.0)
        with pytest.raises(OracleCapabilityError):
            model_grad(analytic, y)
        with pytest.raises(OracleCapabilityError):
            model_hess(analytic, y)

    @pytest.mark.parametrize("at_anchor", [False, True], ids=["away", "anchor"])
    def test_difference_part_has_no_third_dir(self, at_anchor):
        """A difference part's third_dir, and so its model_hess, raise before
        any oracle call, even on an oracle with analytic third derivatives
        and at the anchor itself: no Hessian differences, no analytic
        fallback."""
        orc = counted(QuarticObjective(np.eye(2), np.zeros(2), 1.0))
        x = np.array([0.3, -0.2])
        spec = ModelSpec(orc, x, H=1.0, third=fd_third_action, tau=1e-4)
        y = x if at_anchor else np.array([0.9, 0.4])
        before = orc.counts
        with pytest.raises(OracleCapabilityError):
            spec.third_dir(y - x)
        with pytest.raises(OracleCapabilityError):
            model_hess(spec, y)
        assert orc.counts == before


class TestModelValue:
    def test_anchor_value(self):
        rng = np.random.default_rng(3)
        orc = _quadratic(4, rng)
        x = rng.standard_normal(4)
        spec = ModelSpec(orc, x, H=2.0)
        assert model_value(spec, x) == pytest.approx(orc.value(x), rel=1e-14)

    def test_quadratic_offset_is_pure_regularizer(self):
        rng = np.random.default_rng(4)
        orc = _quadratic(4, rng)
        x = rng.standard_normal(4)
        spec = ModelSpec(orc, x, H=3.0)
        for _ in range(10):
            y = x + rng.standard_normal(4)
            s4 = np.linalg.norm(y - x) ** 4
            assert model_value(spec, y) - orc.value(y) == pytest.approx(
                3.0 / 6.0 * s4, rel=1e-10)

    def test_flat_anchor_quartic(self):
        """f = x^4 expanded at 0 keeps nothing but the regularizer: the
        model value is (H/6) y^4 and the model gradient (2H/3) y^3."""
        spec = ModelSpec(_pure_quartic_1d(), np.zeros(1), H=36.0)
        for y in (0.5, -1.2, 2.0):
            ya = np.array([y])
            assert model_value(spec, ya) == pytest.approx(6.0 * y**4, rel=1e-13)
            assert model_grad(spec, ya)[0] == pytest.approx(24.0 * y**3, rel=1e-13)


class TestModelGrad:
    def test_anchor_gradient(self):
        rng = np.random.default_rng(5)
        orc = _quadratic(3, rng)
        x = rng.standard_normal(3)
        spec = ModelSpec(orc, x, H=1.5)
        np.testing.assert_array_equal(model_grad(spec, x), spec.grad_anchor)

    def test_quadratic_unregularized_is_exact(self):
        rng = np.random.default_rng(6)
        orc = _quadratic(3, rng)
        x = rng.standard_normal(3)
        spec = ModelSpec(orc, x, H=0.0)
        y = x + rng.standard_normal(3)
        np.testing.assert_allclose(model_grad(spec, y), orc.grad(y), rtol=1e-12)

    def test_matches_value_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        for n in (1, 2, 5):
            orc = QuarticObjective(np.eye(n), rng.standard_normal(n), 0.8)
            for _ in range(12):
                x = rng.standard_normal(n)
                y = x + 0.5 * rng.standard_normal(n)
                spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
                g = model_grad(spec, y)
                h = 1e-6
                fd = np.empty(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = h
                    fd[i] = (model_value(spec, y + e) - model_value(spec, y - e)) / (2 * h)
                np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)
                checked += 1
        assert checked == 36

    def test_hess_matches_grad_differences(self):
        rng = np.random.default_rng(8)
        orc = QuarticObjective(np.eye(3), rng.standard_normal(3), 0.5)
        x = rng.standard_normal(3)
        y = x + 0.4 * rng.standard_normal(3)
        spec = ModelSpec(orc, x, H=2.0 * orc.lipschitz_L3)
        Hm = model_hess(spec, y)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            col = (model_grad(spec, y + e) - model_grad(spec, y - e)) / (2 * h)
            np.testing.assert_allclose(Hm[:, i], col, rtol=1e-5, atol=1e-8)


class TestMembership:
    def test_trivial_at_shared_stationary_point(self):
        spec = ModelSpec(_pure_quartic_1d(), np.zeros(1), H=36.0)
        out = membership_residual(spec, 1.0 / 6.0, np.zeros(1))
        assert out.lhs == 0.0
        assert out.rhs == 0.0
        assert out.member

    def test_hand_example_non_member(self):
        """Anchored at the flat point of x^4 with H=36, the model gradient
        at T=0.1 is 24*T^3 = 0.024 while the one-sixth target is about
        6.67e-4, so T is far outside the acceptable set."""
        spec = ModelSpec(_pure_quartic_1d(), np.zeros(1), H=36.0)
        out = membership_residual(spec, 1.0 / 6.0, np.array([0.1]))
        assert out.lhs == pytest.approx(0.024, rel=1e-12)
        assert out.rhs == pytest.approx(0.024 / 36.0, rel=1e-12)
        assert not out.member

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(11)
        orc = QuarticObjective(np.eye(2), np.array([0.3, -0.2]), 0.5)
        x = rng.standard_normal(2)
        spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
        T = x + 0.3 * rng.standard_normal(2)
        gammas = np.linspace(0.0, 0.99, 25)
        flags = [membership_residual(spec, g, T).member for g in gammas]
        for earlier, later in zip(flags, flags[1:]):
            assert later or not earlier

    def test_exact_minimizer_is_member_for_every_gamma(self):
        rng = np.random.default_rng(12)
        orc = QuarticObjective(np.eye(2), np.array([0.4, 0.1]), 0.7)
        x = rng.standard_normal(2)
        spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
        ystar = exact_model_min(spec)
        for gamma in (0.0, 1.0 / 6.0, 0.5):
            assert membership_residual(spec, gamma, ystar).member


class TestExactModelMin:
    def test_flat_quartic_minimized_at_anchor(self):
        for H in (1.0, 36.0):
            spec = ModelSpec(_pure_quartic_1d(), np.zeros(1), H=H)
            assert abs(exact_model_min(spec)[0]) <= 1e-8

    def test_half_square_shifted_anchor(self):
        """For f = x^2/2 anchored at 1 with H=3 the model gradient is
        y + 2*(y-1)^3; its root was bisected to full precision up front."""
        orc = QuarticObjective(np.eye(1), np.zeros(1), 0.0)
        spec = ModelSpec(orc, np.ones(1), H=3.0)
        y = exact_model_min(spec)
        assert y[0] == pytest.approx(HALFSQ_MODEL_ROOT, abs=1e-10)

    def test_quadratic_unregularized_is_newton_step(self):
        rng = np.random.default_rng(14)
        orc = _quadratic(4, rng)
        x = rng.standard_normal(4)
        spec = ModelSpec(orc, x, H=0.0)
        expected = x - np.linalg.solve(orc.hess(x), orc.grad(x))
        np.testing.assert_allclose(exact_model_min(spec), expected, rtol=1e-9,
                                   atol=1e-11)

    def test_nonconvex_model_raises(self):
        # Anchoring x^4 away from the origin with no regularization leaves
        # an unbounded cubic model.
        spec = ModelSpec(_pure_quartic_1d(), np.ones(1), H=0.0)
        with pytest.raises(ModelError):
            exact_model_min(spec)

    def test_dimension_cap(self):
        orc = QuarticObjective(np.eye(51), np.zeros(51), 1.0)
        spec = ModelSpec(orc, np.zeros(51), H=9.0)
        with pytest.raises(ValueError):
            exact_model_min(spec)


class TestModelConvexity:
    def test_hessian_psd_with_sufficient_regularization(self):
        """With H at least the third-derivative constant, the model must be
        convex wherever the subproblem solver can wander."""
        rng = np.random.default_rng(19)
        for n in (2, 4):
            orc = QuarticObjective(np.eye(n), rng.standard_normal(n), 0.9)
            x = rng.standard_normal(n)
            spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
            ball = 2.0 * ((2.0 + np.sqrt(2.0)) * np.linalg.norm(spec.grad_anchor)
                          / orc.lipschitz_L3) ** (1.0 / 3.0)
            for _ in range(40):
                d = rng.standard_normal(n)
                d *= rng.uniform(0.0, ball) / np.linalg.norm(d)
                lam = float(np.min(np.linalg.eigvalsh(model_hess(spec, x + d))))
                assert lam >= -1e-8
