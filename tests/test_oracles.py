"""Oracle layer tests: base-class contracts, composition, call counting,
and the finite-difference self-checks used by every layer above."""

import numpy as np
import pytest

from hyperfast.oracles import (
    CountedOracle,
    OracleCapabilityError,
    ProblemOracle,
    SumOracle,
    ZeroOracle,
    counted,
    operator_norm,
)
from hyperfast.problems import QuarticObjective, synth_logreg, LogisticLoss

from crosschecks import fd_check_grad, fd_check_hess


def _random_quartic(rng, n):
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    return QuarticObjective(M.T @ M + 0.1 * np.eye(n), rng.standard_normal(n),
                            float(rng.uniform(0.1, 1.0)))


class TestBaseContract:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            ProblemOracle(0, 1.0)
        with pytest.raises(ValueError):
            ProblemOracle(-3, 1.0)

    def test_l3_validation(self):
        with pytest.raises(ValueError):
            ProblemOracle(2, 0.0)
        with pytest.raises(ValueError):
            ProblemOracle(2, -1.0)
        with pytest.raises(ValueError):
            ProblemOracle(2, float("inf"))

    def test_zero_l3_needs_opt_in(self):
        orc = ProblemOracle(2, 0.0, allow_zero_l3=True)
        assert orc.lipschitz_L3 == 0.0

    def test_point_shape_rejected(self):
        orc = QuarticObjective(np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            orc.value(np.zeros(3))

    def test_nonfinite_point_rejected(self):
        orc = QuarticObjective(np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            orc.grad(np.array([1.0, np.nan]))

    def test_third_capability_error(self):
        class NoThird(ProblemOracle):
            pass

        orc = NoThird(2, 1.0)
        with pytest.raises(OracleCapabilityError):
            orc.third_action(np.zeros(2), np.ones(2))
        with pytest.raises(OracleCapabilityError):
            orc.third_dir(np.zeros(2), np.ones(2))


class TestZeroOracle:
    """The degenerate part used when a composite problem has no second term."""

    def test_everything_is_zero(self):
        z = ZeroOracle(3)
        x = np.array([1.0, -2.0, 0.5])
        s = np.array([0.3, 0.0, 1.0])
        assert z.value(x) == 0.0
        assert np.all(z.grad(x) == 0.0)
        assert np.all(z.hess(x) == 0.0)
        assert np.all(z.third_action(x, s) == 0.0)
        assert np.all(z.third_dir(x, s) == 0.0)

    def test_flags(self):
        z = ZeroOracle(2)
        assert z.is_zero
        assert z.has_third
        assert z.lipschitz_L3 == 0.0


class TestSumOracle:
    def test_matches_component_sums(self):
        rng = np.random.default_rng(17)
        a = _random_quartic(rng, 4)
        b = _random_quartic(rng, 4)
        s = SumOracle(a, b)
        assert s.lipschitz_L3 == a.lipschitz_L3 + b.lipschitz_L3
        for _ in range(10):
            x = rng.standard_normal(4)
            d = rng.standard_normal(4)
            assert s.value(x) == pytest.approx(a.value(x) + b.value(x), rel=1e-14)
            np.testing.assert_allclose(s.grad(x), a.grad(x) + b.grad(x), rtol=1e-14)
            np.testing.assert_allclose(s.hess(x), a.hess(x) + b.hess(x), rtol=1e-14)
            np.testing.assert_allclose(s.third_action(x, d),
                                       a.third_action(x, d) + b.third_action(x, d),
                                       rtol=1e-13, atol=1e-15)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SumOracle(_random_quartic(rng, 2), _random_quartic(rng, 3))


class TestCountedOracle:
    def test_counts_each_kind(self):
        rng = np.random.default_rng(2)
        co = counted(_random_quartic(rng, 3))
        x = rng.standard_normal(3)
        s = rng.standard_normal(3)
        co.value(x)
        co.grad(x)
        co.grad(x)
        co.hess(x)
        co.third_action(x, s)
        assert (co.n_value, co.n_grad, co.n_hess, co.n_third) == (1, 2, 1, 1)
        co.reset()
        assert (co.n_value, co.n_grad, co.n_hess, co.n_third) == (0, 0, 0, 0)

    def test_wrapping_is_idempotent(self):
        rng = np.random.default_rng(2)
        co = counted(_random_quartic(rng, 3))
        assert counted(co) is co

    def test_forwards_flags(self):
        co = counted(ZeroOracle(2))
        assert co.is_zero
        assert co.has_third
        assert isinstance(co, CountedOracle)

    def test_results_unchanged(self):
        rng = np.random.default_rng(9)
        orc = _random_quartic(rng, 3)
        co = counted(orc)
        x = rng.standard_normal(3)
        assert co.value(x) == orc.value(x)
        np.testing.assert_array_equal(co.grad(x), orc.grad(x))


class TestFdSelfChecks:
    """The difference checks must report tiny defects on analytic oracles;
    they are the referee for every hand-written derivative in the package."""

    def test_grad_defect_small(self):
        rng = np.random.default_rng(31)
        for n in (1, 3, 6):
            orc = _random_quartic(rng, n)
            for _ in range(5):
                x = rng.standard_normal(n)
                assert fd_check_grad(orc, x) < 1e-6

    def test_hess_defect_small(self):
        rng = np.random.default_rng(32)
        for n in (2, 5):
            orc = _random_quartic(rng, n)
            for _ in range(5):
                x = rng.standard_normal(n)
                assert fd_check_hess(orc, x) < 1e-5

    def test_logistic_grad_defect_small(self):
        data = synth_logreg(4, 40, 6)
        orc = LogisticLoss(data, ridge=1e-3)
        rng = np.random.default_rng(33)
        for _ in range(5):
            x = rng.standard_normal(6) * 0.5
            assert fd_check_grad(orc, x) < 1e-6


class TestMatrixHelpers:
    def test_operator_norm_matches_two_norm(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((5, 5))
        S = M + M.T
        assert operator_norm(S) == pytest.approx(np.linalg.norm(S, 2), rel=1e-12)
