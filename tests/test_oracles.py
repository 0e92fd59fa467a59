"""Oracle layer tests: base-class contracts, composition, call counting,
and the finite-difference self-checks used by every layer above."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfast.oracles import (
    CountedOracle,
    OracleCapabilityError,
    ProblemOracle,
    SumOracle,
    ZeroOracle,
    counted,
    operator_norm,
)
from hyperfast.problems import (
    _BLOCK,
    LogisticLoss,
    QuarticChain,
    QuarticObjective,
    synth_logreg,
)

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
        assert z.lipschitz_L3 == 1.0


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

    def test_grad_term_bounds_add(self):
        """The parts' bounds add; a part with none leaves the sum with none."""
        rng = np.random.default_rng(5)
        a = _random_quartic(rng, 3)
        b = _random_quartic(rng, 3)
        x = rng.standard_normal(3)
        assert SumOracle(a, b).grad_term_bound(x) == (a.grad_term_bound(x)
                                                      + b.grad_term_bound(x))
        assert QuarticChain(3).grad_term_bound(x) is None
        assert SumOracle(a, QuarticChain(3)).grad_term_bound(x) is None
        assert SumOracle(QuarticChain(3), a).grad_term_bound(x) is None


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
        co.grad_term_bound(x)  # no oracle call: counts nothing
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
        assert isinstance(co, CountedOracle)

    def test_results_unchanged(self):
        rng = np.random.default_rng(9)
        orc = _random_quartic(rng, 3)
        co = counted(orc)
        x = rng.standard_normal(3)
        assert co.value(x) == orc.value(x)
        np.testing.assert_array_equal(co.grad(x), orc.grad(x))
        assert co.grad_term_bound(x) == orc.grad_term_bound(x)


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


_LD = np.longdouble
_EPS = float(np.finfo(np.float64).eps)

#: Largest gradient roundoff allowed, in units of eps times the bound. The
#: drawn instances stay near 1.7; the bound is a scale, not a worst case,
#: and a sum of tens of thousands of same-signed terms (n = 1 or 2, one
#: row per 2^15 / n elements) rounds further.
_ROUNDOFF_UNITS = 8.0


def _logistic_grad_ld(orc: LogisticLoss, x):
    """LogisticLoss.grad recomputed in extended precision."""
    A = orc.data.features.astype(_LD)
    y = orc.data.labels.astype(_LD)
    x = x.astype(_LD)
    coeff = -y / orc.data.m / (1 + np.exp(y * (A @ x)))
    return A.T @ coeff + _LD(orc.ridge) * x


def _quartic_grad_ld(orc: QuarticObjective, x):
    """QuarticObjective.grad recomputed in extended precision."""
    x = x.astype(_LD)
    return orc.Q.astype(_LD) @ x + orc.c.astype(_LD) + _LD(orc.a4) * (x @ x) * x


def _roundoff_units(grad, exact, bound) -> float:
    return float(np.max(np.abs(grad - exact))) / (_EPS * bound)


@st.composite
def _bounded_pair(draw):
    """A logistic loss over one to three row blocks of features (n in
    [8, 32]) and a quartic on the same space, with a point x."""
    n = draw(st.integers(8, 32))
    rows_per_block = _BLOCK // n
    blocks = draw(st.integers(1, 3))
    # Counted down from a full last block, so that small draws give many rows.
    m = blocks * rows_per_block - draw(st.integers(0, rows_per_block - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    logistic = LogisticLoss(synth_logreg(seed, m, n),
                            ridge=draw(st.sampled_from([0.0, 1e-3, 1.0])))
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    quartic = QuarticObjective(draw(st.sampled_from([1e-2, 1.0, 1e2])) * (M @ M.T),
                               draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
                               * rng.standard_normal(n),
                               draw(st.sampled_from([0.0, 0.5, 10.0])))
    x = draw(st.sampled_from([0.1, 1.0, 10.0])) * rng.standard_normal(n)
    return logistic, quartic, x


class TestGradTermBound:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pair=_bounded_pair())
    def test_bound_covers_the_gradient_roundoff(self, pair):
        """The float64 gradient lies within a few eps times grad_term_bound
        of its extended-precision recomputation, for each oracle with a
        bound and for their sum."""
        if np.finfo(_LD).eps >= _EPS:
            pytest.skip("np.longdouble is no wider than float64 on this platform")
        logistic, quartic, x = pair
        exact_l = _logistic_grad_ld(logistic, x)
        exact_q = _quartic_grad_ld(quartic, x)
        total = SumOracle(logistic, quartic)
        for grad, exact, bound in (
                (logistic.grad(x), exact_l, logistic.grad_term_bound(x)),
                (quartic.grad(x), exact_q, quartic.grad_term_bound(x)),
                (total.grad(x), exact_l + exact_q, total.grad_term_bound(x))):
            assert _roundoff_units(grad, exact, bound) <= _ROUNDOFF_UNITS

    def test_logistic_bound_is_the_mean_row_norm_plus_ridge(self):
        data = synth_logreg(4, 40, 6)
        orc = LogisticLoss(data, ridge=1e-3)
        x = np.full(6, 0.5)
        mean_row = float(np.mean(np.linalg.norm(data.features, axis=1)))
        assert orc.grad_term_bound(x) == pytest.approx(
            mean_row + 1e-3 * np.linalg.norm(x), rel=1e-14)


class TestMatrixHelpers:
    def test_operator_norm_matches_two_norm(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((5, 5))
        S = M + M.T
        assert operator_norm(S) == pytest.approx(np.linalg.norm(S, 2), rel=1e-12)
