"""Problem-oracle tests: dataset validation and synthesis, hand-checked
derivative values, the logistic kernel against scipy's expit and against
its former label-signed formulas, the logistic oracle's memory contract,
smoothness constants, and the fourth-order remainder bounds every oracle
must honor with its own reported constant."""

import importlib.util
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from hyperfast import harness
from hyperfast.oracles import SumOracle
from hyperfast.problems import (
    _BLOCK,
    Dataset,
    LogisticLoss,
    QuarticChain,
    QuarticObjective,
    sampled_l3,
    synth_logreg,
)
from hyperfast.taylor import ModelSpec, model_grad, model_value

from crosschecks import fd_check_grad, label_signed_logistic
from test_golden import CONFIGS as GOLDEN_CONFIGS


class TestSynthLogreg:
    def test_deterministic(self):
        a = synth_logreg(12, 20, 5)
        b = synth_logreg(12, 20, 5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rows_normalized(self):
        ds = synth_logreg(1, 3, 2)
        np.testing.assert_allclose(np.linalg.norm(ds.features, axis=1), 1.0,
                                   atol=1e-12)

    def test_both_classes_present(self):
        ds = synth_logreg(7, 200, 20)
        assert np.any(ds.labels == 1.0)
        assert np.any(ds.labels == -1.0)
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}


class TestLogisticLoss:
    def test_value_at_zero_is_log_two(self):
        orc = LogisticLoss(synth_logreg(3, 25, 4))
        assert orc.value(np.zeros(4)) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_grad_at_zero(self):
        ds = synth_logreg(3, 25, 4)
        orc = LogisticLoss(ds)
        expect = -(ds.features * ds.labels[:, None]).mean(axis=0) / 2.0
        np.testing.assert_allclose(orc.grad(np.zeros(4)), expect, atol=1e-15)

    def test_fourth_derivative_constant(self):
        """The scalar loss t -> log(1+e^t) has |psi''''| maximized at 0 with
        value 1/8; a grid-plus-refinement search must not find anything
        larger, and the oracle's smoothness constant uses exactly 1/8."""

        def psi4(t):
            s = 1.0 / (1.0 + np.exp(-t))
            return s * (1.0 - s) * (1.0 - 6.0 * s + 6.0 * s * s)

        grid = np.linspace(-10.0, 10.0, 200001)
        assert float(np.max(np.abs(psi4(grid)))) == pytest.approx(0.125, abs=1e-9)
        ds = synth_logreg(3, 25, 4)
        # The Gram's top eigenvalue by an independent route, the SVD.
        sigma = float(np.linalg.svd(ds.features, compute_uv=False)[0])
        row_sq = float(np.max(np.sum(ds.features**2, axis=1)))
        bound = 0.125 * row_sq * sigma**2 / ds.m * (1.0 + 1e-12)
        assert LogisticLoss(ds).lipschitz_L3 == pytest.approx(bound, rel=1e-14)

    def test_ridge_shifts_hessian(self):
        ds = synth_logreg(3, 25, 4)
        plain = LogisticLoss(ds)
        ridged = LogisticLoss(ds, ridge=0.5)
        x = np.ones(4) * 0.2
        np.testing.assert_allclose(ridged.hess(x) - plain.hess(x),
                                   0.5 * np.eye(4), atol=1e-14)
        assert ridged.lipschitz_L3 == plain.lipschitz_L3

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            LogisticLoss(synth_logreg(1, 4, 2), ridge=-0.1)

    def test_third_action_matches_direction_contraction(self):
        ds = synth_logreg(5, 30, 6)
        orc = LogisticLoss(ds, ridge=1e-3)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(6) * 0.4
        s = rng.standard_normal(6)
        np.testing.assert_allclose(orc.third_action(x, s),
                                   orc.third_dir(x, s) @ s, rtol=1e-11,
                                   atol=1e-14)


def _expit_reference(orc, x, d, tol):
    """Each LogisticLoss output at x (third derivatives along d) from scipy's
    expit and the unsigned features, with the error it may carry: tol times
    each sigma, plus the smallest normal float for the kernel's exponent cap,
    carried through the sum of the absolute values of the terms."""
    A, y, m, ridge = orc.data.features, orc.data.labels, orc.data.m, orc.ridge
    t = -y * (A @ x)
    sig = expit(t)
    err = (tol * sig + np.finfo(np.float64).tiny) / m
    psi3 = sig * (1.0 - sig) * (1.0 - 2.0 * sig)
    u = A @ d
    absA = np.abs(A)
    eye = np.eye(orc.dim)
    value = np.mean(np.logaddexp(0.0, t)) + 0.5 * ridge * (x @ x)
    return {
        "value": (value, tol * value),
        "grad": (A.T @ (-sig * y / m) + ridge * x,
                 absA.T @ err + tol * ridge * np.abs(x)),
        "hess": (A.T @ ((sig * (1.0 - sig) / m)[:, None] * A) + ridge * eye,
                 absA.T @ (err[:, None] * absA) + tol * ridge * eye),
        "third_action": (A.T @ (-psi3 * y * u**2 / m), absA.T @ (err * u**2)),
        "third_dir": (A.T @ ((-psi3 * y * u / m)[:, None] * A),
                      absA.T @ ((err * np.abs(u))[:, None] * absA)),
    }


def _outputs(orc, x, d):
    return {"value": orc.value(x), "grad": orc.grad(x), "hess": orc.hess(x),
            "third_action": orc.third_action(x, d),
            "third_dir": orc.third_dir(x, d)}


@st.composite
def _logistic_points(draw, one_block=False):
    """A logistic instance, a point whose norm spans 1e-6..2e3 (so some
    margins overflow exp), and a direction. Unless one_block, some instances
    span two or three row blocks, so the Gram sums blocks."""
    n = draw(st.integers(1, 8))
    rows = _BLOCK // n
    sizes = st.integers(1, 60) if one_block else st.one_of(
        st.integers(1, 60), st.integers(rows + 1, 3 * rows))
    m = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ridge = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
    orc = LogisticLoss(synth_logreg(int(rng.integers(2**31)), m, n), ridge=ridge)
    x = 10.0 ** draw(st.floats(-6.0, 3.3)) * rng.standard_normal(n)
    return orc, x, rng.standard_normal(n)


class TestLogisticKernel:
    """The numpy sigmoid, with the labels applied to m-vectors, and the
    row-blocked Gram against scipy's expit and one product over all rows.
    Each sigma agrees to a few ulps (numpy's exp and libm's
    differ by one ulp now and then), and a sum of m terms then differs by
    roundoff that grows like sqrt(m): the bound is ULPS*eps*sqrt(m) times
    the sum of the absolute terms. The worst over 160,000 random draws was
    2.0*eps*sqrt(m)."""

    ULPS = 4.0

    def assert_matches_reference(self, orc, x, d, got):
        tol = self.ULPS * np.finfo(np.float64).eps * np.sqrt(orc.data.m)
        for name, (ref, err) in _expit_reference(orc, x, d, tol).items():
            assert np.all(np.abs(got[name] - ref) <= err), name

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_logistic_points())
    def test_matches_expit_reference(self, case):
        orc, x, d = case
        self.assert_matches_reference(orc, x, d, _outputs(orc, x, d))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_huge_points_finite_without_warnings(self, sign):
        orc = LogisticLoss(synth_logreg(5, 30, 6), ridge=1e-3)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(6)
        x *= sign * 1e5 / np.linalg.norm(x)
        d = rng.standard_normal(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outputs(orc, x, d)
        assert all(np.all(np.isfinite(v)) for v in got.values())
        self.assert_matches_reference(orc, x, d, got)


class TestLabelSignedPin:
    """Within one row block (m*n <= _BLOCK, every golden's size) each output
    and L3 equal the former label-signed formulas bit for bit: a sign flip
    rounds nothing, and one block is one product."""

    def assert_bitwise(self, orc, x, d):
        old = label_signed_logistic(orc, x, d)
        new = _outputs(orc, x, d)
        assert orc.lipschitz_L3 == old.pop("L3")
        for name, value in old.items():
            assert np.array_equal(new[name], value), name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=_logistic_points(one_block=True))
    def test_small_instances(self, case):
        self.assert_bitwise(*case)

    @pytest.mark.parametrize("seed, m, n", [(7, 200, 20), (3, 30, 30), (4, _BLOCK // 16, 16)])
    def test_golden_and_full_block_sizes(self, seed, m, n):
        orc = LogisticLoss(synth_logreg(seed, m, n), ridge=1e-3)
        rng = np.random.default_rng(seed)
        self.assert_bitwise(orc, 0.5 * rng.standard_normal(n), rng.standard_normal(n))


def _quartic_moment_bound(A: np.ndarray) -> float:
    """(1/8)*max over unit s of mean_k (a_k.s)^4, from below: the fourth
    derivative of the logistic loss at 0 along s is that mean times 1/8, so
    no valid L3 is smaller. Power iteration s <- A'(As)^3 from every row and
    the top right singular vector; each iterate's value is a lower bound."""
    best = 0.0
    for s in [*A, np.linalg.svd(A)[2][0]]:
        for _ in range(50):
            s = s / np.linalg.norm(s)
            u = A @ s
            best = max(best, 0.125 * float(np.mean(u**4)))
            s = A.T @ u**3
    return best


@st.composite
def _raw_datasets(draw):
    """Rows of norm 1e-3..10 in any direction, m from 1 to 2n (so often
    m < n), and up to three duplicates of drawn rows; random labels. Below
    norm 1 the gradient differences' roundoff is large beside L3, and
    sampled_l3 must take it off to stay below the reported L3."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.standard_normal((m, n))
    feats *= 10.0 ** rng.uniform(-3.0, 1.0, (m, 1)) / np.linalg.norm(feats, axis=1, keepdims=True)
    feats = np.vstack([feats, feats[rng.integers(0, m, draw(st.integers(0, 3)))]])
    return Dataset(feats, rng.choice([-1.0, 1.0], feats.shape[0]))


class TestLogisticL3:
    """The reported L3, (1/8)*max_k ||a_k||^2 * lambda_max(A'A)/m with a
    1e-12 margin, is exact on rank-one data and is never below a lower bound
    of the true constant."""

    @pytest.mark.parametrize("m, n, c", [(1, 3, 1.0), (7, 1, 0.3), (40, 6, 2.5)])
    def test_rank_one_data_is_exact(self, m, n, c):
        rng = np.random.default_rng(m + n)
        a = rng.standard_normal(n)
        signs = rng.choice([-1.0, 1.0], (m, 1))
        ds = Dataset(signs * c * a, rng.choice([-1.0, 1.0], m))
        exact = 0.125 * c**4 * float(a @ a) ** 2
        # The fourth derivative at 0 along a reaches it: the bound is tight.
        assert _quartic_moment_bound(ds.features) == pytest.approx(exact, rel=1e-14)
        l3 = LogisticLoss(ds, ridge=1e-3).lipschitz_L3
        assert exact <= l3 <= exact * (1.0 + 2e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ds=_raw_datasets())
    def test_never_below_a_lower_bound(self, ds):
        orc = LogisticLoss(ds, ridge=1e-3)
        assert orc.lipschitz_L3 >= _quartic_moment_bound(ds.features)
        # Up to the gradient differences' error, as in the analytic check.
        assert sampled_l3(orc) <= orc.lipschitz_L3 * (1.0 + 1e-6)


class TestLogisticMemory:
    """The oracle holds one m x n array, the caller's features, and no call
    makes a second: at m = 2000, n = 200 (3.2 MB of features) the
    constructor and each call peak below a quarter of the features.
    Synthesis peaks at the features plus one row block's float temporary
    (the row norms' squares) and a few m-vectors: the finiteness check holds
    no m x n mask. Every measured call runs once before, so numpy's one-time
    allocations do not count."""

    M, N = 2000, 200
    FEATURES = M * N * 8

    @staticmethod
    def traced(call):
        """What call returns, the bytes it keeps, and the most it held."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept - before, peak - before

    def test_synthesis_peak(self):
        synth_logreg(1, 30, 4)
        data, _, peak = self.traced(lambda: synth_logreg(7, self.M, self.N))
        assert data.features.shape == (self.M, self.N)
        # Measured: 3,481,504 bytes, 1.088x the features (1.137x with an
        # m x n mask).
        assert peak < self.FEATURES + 8 * _BLOCK + 4 * 8 * self.M

    def test_constructor_peak(self):
        """The constructor's A'A is the n x n result alone (numpy's
        symmetric product), and eigvalsh works on an n x n copy. Measured:
        339,106 bytes, 0.106x the features."""
        data = synth_logreg(7, self.M, self.N)
        LogisticLoss(synth_logreg(1, 30, 4))
        _, _, peak = self.traced(lambda: LogisticLoss(data, ridge=1e-3))
        assert peak <= self.FEATURES / 4

    def test_oracle_keeps_no_second_matrix(self):
        data = synth_logreg(7, self.M, self.N)
        orc, kept, _ = self.traced(lambda: LogisticLoss(data, ridge=1e-3))
        assert orc.data is data
        arrays = [v for v in vars(orc).values() if isinstance(v, np.ndarray)]
        assert all(a.size < self.M * self.N for a in arrays)
        assert kept < self.FEATURES / 4

    @pytest.mark.parametrize("name", ["value", "grad", "hess", "third_action", "third_dir"])
    def test_call_peak(self, name):
        orc = LogisticLoss(synth_logreg(7, self.M, self.N), ridge=1e-3)
        rng = np.random.default_rng(3)
        x, d = 0.3 * rng.standard_normal(self.N), rng.standard_normal(self.N)
        args = (x,) if name in ("value", "grad", "hess") else (x, d)
        call = getattr(orc, name)
        call(*args)
        _, _, peak = self.traced(lambda: call(*args))
        assert peak <= self.FEATURES / 4


class TestQuarticObjective:
    def test_monomial_values(self):
        orc = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 1.0)
        x = np.array([2.0])
        assert orc.value(x) == 4.0
        assert orc.grad(x)[0] == 8.0
        assert orc.hess(x)[0, 0] == 12.0

    def test_third_action_1d(self):
        """For the 1D pure quartic the third derivative is 6x, so the
        squared-direction action is 6*x*s^2."""
        orc = QuarticObjective(np.zeros((1, 1)), np.zeros(1), 1.0)
        for x, s in ((0.7, 1.3), (-1.1, 0.4)):
            got = orc.third_action(np.array([x]), np.array([s]))[0]
            assert got == pytest.approx(6.0 * x * s * s, rel=1e-14)

    def test_l3_is_six_a4(self):
        assert QuarticObjective(np.eye(2), np.zeros(2), 0.75).lipschitz_L3 == 4.5

    def test_pure_quadratic_gets_placeholder_l3(self):
        orc = QuarticObjective(np.eye(2), np.zeros(2), 0.0)
        assert orc.lipschitz_L3 == 1.0
        assert np.all(orc.third_action(np.ones(2), np.ones(2)) == 0.0)

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            QuarticObjective(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            QuarticObjective(-np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            QuarticObjective(np.eye(2), np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            QuarticObjective(np.eye(2), np.zeros(3), 1.0)


class TestQuarticChain:
    def test_origin_is_flat(self):
        orc = QuarticChain(4)
        assert orc.value(np.zeros(4)) == 0.0
        np.testing.assert_array_equal(orc.grad(np.zeros(4)), np.zeros(4))

    def test_hand_values_n2(self):
        orc = QuarticChain(2)
        assert orc.value(np.array([1.0, 1.0])) == 1.0
        np.testing.assert_allclose(orc.grad(np.array([1.0, 1.0])), [4.0, 0.0])
        assert orc.value(np.array([1.0, 2.0])) == 2.0
        np.testing.assert_allclose(orc.grad(np.array([1.0, 2.0])), [0.0, 4.0])

    def test_l3_at_n1(self):
        assert QuarticChain(1).lipschitz_L3 == 24.0

    def test_l3_at_n2(self):
        """48*sigma_max(D)^2, where D'D = [[2, -1], [-1, 1]] has top
        eigenvalue (3 + sqrt(5))/2."""
        assert QuarticChain(2).lipschitz_L3 == pytest.approx(24.0 * (3.0 + np.sqrt(5.0)),
                                                            rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 20, 60])
    def test_sampled_l3_below_reported(self, n):
        orc = QuarticChain(n)
        assert sampled_l3(orc) <= orc.lipschitz_L3

    def test_grad_defect(self):
        orc = QuarticChain(5)
        rng = np.random.default_rng(21)
        for _ in range(4):
            assert fd_check_grad(orc, rng.standard_normal(5)) < 1e-6


def _all_oracles():
    ds = synth_logreg(7, 40, 6)
    rng = np.random.default_rng(77)
    M = rng.standard_normal((6, 6)) / np.sqrt(6)
    return [
        ("logistic", LogisticLoss(ds, ridge=1e-3)),
        ("quartic", QuarticObjective(M.T @ M, rng.standard_normal(6), 0.6)),
        ("chain", QuarticChain(6)),
    ]


class TestConvexityAndSmoothness:
    def test_hessians_psd_at_random_points(self):
        rng = np.random.default_rng(55)
        for name, orc in _all_oracles():
            for _ in range(100):
                x = rng.standard_normal(orc.dim)
                lam = float(np.min(np.linalg.eigvalsh(orc.hess(x))))
                assert lam >= -1e-10, f"{name}: negative curvature {lam}"

    def test_sampled_l3_below_analytic(self):
        """A sampled Lipschitz estimate for the third derivative must never
        beat the documented analytic bound."""
        for name, orc in _all_oracles():
            est = sampled_l3(orc)
            assert est <= orc.lipschitz_L3 * (1.0 + 1e-6), name

    def test_value_remainder_bound(self):
        """Fourth-order remainder of the cubic expansion: the gap between
        f(y) and the unregularized model is at most (L3/24)*||s||^4."""
        rng = np.random.default_rng(90)
        for name, orc in _all_oracles():
            for _ in range(200):
                x = rng.standard_normal(orc.dim) * 0.8
                y = x + rng.standard_normal(orc.dim) * 0.8
                spec = ModelSpec(orc, x, H=0.0)
                gap = abs(orc.value(y) - model_value(spec, y))
                bound = orc.lipschitz_L3 / 24.0 * np.linalg.norm(y - x) ** 4
                assert gap <= bound * (1.0 + 1e-8) + 1e-15, name

    def test_grad_remainder_bound(self):
        rng = np.random.default_rng(91)
        for name, orc in _all_oracles():
            for _ in range(200):
                x = rng.standard_normal(orc.dim) * 0.8
                y = x + rng.standard_normal(orc.dim) * 0.8
                spec = ModelSpec(orc, x, H=0.0)
                gap = float(np.linalg.norm(orc.grad(y) - model_grad(spec, y)))
                bound = orc.lipschitz_L3 / 6.0 * np.linalg.norm(y - x) ** 3
                assert gap <= bound * (1.0 + 1e-8) + 1e-15, name


def _perfbench_run():
    """perfbench/run.py as a module, with the environment it sets (BLAS
    thread counts) put back."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    saved = dict(os.environ)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        os.environ.clear()
        os.environ.update(saved)
    return module


def _run_instance_configs():
    """Every golden configuration, and every perfbench instance at the seeds
    the benchmark and CI run (each workload's default, 41, 3 and 5003)."""
    configs = dict(GOLDEN_CONFIGS)
    bench = _perfbench_run()
    for name, workload in bench.WORKLOADS.items():
        for seed in (workload.default_seed, 41, 3, 5003):
            for i in range(workload.instances):
                s = seed + bench.INSTANCE_STRIDE * i
                configs[f"{name}@{s}"] = {**workload.config, "problem.seed": str(s)}
    return configs


def test_sampled_l3_below_reported_on_every_run_instance():
    """Each oracle a golden or perfbench run builds, and each part of a sum,
    reports an L3 no sampled estimate beats. Measured worst ratios: 0.34 for
    a logistic part (sliding_bench seed 9011), 0.41 for a chain, and 1 up to
    the difference error for a quartic, whose reported L3 is exact."""
    for name, config in _run_instance_configs().items():
        oracles = list(harness.make_problem(harness.build_run_config(config)).parts)
        oracles += [p for o in oracles if isinstance(o, SumOracle) for p in (o.first, o.second)]
        for orc in oracles:
            assert sampled_l3(orc) <= orc.lipschitz_L3 * (1.0 + 1e-6), name


class TestFactories:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))

    def test_dataset_finiteness_checked_in_every_row_block(self):
        """The check runs one row block at a time; a NaN in the first, a
        middle or the last block of a multi-block matrix is still found."""
        m, n = 3 * _BLOCK // 20 + 7, 20
        for row in (0, m // 2, m - 1):
            feats = np.ones((m, n))
            feats[row, n - 1] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(feats, np.ones(m))
