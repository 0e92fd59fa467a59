"""Generated-instance properties of the Bregman step.

Hypothesis draws positive semidefinite B, singular ones with an exact zero
eigenvalue included, step scales a in [1, STEP_SCALE], and right-hand sides
b = rho'(s_i) - g/a from far inside the interior branch (||b|| well below
L3*R^3) to deep in the boundary branch (||b|| above R*(lam_max + L3*R^2)).
Every step must match the dense bisection reference within float64's
forward-error bound, satisfy its first-order condition, stay in the ball, and
solve the radius equation in a bounded number of evaluations.

Whole inner solves at the adaptive step scale are drawn over quartic and
logistic anchors: each answer must be certified, stay in the ball and agree
with a fixed-scale solve of the same state.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperfast import bdgm  # noqa: E402
from hyperfast.bdgm import STEP_SCALE, bregman_step  # noqa: E402
from hyperfast.problems import LogisticLoss, QuarticObjective, synth_logreg  # noqa: E402
from hyperfast.taylor import ModelSpec, membership_residual  # noqa: E402

from crosschecks import bregman_step_dense  # noqa: E402

#: Radius evaluations allowed per Bregman step (the bisection it replaced
#: averaged about 43).
MAX_RADIUS_EVALS = 12

_EPS = float(np.finfo(np.float64).eps)


@st.composite
def _instances(draw, branch):
    n = draw(st.integers(1, 6))
    evals = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        B = (U * evals) @ U.T
        B = 0.5 * (B + B.T)
    else:
        B = np.diag(evals)
    L3 = draw(st.floats(1e-2, 1e2))
    g0 = rng.standard_normal(n)
    g0 *= draw(st.floats(1e-3, 1e2)) / np.linalg.norm(g0)
    state = _state_at_zero(g0, B, L3)
    R = state.ball_radius
    s_i = rng.standard_normal(n)
    s_i *= draw(st.one_of(st.just(0.0), st.floats(1e-8, 1.0))) * R / np.linalg.norm(s_i)
    if branch == "interior":
        b_norm = L3 * R**3 * 10.0 ** draw(st.floats(-12.0, -0.5))
    else:
        b_norm = R * (float(np.max(evals)) + L3 * R * R) * 10.0 ** draw(st.floats(0.01, 3.0))
    b = rng.standard_normal(n)
    b *= b_norm / np.linalg.norm(b)
    a = draw(st.one_of(st.just(STEP_SCALE), st.floats(1.0, STEP_SCALE)))
    g = a * (_rho_grad(state, s_i) - b)
    return state, s_i, g, a


def _state_at_zero(g0, B, L3):
    """The engine state at the anchor 0 of 0.5*x'Bx + g0'x + (L3/24)*||x||^4,
    whose anchor gradient is g0, Hessian B and L3 the given one up to
    rounding; no step here estimates a model gradient."""
    return bdgm.setup(QuarticObjective(B, g0, L3 / 6.0), np.zeros(g0.size), eps=1e-8)


def _rho_grad(state, s):
    return state.B @ s + state.L3 * float(s @ s) * s


def _step_atol(state, r):
    """Agreement allowed between two float64 solutions of rho'(s) = b at
    ||s|| = r: 1e-10 plus twice the forward-error bound eps*||B||*r/sigma,
    sigma = max(lambda_min(B), 0) + L3*r^2 the curvature of rho there. Near a
    singular B that bound exceeds 1e-10 while both steps stay backward-stable
    (test_step_near_rank_one_hessian)."""
    sigma = max(float(state.evals.min()), 0.0) + state.L3 * r * r
    return 1e-10 + 2.0 * _EPS * float(np.abs(state.evals).max()) * r / sigma


@pytest.mark.parametrize("branch", ["interior", "boundary"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_bregman_step_properties(branch, data):
    state, s_i, g, a = data.draw(_instances(branch))
    R = state.ball_radius
    with mock.patch.object(bdgm, "_radius_terms",
                           wraps=bdgm._radius_terms) as terms:
        z = bregman_step(state, state.x_tilde + s_i, g, a,
                         bdgm._rho_grad(state, s_i))
    assert terms.call_count <= MAX_RADIUS_EVALS

    s = z - state.x_tilde
    r = float(np.linalg.norm(s))
    np.testing.assert_allclose(
        z, bregman_step_dense(state, state.x_tilde + s_i, g, a), rtol=0,
        atol=_step_atol(state, r))
    assert r <= R * (1.0 + 1e-9)

    # a*(rho'(s) - rho'(s_i)) + g = -mu*s with mu = 0 inside the ball and
    # mu >= 0 on its boundary.
    resid = a * (_rho_grad(state, s) - _rho_grad(state, s_i)) + g
    scale = 1.0 + float(np.linalg.norm(g)) + a * (
        float(np.linalg.norm(_rho_grad(state, s)))
        + float(np.linalg.norm(_rho_grad(state, s_i))))
    if branch == "interior":
        assert r < R
        assert np.linalg.norm(resid) <= 1e-8 * scale
    else:
        assert r == pytest.approx(R, rel=1e-9)
        mu = -float(resid @ s) / (r * r)
        assert mu >= -1e-8 * scale / r
        assert np.linalg.norm(resid + mu * s) <= 1e-8 * scale


def test_step_near_rank_one_hessian():
    """A rank-one B = 1000*u u^T and a tiny g: the interior step's float64
    forward error, about eps*||B||*||s||/sigma, is 4.7e-10 here, so the two
    engines differ by 5.1e-10 while each solves its equation to 7e-16."""
    rng = np.random.default_rng(21)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    g0 = rng.standard_normal(3)
    g0 /= np.linalg.norm(g0)
    g = 1e-9 * np.abs(rng.standard_normal(3))
    state = _state_at_zero(g0, 1000.0 * np.outer(u, u), 0.25)
    z = bregman_step(state, state.x_tilde, g, STEP_SCALE, np.zeros(3))
    s = z - state.x_tilde
    r = float(np.linalg.norm(s))
    assert 0.0 < r < state.ball_radius
    assert np.linalg.norm(STEP_SCALE * _rho_grad(state, s) + g) <= 1e-14
    gap = np.abs(z - bregman_step_dense(state, state.x_tilde, g, STEP_SCALE)).max()
    assert 1e-10 < gap <= _step_atol(state, r)


@st.composite
def _anchors(draw):
    """A mu-strongly convex quartic or logistic objective and an anchor."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mu = draw(st.floats(1e-2, 1.0))
        M = rng.standard_normal((n, n)) / np.sqrt(n)
        orc = QuarticObjective(M.T @ M + mu * np.eye(n),
                               rng.standard_normal(n), draw(st.floats(0.05, 2.0)))
    else:
        mu = draw(st.floats(1e-3, 1e-1))
        orc = LogisticLoss(synth_logreg(int(rng.integers(2**31)), 40, n),
                           ridge=mu)
    x = draw(st.floats(1e-2, 1.0)) * rng.standard_normal(n)
    return orc, x, mu


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_adaptive_solve_agrees_with_fixed_scale(data):
    orc, x, mu = data.draw(_anchors())
    state = bdgm.setup(orc, x, eps=1e-8)
    assert state.solved_reason is None
    adaptive = bdgm.solve(state)
    # Fixed-scale reference: Bregman steps at STEP_SCALE down to the same
    # model-gradient floor.
    fixed = state.x_tilde.copy()
    g_hat = bdgm.approx_grad(state, fixed)
    for _ in range(10000):
        if np.linalg.norm(g_hat) <= state.theta_abs:
            break
        fixed = bregman_step(state, fixed, g_hat, STEP_SCALE,
                             bdgm._rho_grad(state, fixed - state.x_tilde))
        g_hat = bdgm.approx_grad(state, fixed)
    else:
        pytest.fail("fixed-scale reference did not reach the floor")

    assert adaptive.reason == "certified"
    spec = ModelSpec(orc, x, H=1.5 * orc.lipschitz_L3)
    assert membership_residual(spec, 1.0 / 6.0, adaptive.z).member
    assert np.linalg.norm(adaptive.z - x) <= state.ball_radius * (1.0 + 1e-9)
    # The regularized model is mu-strongly convex like f, and both answers
    # have model gradient at most theta_abs, so they lie within
    # 2*theta_abs/mu of each other.
    assert mu * np.linalg.norm(adaptive.z - fixed) <= 2.0 * state.theta_abs
