"""Generated-instance properties of the Bregman step.

Hypothesis draws positive semidefinite B, singular ones with an exact zero
eigenvalue included, and right-hand sides b = rho'(s_i) - g/a from far
inside the interior branch (||b|| well below L3*R^3) to deep in the boundary
branch (||b|| above R*(lam_max + L3*R^2)). Every step must match the dense
bisection reference, satisfy its first-order condition, stay in the ball,
and solve the radius equation in a bounded number of evaluations.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperfast import bdgm  # noqa: E402
from hyperfast.bdgm import STEP_SCALE, bregman_step, bregman_step_dense  # noqa: E402

#: Radius evaluations allowed per Bregman step (the bisection it replaced
#: averaged about 43).
MAX_RADIUS_EVALS = 12


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
    state = bdgm.custom_setup(np.zeros(n), g0, B, L3, eps=1e-8,
                              inexact_grad_fn=None, target_grad_fn=None)
    R = state.ball_radius
    s_i = rng.standard_normal(n)
    s_i *= draw(st.one_of(st.just(0.0), st.floats(1e-8, 1.0))) * R / np.linalg.norm(s_i)
    if branch == "interior":
        b_norm = L3 * R**3 * 10.0 ** draw(st.floats(-12.0, -0.5))
    else:
        b_norm = R * (float(np.max(evals)) + L3 * R * R) * 10.0 ** draw(st.floats(0.01, 3.0))
    b = rng.standard_normal(n)
    b *= b_norm / np.linalg.norm(b)
    g = STEP_SCALE * (_rho_grad(state, s_i) - b)
    return state, s_i, g


def _rho_grad(state, s):
    return state.B @ s + state.L3 * float(s @ s) * s


@pytest.mark.parametrize("branch", ["interior", "boundary"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_bregman_step_properties(branch, data):
    state, s_i, g = data.draw(_instances(branch))
    R = state.ball_radius
    with mock.patch.object(bdgm, "_radius_terms",
                           wraps=bdgm._radius_terms) as terms:
        z = bregman_step(state, state.x_tilde + s_i, g)
    assert terms.call_count <= MAX_RADIUS_EVALS

    np.testing.assert_allclose(
        z, bregman_step_dense(state, state.x_tilde + s_i, g), rtol=0, atol=1e-10)

    s = z - state.x_tilde
    r = float(np.linalg.norm(s))
    assert r <= R * (1.0 + 1e-9)

    # a*(rho'(s) - rho'(s_i)) + g = -mu*s with mu = 0 inside the ball and
    # mu >= 0 on its boundary.
    resid = STEP_SCALE * (_rho_grad(state, s) - _rho_grad(state, s_i)) + g
    scale = 1.0 + float(np.linalg.norm(g)) + STEP_SCALE * (
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
