"""Every answer the inexact engine labels "certified" inside a solve meets
the paper's certificate on the analytic model.

The engine certifies on a gradient-difference estimate of the model
gradient. Here natmi.oracle_subproblem is wrapped, where natmi.solve and
sliding.solve_sliding look it up, and each certified Trial of its inexact
builder is checked against ||grad m(y)|| <= gamma*||grad f(y)||, with m =
ModelSpec(the uncounted oracle, x~, xi*L3) and analytic third derivatives.
sliding's inner solves minimize h plus the g-model cached at the outer
anchor, so that model's gradient is added to both sides. The worst ratio
||grad m(y)|| / (gamma*||grad f(y)||) is printed at the end (run with -s).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperfast import harness, natmi, sliding  # noqa: E402
from hyperfast.natmi import NatmiConfig  # noqa: E402
from hyperfast.taylor import ModelSpec, model_grad  # noqa: E402

_SEED = st.integers(0, 2**16)
_INSTANCES = st.one_of(
    st.fixed_dictionaries({"problem": st.just("logreg"), "m": st.integers(10, 200),
                           "n": st.integers(1, 20), "seed": _SEED}),
    st.fixed_dictionaries({"problem": st.just("quadratic"), "n": st.integers(1, 10),
                           "seed": _SEED}),
    st.fixed_dictionaries({"problem": st.just("quartic_chain"), "n": st.integers(1, 20)}),
    st.fixed_dictionaries({"problem": st.just("sliding_bench"), "m": st.integers(10, 60),
                           "n": st.integers(1, 8), "seed": _SEED}),
)


@pytest.fixture(scope="module")
def ratios():
    seen = []
    yield seen
    print(f"\ncertified answers checked: {len(seen)}, "
          f"worst ||grad m|| / (gamma ||grad f||) = {max(seen, default=0.0):.3g}")


def _audited(build, ratios):
    """oracle_subproblem that checks every certified inexact answer."""

    def audited(cfg, oracle):
        inexact = build(cfg, oracle)
        if cfg.subsolver != "bdgm":
            return inexact
        plain = oracle.inner

        def checked(x_t, model=None, start=None):
            t = inexact(x_t, model, start)
            if t.reason == "certified":
                grad_m = model_grad(ModelSpec(plain, x_t, cfg.xi * plain.lipschitz_L3), t.y)
                grad_f = plain.grad(t.y)
                if model is not None:
                    cached = ModelSpec(model.oracle.inner, model.x_tilde, model.H)
                    grad_cached = model_grad(cached, t.y)
                    grad_m, grad_f = grad_m + grad_cached, grad_f + grad_cached
                ratios.append(float(np.linalg.norm(grad_m))
                              / (cfg.gamma * float(np.linalg.norm(grad_f))))
            return t

        return checked

    return audited


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instance=_INSTANCES, eps=st.sampled_from([1e-6, 1e-9, 1e-11]),
       method=st.sampled_from(["hyperfast", "sliding"]))
def test_every_certified_answer_meets_the_analytic_certificate(ratios, instance, eps, method):
    params = {key: str(value) for key, value in instance.items() if key != "problem"}
    bundle = harness.make_problem(harness.RunConfig(problem=instance["problem"],
                                                    problem_params=params))
    cfg = NatmiConfig(eps=eps, k_max=40)
    first = len(ratios)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(natmi, "oracle_subproblem", _audited(natmi.oracle_subproblem, ratios))
        patch.setattr(sliding, "oracle_subproblem", _audited(sliding.oracle_subproblem, ratios))
        if method == "sliding":
            res = sliding.solve_sliding(bundle.composite(), bundle.x0, cfg)
        else:
            res = natmi.solve(cfg, bundle.single(), bundle.x0)
    # Every accepted step rests on at least one certified inner answer.
    assert len(ratios) > first or res.iters == 0
    assert max(ratios[first:], default=0.0) <= 1.0
