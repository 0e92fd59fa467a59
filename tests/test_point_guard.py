"""Generated points through the oracles' point guard.

ProblemOracle._check_point refuses a point with a NaN or an infinity in any
position, through every oracle method of every registered problem's parts
(and the zero part of the one-part composite): NonFiniteError. Finite
extremes, +-1e308 and subnormals, pass the guard, whatever the method then
computes from them.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperfast import harness  # noqa: E402
from hyperfast.oracles import NonFiniteError, SumOracle, ZeroOracle  # noqa: E402


def _registered_oracles():
    oracles = []
    for name in sorted(harness.PROBLEMS):
        bundle = harness.make_problem(harness.build_run_config({"problem": name}))
        oracles.extend(bundle.parts)
        if len(bundle.parts) == 2:
            oracles.append(SumOracle(*bundle.parts))
    oracles.append(ZeroOracle(3))
    return oracles


ORACLES = _registered_oracles()
METHODS = ("value", "grad", "hess", "third_action", "third_dir")
_POSITIONS = st.sampled_from(("first", "middle", "last"))


def _call(orc, method, position, entry):
    x = np.full(orc.dim, 0.25)
    x[{"first": 0, "middle": orc.dim // 2, "last": orc.dim - 1}[position]] = entry
    args = (x,) if method in ("value", "grad", "hess") else (x, np.ones(orc.dim))
    with np.errstate(all="ignore"):
        return getattr(orc, method)(*args)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(orc=st.sampled_from(ORACLES), method=st.sampled_from(METHODS),
       position=_POSITIONS, entry=st.sampled_from((np.nan, np.inf, -np.inf)))
def test_non_finite_entry_is_refused(orc, method, position, entry):
    with pytest.raises(NonFiniteError, match="point contains non-finite entries"):
        _call(orc, method, position, entry)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(orc=st.sampled_from(ORACLES), method=st.sampled_from(METHODS),
       position=_POSITIONS,
       entry=st.sampled_from((1e308, -1e308, 5e-324, -2.5e-310, 2.2e-308)))
def test_finite_extremes_pass(orc, method, position, entry):
    _call(orc, method, position, entry)


def test_every_registered_problem_is_covered():
    """Each registered problem contributes its parts, both families of
    sliding_bench included."""
    kinds = {type(orc).__name__ for orc in ORACLES}
    assert kinds == {"QuarticObjective", "QuarticChain", "LogisticLoss",
                     "SumOracle", "ZeroOracle"}
