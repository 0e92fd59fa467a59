"""The names the benchmark binds from outside the package.

perfbench/tracer.py rebinds hyperfast's entry points by name and wraps the
CountedOracle methods. These runs install it unchanged and check the two
facts the benchmark's correctness gate relies on: one accepted outer window
search per record, and wrapper-seen oracle calls equal to the summary's
n_* counters.
"""

import sys
from pathlib import Path

import pytest

from hyperfast import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracer import Tracer, layer_metrics
    finally:
        sys.path.remove(str(PERFBENCH))
    t = Tracer()
    t.install()
    try:
        yield t, layer_metrics
    finally:
        t.uninstall()


@pytest.mark.parametrize("config", [
    {"problem": "sliding_bench", "method": "sliding", "eps": "1e-6",
     "max_iters": "1"},
    {"problem": "quartic1d", "method": "hyperfast", "eps": "1e-9",
     "max_iters": "12"},
], ids=["sliding", "hyperfast"])
def test_tracer_sees_what_the_program_counts(tracer, config):
    t, layer_metrics = tracer
    # Looked up on the module at call time, so the rebound entry is run.
    outcome = harness.run(harness.build_run_config(config))
    metrics, seen = layer_metrics(t.take_spans(),
                                  sliding_method=config["method"] == "sliding")
    assert outcome.records
    assert metrics["natmi.outer_iters"] == len(outcome.records)
    counters = {k: v for k, v in outcome.summary.items() if k.startswith("n_")}
    assert sum(counters.values()) > 0
    for (kind, role), calls in seen.items():
        key = f"n_{kind}" if role == "f" else f"n_{kind}_{role}"
        assert calls == counters.get(key, 0), key
    if config["method"] == "sliding":
        assert metrics["sliding.middle_iters"] >= 1
        assert metrics["taylor.model_grad_calls"] > 0
