"""Golden traces: fixed runs through harness.run must reproduce their
committed trace and summary files byte for byte.

The configurations cover every solver path: the inexact and exact
subsolvers, the gradient-descent baseline, the grad_tol stop, the
accuracy-floor exit that keeps the better point, the three-level sliding
solver (cut short and run to its own stop) and the composites whose second
part is zero. Regenerate the files only for a change that is meant to move a
trajectory, and say why in the commit:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "quartic1d_hyperfast": {"problem": "quartic1d", "eps": "1e-9",
                            "max_iters": "12"},
    "logreg_fixture_hyperfast": {"problem": "logreg_fixture", "eps": "1e-9"},
    "logreg_fixture_natmi_exact": {"problem": "logreg_fixture",
                                   "method": "natmi_exact", "eps": "1e-9"},
    "logreg_fixture_gd": {"problem": "logreg_fixture", "method": "gd_baseline",
                          "max_iters": "30"},
    "quartic_chain20_hyperfast": {"problem": "quartic_chain", "problem.n": "20",
                                  "eps": "1e-9"},
    "quadratic_grad_tol": {"problem": "quadratic", "grad_tol": "1e-6"},
    "logreg3030_floor": {"problem": "logreg", "problem.m": "200",
                         "problem.n": "20", "problem.seed": "3030",
                         "eps": "1e-9"},
    "sliding_bench_3": {"problem": "sliding_bench", "method": "sliding",
                        "eps": "1e-6", "max_iters": "3"},
    "sliding_bench_5011": {"problem": "sliding_bench", "method": "sliding",
                           "eps": "1e-6", "problem.seed": "5011"},
    "quartic1d_sliding": {"problem": "quartic1d", "method": "sliding",
                          "eps": "1e-9", "max_iters": "12"},
    "quartic_chain_sliding": {"problem": "quartic_chain", "method": "sliding",
                              "eps": "1e-8", "max_iters": "10"},
}


def run_config(name: str, workdir: Path) -> tuple[bytes, bytes]:
    """Run one golden configuration; return its trace and summary bytes."""
    from hyperfast.harness import build_run_config, run

    trace, summary = workdir / f"{name}.trace", workdir / f"{name}.summary"
    run(build_run_config({**CONFIGS[name], "trace": str(trace),
                          "summary": str(summary)}))
    return trace.read_bytes(), summary.read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_run(tmp_path, name):
    trace, summary = run_config(name, tmp_path)
    assert trace == (GOLDEN / f"{name}.trace").read_bytes()
    assert summary == (GOLDEN / f"{name}.summary").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CONFIGS):
        trace, summary = run_config(name, GOLDEN)
        print(f"{name}: {len(trace)} trace bytes, {len(summary)} summary bytes")
    sys.exit(0)
