"""Regenerate the committed reference-optimum table.

Run from the repository root:

    python3 scripts/gen_fixtures.py

Writes src/hyperfast/fstar_fixture.json. The stored values are produced by
harness.reference_fstar (damped Newton pushed to ||grad|| <= 1e-13) and are
committed so benchmark gap curves never depend on a silently recomputed
optimum. Regenerate only when a fixture problem definition changes, and
commit the diff together with that change.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hyperfast.harness import _FSTAR_PATH, RunConfig, make_problem, reference_fstar


def main() -> int:
    table = {}

    oracle = make_problem(RunConfig(problem="logreg_fixture")).single()
    fstar = reference_fstar(oracle, tol=1e-13)
    table["logreg_fixture"] = fstar
    print(f"logreg_fixture: f* = {fstar!r}")

    _FSTAR_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_FSTAR_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
