"""Generated-input round trips of the harness's two text formats.

A run configuration echoed by config_echo, written as key=value lines and
read back through parse_config_text and build_run_config is the same
RunConfig. problem.* keys and values are drawn from what the parser itself
can hand over: no '#' (a comment), no line break and no surrounding
whitespace. Trace and summary paths are not echoed, so they are left unset.

A trace written by write_trace and read back by read_trace returns every
float column bit for bit: signed zeros, subnormals and infinities included.
NaN reads back as NaN.

A problem.* value given from Python and the same value as config text are
refused together or build the same problem.
"""

import math
import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperfast.harness import (  # noqa: E402
    PROBLEMS,
    ConfigError,
    RunConfig,
    build_run_config,
    config_echo,
    make_problem,
    parse_config_text,
    read_trace,
    write_trace,
)
from hyperfast.natmi import IterationRecord  # noqa: E402

_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
#: str.splitlines breaks a line at each of these.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_VALUE = st.text(st.characters(blacklist_characters="#" + _LINE_BREAKS,
                               blacklist_categories=("Cs",)), max_size=12).map(str.strip)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

_RUN_CONFIGS = st.builds(
    RunConfig,
    problem=_NAME,
    method=st.sampled_from(["hyperfast", "natmi_exact", "sliding", "gd_baseline"]),
    eps=_POSITIVE,
    max_iters=st.integers(1, 10 ** 6),
    grad_tol=st.floats(min_value=0.0, allow_infinity=False),
    gamma=st.floats(allow_nan=False, allow_infinity=False),
    xi=st.floats(allow_nan=False, allow_infinity=False),
    timing=st.booleans(),
    problem_params=st.dictionaries(_NAME, _VALUE, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(_RUN_CONFIGS)
def test_config_echo_round_trip(cfg):
    text = "\n".join(f"{key}={value}" for key, value in config_echo(cfg).items())
    assert build_run_config(parse_config_text(text)) == cfg


#: Trace columns that hold floats, and the record attribute behind each.
_FLOAT_COLUMNS = {"f": "f", "grad_norm": "grad_norm", "step_radius": "step_radius",
                  "lambda": "lam", "A": "A", "max_grad_norm": "max_grad_norm",
                  "max_hess_norm": "max_hess_norm", "wall_ms": "wall_ms"}


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.floats()] * len(_FLOAT_COLUMNS)), max_size=6))
def test_trace_round_trip_keeps_every_float_bit(rows):
    records = [IterationRecord(k=k, inner_iters=k, n_grad=2 * k, n_hess=k, y=np.zeros(1),
                               **dict(zip(_FLOAT_COLUMNS.values(), values)))
               for k, values in enumerate(rows, start=1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trace(path, records, {"problem": "generated"})
        back = read_trace(path)
    assert len(back) == len(records)
    for rec, row in zip(records, back):
        assert row["k"] == rec.k and row["n_grad"] == rec.n_grad
        for column, attr in _FLOAT_COLUMNS.items():
            sent = getattr(rec, attr)
            if math.isnan(sent):
                assert math.isnan(row[column])
            else:
                assert _bits(row[column]) == _bits(sent), (column, sent, row[column])


#: Every registered problem.* key, as (problem, key).
_PROBLEM_KEYS = [(problem, key) for problem, (_, defaults) in sorted(PROBLEMS.items())
                 for key in defaults]
#: Sizes stay at 20 or below, so no drawn problem is large.
_SMALL_INT = st.integers(-2, 20)
_PARAM_VALUE = st.one_of(
    _SMALL_INT,
    st.floats(-2.0, 20.0),
    _SMALL_INT.map(float),
    st.booleans(),
    _SMALL_INT.map(np.int64),
    st.one_of(_SMALL_INT, st.floats(-2.0, 20.0)).map(str),
    st.text("0123456789.-e ", max_size=5),
)


def _built_or_refused(cfg_of):
    """("built", x0 and the pickled bundle) from make_problem(cfg_of()), or
    ("refused",) when building the config or the problem is a ConfigError."""
    try:
        bundle = make_problem(cfg_of())
    except ConfigError:
        return ("refused",)
    return ("built", bundle.x0.tobytes(), pickle.dumps(bundle))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem_key=st.sampled_from(_PROBLEM_KEYS), value=_PARAM_VALUE)
@example(problem_key=("quadratic", "n"), value=2.7)
@example(problem_key=("quadratic", "seed"), value=3.9)
@example(problem_key=("logreg", "m"), value=True)
@example(problem_key=("logreg", "n"), value=np.int64(3))
@example(problem_key=("sliding_bench", "seed"), value="4")
def test_python_value_builds_what_its_config_text_builds(problem_key, value):
    problem, key = problem_key
    from_python = _built_or_refused(
        lambda: RunConfig(problem=problem, problem_params={key: value}))
    from_text = _built_or_refused(
        lambda: build_run_config({"problem": problem, f"problem.{key}": str(value)}))
    assert from_python == from_text
