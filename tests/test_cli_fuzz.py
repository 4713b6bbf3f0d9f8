"""Bounded fuzzing of the CLI with malformed and degenerate JSON inputs.

Every run must end in one of the documented exit codes 0/2/3/4/5; an
exception escaping main() fails the test. Shapes stay at most 3 x 3 so each
example runs in milliseconds.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mufact.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    # one input file in tmp_path is rewritten by every example
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-2, 4),
    st.sampled_from([float("nan"), float("inf"), -0.0, 1e-320, 1e300]),
    st.just([]),
    st.just({}),
)
number = st.one_of(st.integers(-2, 2), st.floats(-2.0, 2.0, allow_nan=False))
entry = st.one_of(st.tuples(number, number).map(list), junk, st.lists(number, max_size=3))


@st.composite
def matrices(draw):
    """Matrix objects: mostly well formed up to 3 x 3, sometimes broken."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    count = rows * cols
    if draw(st.booleans()):
        entries = draw(st.lists(st.tuples(number, number).map(list),
                                min_size=count, max_size=count))
    else:
        entries = draw(st.lists(entry, max_size=10))
    obj = {"rows": rows, "cols": cols, "entries": entries}
    for key in draw(st.sets(st.sampled_from(["rows", "cols", "entries"]), max_size=1)):
        obj[key] = draw(junk)
    return obj


weights = st.one_of(st.lists(st.one_of(number, junk), max_size=3), junk)
unitary_ensembles = st.fixed_dictionaries(
    {"weights": weights, "unitaries": st.one_of(st.lists(matrices(), max_size=3), junk)},
    optional={"n": st.one_of(st.integers(0, 3), junk)},
)
tuple_ensembles = st.fixed_dictionaries({
    "d": st.one_of(st.integers(-1, 3), junk),
    "k": st.one_of(st.integers(-1, 3), junk),
    "weights": weights,
    "tuples": st.one_of(st.lists(st.lists(matrices(), max_size=3), max_size=2), junk),
})
certificates = st.fixed_dictionaries({
    "target": matrices(),
    "achieved": matrices(),
    "residual_fro": st.one_of(number, junk),
    "residual_max": st.one_of(number, junk),
    "ensemble": st.one_of(tuple_ensembles, unitary_ensembles, junk),
})
documents = st.one_of(
    st.one_of(matrices(), unitary_ensembles, tuple_ensembles, certificates, junk).map(json.dumps),
    st.just("not json{"),
)


def run_on(tmp_path, argv, text):
    """Write `text` to a file, run `mufact <argv> <file>` and return the exit code."""
    path = tmp_path / "input.json"
    path.write_text(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv + [str(path)])


@FUZZ
@given(what=st.sampled_from(["correlation", "ensemble", "certificate", "channel"]),
       text=documents)
def test_verify_exits_with_a_documented_code(tmp_path, what, text):
    assert run_on(tmp_path, ["verify", "--what", what], text) in EXIT_CODES


@FUZZ
@given(command=st.sampled_from([["norms", "--A"], ["dilate", "--X"]]),
       text=st.one_of(matrices(), junk).map(json.dumps))
def test_norms_and_dilate_exit_with_a_documented_code(tmp_path, command, text):
    assert run_on(tmp_path, command, text) in EXIT_CODES
