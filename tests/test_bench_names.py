"""Every function and method that the benchmark's tracer wraps still exists.

bench/tracing.py replaces these names by timing wrappers in its traced run;
a deleted or renamed one would break that run, not this suite, so the lists
are checked here. The tracer is never installed.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TRACED = [(owner, name) for owner, name, _ in tracing.FUNCTIONS + tracing.METHODS]


@pytest.mark.parametrize("owner, name", TRACED, ids=[f"{o.__name__}.{n}" for o, n in TRACED])
def test_every_traced_name_exists_and_is_callable(owner, name):
    assert callable(getattr(owner, name, None)), f"{owner.__name__} has no callable {name}"
