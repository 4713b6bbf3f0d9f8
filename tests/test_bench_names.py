"""Every name and command line that the benchmark uses still exists.

bench/tracing.py replaces the names below by timing wrappers in its traced
run, and bench/workloads.py runs mufact commands and library calls; a
deleted or renamed one would break the benchmark, not this suite, so both
are checked here. The tracer is never installed.
"""

import importlib.util
import os
import sys

import pytest

from mufact import cli

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def _load(name):
    """bench/<name>.py, imported by path as bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
TRACED = [(owner, name) for owner, name, _ in tracing.FUNCTIONS + tracing.METHODS]


@pytest.mark.parametrize("owner, name", TRACED, ids=[f"{o.__name__}.{n}" for o, n in TRACED])
def test_every_traced_name_exists_and_is_callable(owner, name):
    assert callable(getattr(owner, name, None)), f"{owner.__name__} has no callable {name}"


@pytest.mark.parametrize("workload", ["lift", "factorise", "distance"])
def test_every_bench_command_line_parses(workload, monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "checks", _load("checks"))  # workloads imports it
    workloads = _load("workloads")
    argvs = []
    monkeypatch.setattr(workloads, "cli", lambda *argv: argvs.append([str(a) for a in argv]))
    make_round, warm_up = workloads.WORKLOADS[workload]
    for op in make_round(1, 0, str(tmp_path)) + warm_up(str(tmp_path)):
        op.run()  # distance calls dist_upper_bound itself, with the bench's keywords
    assert argvs
    for argv in argvs:
        assert cli.build_parser().parse_args(argv).command == argv[0]
