"""mufact benchmark: one workload, one seed, one line of JSON metrics.

    python3 bench/run.py --workload lift|factorise|distance --seed N \
        --seconds S --trace 0|1

Run from the root of a mufact source tree; mufact is imported from ./src in
this process, with BLAS/OpenMP pinned to one thread. The timed pass runs
whole rounds of operations until S seconds have passed; round r's inputs
come from (seed, r). Every operation's output is checked (see checks.py).
The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics (spans recorded around
mufact's public functions, see tracing.py) with --trace 1. The line before
it records the host: versions, cores and thread settings.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# The shared host's speed drifts by tens of percent from one run to the
# next, so times are reported against the reference kernel, timed in the
# same run. setup_s stays in seconds: it is scaled to a host on which the
# kernel's median is REF_NOMINAL_S, about its time on the development host.
REF_NOMINAL_S = 0.005
REF_SHARE = 0.03  # reference-kernel time kept at >= 3% of operation time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["lift", "factorise", "distance"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def pin_environment() -> None:
    """One BLAS/OpenMP thread and mufact's defaults; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MUFACT_THREADS", None)  # serial restarts
    sys.dont_write_bytecode = True  # every run compiles the same sources


def import_mufact() -> float:
    """Import numpy and mufact from ./src; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "mufact", "__init__.py")):
        sys.exit(f"error: no mufact sources under {SRC}; run from a mufact checkout")
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    sys.path.insert(0, SRC)
    import mufact

    if os.path.dirname(os.path.abspath(mufact.__file__)) != os.path.join(SRC, "mufact"):
        sys.exit(f"error: imported mufact from {mufact.__file__}, not from {SRC}")
    import mufact.cli  # noqa: F401

    return time.perf_counter() - t0


def host_info() -> dict:
    import numpy as np

    import mufact

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "mufact": mufact.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "MUFACT_THREADS": os.environ.get("MUFACT_THREADS"),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(op) -> tuple[float, bool, bool]:
    """(wall time, failed, wrong output) for one operation and its check."""
    import traceback

    from checks import CheckFailed  # imports numpy: only after pin_environment

    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # any error ends this operation, not the run
        dt = time.perf_counter() - t0
        print(f"FAILED {op.kind}:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, True, False
    dt = time.perf_counter() - t0
    try:
        op.check(out)
    except CheckFailed as exc:
        print(f"WRONG {op.kind}: {exc}", file=sys.stderr)
        return dt, True, True
    return dt, False, False


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import_s = import_mufact()

    import contextlib
    import json
    import shutil
    import statistics

    import refkernel
    import workloads

    make_round, warm_up = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    work = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        # set-up: input generation and a warm-up touching each operation kind
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = make_round(args.seed, 0, work)
            for op in warm_up(work):
                run_op(op)
            setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.reset()

        op_times, ref_times = [], []
        attempted = failed = rounds = 0
        wrong = False
        started = time.perf_counter()
        while True:
            if rounds:
                ops = make_round(args.seed, rounds, work)
            for op in ops:
                ref_times.append(refkernel.timed())
                while sum(ref_times) < REF_SHARE * sum(op_times):
                    ref_times.append(refkernel.timed())
                dt, bad_op, bad_out = run_op(op)
                op_times.append(dt)
                attempted += 1
                failed += bad_op
                wrong = wrong or bad_out
            rounds += 1
            if time.perf_counter() - started >= args.seconds:
                break
        if tracer:
            metrics = tracer.metrics(rounds)
            if tracer.calls["channels.delta_compress"]:
                # memory probe: round 0 once more, with tracemalloc on
                tracer.probe_memory = True
                for op in make_round(args.seed, 0, work):
                    op.run()
                metrics["channels.delta_compress_peak_mb"]["value"] = (
                    tracer.delta_compress_peak / 2 ** 20)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))

    busy = sum(op_times)
    ref_p50 = statistics.median(ref_times)
    setup_wall = import_s + statistics.median(setups)
    if not tracer:
        metrics = {
            "cost_ref": {"value": busy / attempted / ref_p50, "unit": "ref"},
            "op_p50_ref": {"value": statistics.median(op_times) / ref_p50, "unit": "ref"},
            "setup_s": {"value": setup_wall * REF_NOMINAL_S / ref_p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    info = dict(host_info(), workload=args.workload, seed=args.seed, trace=args.trace,
                rounds=rounds, busy_s=busy, ref_kernel_p50_s=ref_p50,
                wall_ops_per_s=attempted / busy, wall_op_p50_s=statistics.median(op_times),
                wall_setup_s=setup_wall)
    print("host " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
