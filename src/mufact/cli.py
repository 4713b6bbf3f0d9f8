"""Command line interface.

Exit codes: 0 success, 2 malformed input or usage, 3 residual above the
requested tolerance, 4 verification failure, 5 numeric domain error,
a LAPACK routine that fails to converge and an array too large to
allocate among them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from .errors import (
    FileFormatError,
    MufactError,
    NotAFactorisation,
    NotBlockDiagonal,
    NotUnitary,
    ShapeMismatch,
)
from .linalg import random_correlation, rng_from_seed
from .channels import ChoiMatrix, MixedUnitaryEnsemble, SchurSymbol, verify_channel
from .channels import SIGN_ORACLE_MAX_K, biaverage_pm_oracle, d_biaverage
from .factorise import (
    UnitaryTupleEnsemble,
    correction_pipeline,
    membership_solve,
    mu_ensemble_from_tuples,
    random_tuple_ensemble,
    halmos_dilate,
    tuples_from_ensemble,
    verify_certificate,
)
from .norms import schur_cb_norm, schur_norm_psd
from . import fileio


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return v


def _nonneg_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return v


def _positive_int(text: str) -> int:
    v = _nonneg_int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return v


def _load_ensemble(path: str, form: type, digests: dict | None = None):
    e = fileio.load_ensemble(path, digests)
    if not isinstance(e, form):
        kind = "unitary" if form is MixedUnitaryEnsemble else "tuple"
        raise FileFormatError(f"{path}: expected an ensemble in {kind} form")
    return e


def _load_square(path: str, what: str, digests: dict | None = None):
    m = fileio.load_matrix(path, digests)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise FileFormatError(f"{path}: {what} must be a non-empty square matrix")
    return m


def _load_choi(path: str, digests: dict | None = None) -> ChoiMatrix:
    m = _load_square(path, "Choi matrix", digests)
    k = math.isqrt(m.shape[0])
    if k * k != m.shape[0]:
        raise FileFormatError(f"{path}: Choi side {m.shape[0]} is not a perfect square")
    return ChoiMatrix(m, k)


def _emit(args, results: dict, inputs: tuple[str, ...], certificate=None, trace=None) -> dict:
    """Write the report of args.command; inputs names the arguments that hold
    input paths, each reported with the sha256 of the bytes loaded from it.
    A certificate is written to <out>.certificate.json first, and its path
    added to the results. A trace (counts that explain the run) goes under
    its own top-level key, outside the deterministic results."""
    if certificate is not None:
        results["certificate_path"] = cert_path = args.out + ".certificate.json"
        fileio.save_certificate(cert_path, certificate)
    paths = {name: getattr(args, name) for name in inputs}
    report = fileio.report_json(
        args.command, args._argv, {name: (p, args._digests[p]) for name, p in paths.items()},
        getattr(args, "seed", None), results, time.perf_counter() - args._t0,
    )
    if trace is not None:
        report["trace"] = trace
    out = getattr(args, "out", None)
    if out:
        fileio.save_json(out, report)
    return report


# ---------------------------------------------------------------------------
# command handlers


def _cmd_gen(args) -> int:
    tag = {"correlation": 1, "tuple": 2, "fkd-convex": 3}[args.kind]
    rng = rng_from_seed(args.seed, (tag,))
    if args.kind == "correlation":
        fileio.save_matrix(args.out, random_correlation(args.k, rng))
        print(f"wrote {args.k}x{args.k} correlation matrix to {args.out}")
        return 0
    ens = random_tuple_ensemble(args.k, args.d, args.atoms, rng)
    if args.kind == "tuple":
        fileio.save_ensemble(args.out, ens)
        print(f"wrote {ens.size}-atom tuple ensemble (k={args.k}, d={args.d}) to {args.out}")
        return 0
    c_path = args.out + ".correlation.json"
    e_path = args.out + ".ensemble.json"
    fileio.save_matrix(c_path, ens.gram_average())
    fileio.save_ensemble(e_path, ens)
    print(f"wrote planted correlation to {c_path} and its witness to {e_path}")
    return 0


def _cmd_factorise(args) -> int:
    c = fileio.load_matrix(args.C, args._digests)
    cert = membership_solve(
        c, args.d, atoms=args.atoms, restarts=args.restarts,
        max_iters=args.max_iters, tol=args.tol, seed=args.seed,
    )
    results = {
        "residual_fro": cert.residual_fro,
        "residual_max": cert.residual_max,
        "atoms": cert.ensemble.size,
        "achieved": cert.achieved,
        "tol": args.tol,
    }
    _emit(args, results, ("C",), cert)
    ok = cert.residual_fro <= args.tol
    print(
        f"residual_fro={cert.residual_fro:.6e} "
        f"({'within' if ok else 'above'} tol={args.tol:g}); report at {args.out}"
    )
    return 0 if ok else 3


def _cmd_mu(args) -> int:
    ens = _load_ensemble(args.tuples, UnitaryTupleEnsemble)
    if ens.k == 0:
        raise FileFormatError(f"{args.tuples}: tuples must have at least one entry")
    mu = mu_ensemble_from_tuples(ens)
    fileio.save_ensemble(args.out, mu)
    print(f"wrote mixed-unitary ensemble with {mu.size} members to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    ens = _load_ensemble(args.ensemble, MixedUnitaryEnsemble)
    c = fileio.load_matrix(args.C)
    tuples = tuples_from_ensemble(ens, c, args.d, args.k, tol=args.tol)
    fileio.save_ensemble(args.out, tuples)
    print(f"extracted {tuples.size} tuples to {args.out}")
    return 0


def _cmd_correct(args) -> int:
    c = _load_square(args.C, "target", args._digests)
    phi = _load_ensemble(args.phi, MixedUnitaryEnsemble, args._digests)
    k = c.shape[0]
    if phi.dim % k != 0:
        raise FileFormatError(
            f"ensemble dimension {phi.dim} is not a multiple of k={k}"
        )
    report = correction_pipeline(c, phi, args.epsilon, phi.dim // k)
    results = {
        "c_tilde": report.c_tilde,
        "c_hat": report.certificate.achieved,
        "max_abs_delta": report.max_abs_delta,
        "epsilon_in": report.epsilon_in,
        "bound_ok": report.bound_ok,
    }
    _emit(args, results, ("C", "phi"), report.certificate)
    print(
        f"max_abs_delta={report.max_abs_delta:.6e} vs 2*epsilon={2 * args.epsilon:g} "
        f"(bound_ok={report.bound_ok}); report at {args.out}"
    )
    return 0


def _cmd_norms(args) -> int:
    a = _load_square(args.A, "symbol", args._digests)
    est = schur_cb_norm(a)
    results = {
        "cb_lower": est.lower,
        "cb_upper": est.upper,
        "cb_method": "haagerup-certificate",
        "superop_lb": est.witness_norm(a),
    }
    if args.psd:
        results["psd_norm"] = schur_norm_psd(a)
    trace = {"cb_steps": est.iterations, "lower_step": est.lower_step,
             "upper_step": est.upper_step, "upper_start": est.upper_start}
    report = _emit(args, results, ("A",), trace=trace)
    print(fileio.dumps(report["results"]))
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    for path in args.files:
        try:
            if args.what == "correlation":
                SchurSymbol(_load_square(path, "correlation matrix")).check()
            elif args.what == "ensemble":
                fileio.load_ensemble(path).check()
            elif args.what == "certificate":
                verify_certificate(fileio.load_certificate(path))
            else:  # channel
                rep = verify_channel(_load_choi(path))
                if not (rep.cp and rep.tp):
                    raise MufactError(
                        f"cp={rep.cp} tp={rep.tp} unital={rep.unital} "
                        f"(residuals {rep.cp_residual:.2e}/{rep.tp_residual:.2e})"
                    )
            print(f"{path}: OK")
        except FileFormatError:
            raise
        except MufactError as exc:
            print(f"{path}: FAIL ({exc})")
            failures += 1
    return 4 if failures else 0


def _cmd_biaverage(args) -> int:
    choi = _load_choi(args.choi, args._digests)
    b = d_biaverage(choi)
    results = {"k": choi.k, "symbol": b}
    if choi.k <= SIGN_ORACLE_MAX_K:
        oracle = biaverage_pm_oracle(choi)
        results["oracle_max_diff"] = float(abs(b - oracle).max())
    print(fileio.dumps(_emit(args, results, ("choi",))["results"]))
    return 0


def _cmd_dilate(args) -> int:
    x = fileio.load_matrix(args.X)
    w = halmos_dilate(x)
    if args.out:
        fileio.save_matrix(args.out, w)
        print(f"wrote {w.shape[0]}x{w.shape[1]} unitary dilation to {args.out}")
    else:
        print(fileio.dumps(fileio.matrix_to_json(w)))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    # options are spelled in full: with argparse's default, --max would parse
    # as --max-iters, and a new option could change what an old prefix means
    parser = argparse.ArgumentParser(
        prog="mufact",
        description="Mixed-unitary factorisations of lifted Schur multipliers.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("gen", help="generate a seeded test instance")
    p.add_argument("kind", choices=["correlation", "tuple", "fkd-convex"])
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, default=1)
    p.add_argument("--atoms", type=_positive_int, default=3)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("factorise", help="search for a Gram-average representation")
    p.add_argument("--C", required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--atoms", type=_positive_int, default=None)
    p.add_argument("--restarts", type=_positive_int, default=20)
    p.add_argument("--max-iters", type=_positive_int, default=500)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_factorise)

    p = sub.add_parser("mu", help="build the mixed-unitary ensemble of a tuple ensemble")
    p.add_argument("--tuples", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("extract", help="recover tuples from a factorising ensemble")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-9,
                   help="tolerance of the block and action checks; ensemble members are "
                        "first held to UNITARY_TOL (1e-10) whatever its value")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("correct", help="repair an approximate factorisation by dilation")
    p.add_argument("--C", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--epsilon", type=_positive_float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("norms", help="norm estimates for a Schur multiplier symbol")
    p.add_argument("--A", required=True)
    p.add_argument("--psd", action="store_true")
    p.add_argument("--seed", type=_nonneg_int, default=0,
                   help="recorded in the report; no output depends on it")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("verify", help="validate artifacts; exit 4 on failure")
    p.add_argument("--what", choices=["correlation", "ensemble", "certificate", "channel"],
                   required=True)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("biaverage", help="diagonal biaverage symbol of a Choi matrix")
    p.add_argument("--choi", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_biaverage)

    p = sub.add_parser("dilate", help="unitary dilation of a contraction")
    p.add_argument("--X", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dilate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    # what _emit reports: the argv, the start time, and input path -> sha256
    args._argv, args._t0, args._digests = argv, time.perf_counter(), {}
    try:
        return args.func(args)
    except (FileFormatError, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAFactorisation, NotBlockDiagonal, NotUnitary) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except (MufactError, np.linalg.LinAlgError) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:  # numpy's message names the size asked for
        print(f"out of memory: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
