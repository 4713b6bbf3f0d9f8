"""The three workloads: seeded inputs, the operations on them, their checks.

An operation is the whole pipeline for one input (for `lift`, gen -> mu ->
extract -> verify on one planted ensemble). It fails when a mufact call
exits non-zero or raises, or when a check rejects its output. Inputs come
only from the workload seed and the round number, so a given (seed, round)
always yields the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from checks import CheckFailed

import mufact.cli as mufact_cli
import mufact.factorise as mufact_factorise
import mufact.fileio as mufact_fileio


class OpFailed(Exception):
    """A mufact call ended with a non-zero exit code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def cli(*argv) -> None:
    """Run `mufact <argv>` in-process, output captured; non-zero exit fails."""
    args = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = mufact_cli.main(args)
    if code != 0:
        raise OpFailed(f"mufact {args[0]} exited {code}")


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def haar(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def planted(k: int, d: int, atoms: int, rng):
    """(weights, (M, k, d, d) Haar tuples) with Dirichlet weights."""
    weights = rng.dirichlet(np.ones(atoms))
    tuples = np.stack([[haar(d, rng) for _ in range(k)] for _ in range(atoms)])
    return weights, tuples


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_tuples(path: str, weights, tuples) -> None:
    write_json(path, {
        "d": tuples.shape[2],
        "k": tuples.shape[1],
        "weights": [float(w) for w in weights],
        "tuples": [[matrix_json(u) for u in tup] for tup in tuples],
    })


# ---------------------------------------------------------------------------
# lift: tuples -> mixed-unitary ensemble -> tuples, and the 2*eps repair

# (d, k, atoms) for n = dk from 2 to 12. Operation times span three orders
# of magnitude, so n = 11 appears four times: the median operation then
# falls inside one cluster of like operations, not between two of them.
LIFT_CASES = [
    (1, 2, 3), (1, 3, 3), (2, 2, 3), (1, 5, 3), (3, 2, 2), (1, 7, 3),
    (2, 4, 3), (3, 3, 2), (2, 5, 2), (1, 11, 3), (2, 6, 2),
    (1, 11, 3), (1, 11, 3), (1, 11, 3),
]
# (d, k, atoms, epsilon); the d=3, k=4 case composes d^4 * 81 * 3 = 19683
# ensemble members inside delta_compress, which sets the run's peak memory
REPAIR_CASES = [(1, 4, 3, 0.1), (2, 3, 3, 0.3), (2, 2, 3, 0.02), (3, 4, 3, 0.1)]


def lift_op(work: str, tag: str, d: int, k: int, atoms: int, rng) -> Op:
    gen_seed = int(rng.integers(2 ** 31))
    x = rng.standard_normal((d * k, d * k)) + 1j * rng.standard_normal((d * k, d * k))
    base = os.path.join(work, tag)

    def run():
        cli("gen", "fkd-convex", "--k", k, "--d", d, "--atoms", atoms,
            "--seed", gen_seed, "--out", base)
        cli("mu", "--tuples", base + ".ensemble.json", "--out", base + ".mu.json")
        cli("extract", "--ensemble", base + ".mu.json", "--C", base + ".correlation.json",
            "--d", d, "--k", k, "--out", base + ".rec.json")
        cli("verify", "--what", "ensemble", base + ".mu.json")

    def check(_):
        c = checks.gram_average(*checks.tuple_ensemble(checks.read_json(base + ".ensemble.json")))
        written = checks.matrix(checks.read_json(base + ".correlation.json"))
        if np.abs(written - c).max() > 1e-12:
            raise CheckFailed("written correlation is not the planted Gram average")
        weights, unitaries = checks.unitary_ensemble(checks.read_json(base + ".mu.json"))
        checks.check_mu_ensemble(weights, unitaries, c, d, atoms, x)
        checks.check_extracted(*checks.tuple_ensemble(checks.read_json(base + ".rec.json")), c)

    return Op("lift", run, check)


def repair_op(work: str, tag: str, d: int, k: int, atoms: int, eps: float, rng) -> Op:
    w0, t0 = planted(k, d, atoms, rng)
    w1, t1 = planted(k, d, atoms, rng)
    t = eps / 2.0
    c = (1.0 - t) * checks.gram_average(w0, t0) + t * checks.gram_average(w1, t1)
    base = os.path.join(work, tag)
    write_json(base + ".C.json", matrix_json(c))
    write_tuples(base + ".tuples.json", w0, t0)

    def run():
        cli("mu", "--tuples", base + ".tuples.json", "--out", base + ".phi.json")
        cli("correct", "--C", base + ".C.json", "--phi", base + ".phi.json",
            "--epsilon", repr(eps), "--out", base + ".rep.json")

    def check(_):
        cert = checks.read_json(base + ".rep.json.certificate.json")
        checks.check_repair(*checks.tuple_ensemble(cert["ensemble"]), c, eps)

    return Op("repair", run, check)


def lift_round(seed: int, rnd: int, work: str) -> list[Op]:
    rng = rng_for(seed, 1, rnd)
    ops = [lift_op(work, f"l{i}", d, k, m, rng) for i, (d, k, m) in enumerate(LIFT_CASES)]
    ops += [repair_op(work, f"r{i}", d, k, m, e, rng) for i, (d, k, m, e) in enumerate(REPAIR_CASES)]
    return ops


def lift_warm_up(work: str) -> list[Op]:
    rng = rng_for(0, 1, 2 ** 20)
    return [lift_op(work, "wl", 2, 2, 1, rng), repair_op(work, "wr", 2, 2, 1, 0.1, rng)]


# ---------------------------------------------------------------------------
# factorise: membership search on planted targets, where it stops early

# (d, k, atoms, count). At d=1 these are the k=4 targets of acceptance
# criterion 8 with one planted atom, which the solver recovers on every seed;
# with three atoms it leaves some above tol (see CHANGES.md). The d=1 cases
# are the majority, so the median operation is one of them. k=4 at d=2 is
# left out for its long tail: one target in a few hundred takes 10x the median.
FACTORISE_CASES = [(1, 4, 1, 10), (2, 3, 3, 3), (3, 3, 1, 3)]
FACTORISE_TOL = 1e-8


def factorise_op(work: str, tag: str, d: int, k: int, atoms: int, rng) -> Op:
    c = checks.gram_average(*planted(k, d, atoms, rng))
    solver_seed = int(rng.integers(2 ** 31))
    base = os.path.join(work, tag)
    write_json(base + ".C.json", matrix_json(c))

    def run():
        cli("factorise", "--C", base + ".C.json", "--d", d, "--tol", FACTORISE_TOL,
            "--seed", solver_seed, "--out", base + ".rep.json")
        cli("verify", "--what", "certificate", base + ".rep.json.certificate.json")

    def check(_):
        cert = checks.read_json(base + ".rep.json.certificate.json")
        weights, tuples = checks.tuple_ensemble(cert["ensemble"])
        checks.check_certificate(weights, tuples, checks.matrix(cert["achieved"]), c, FACTORISE_TOL)

    return Op("factorise", run, check)


def factorise_round(seed: int, rnd: int, work: str) -> list[Op]:
    rng = rng_for(seed, 2, rnd)
    cases = [(d, k, atoms) for d, k, atoms, count in FACTORISE_CASES for _ in range(count)]
    return [factorise_op(work, f"f{i}", d, k, m, rng) for i, (d, k, m) in enumerate(cases)]


def factorise_warm_up(work: str) -> list[Op]:
    rng = rng_for(0, 2, 2 ** 20)
    return [factorise_op(work, "wf1", 1, 3, 1, rng), factorise_op(work, "wf2", 2, 2, 1, rng)]


# ---------------------------------------------------------------------------
# distance: the solver on targets outside the d=1 set, where no restart hits

DIST_SOLVER = {"atoms": 5, "restarts": 2, "max_iters": 40, "tol": 1e-6}
PSD_K = 4


def extreme_target(rng):
    """Gram matrix of four unit vectors in C^2 whose v_i v_i* span Herm(2).

    Such a rank-2 correlation matrix is an extreme point of the 4x4
    elliptope, so it is not an average of rank-one (d=1) Grams.
    """
    while True:
        v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        v /= np.linalg.norm(v, axis=0)
        if checks.hermitian_span_rank(v, tol=1e-2) == 4:
            return v, np.conj(v).T @ v


def distance_op(work: str, tag: str, rng) -> Op:
    v, c = extreme_target(rng)
    solver_seed = int(rng.integers(2 ** 31))
    g = rng.standard_normal((PSD_K, PSD_K)) + 1j * rng.standard_normal((PSD_K, PSD_K))
    g /= np.linalg.norm(g, axis=0)
    psd = rng.uniform(0.5, 2.0) * (np.conj(g).T @ g)
    base = os.path.join(work, tag)
    write_json(base + ".psd.json", matrix_json(psd))

    def run():
        b1 = mufact_factorise.dist_upper_bound(c, 1, seed=solver_seed, **DIST_SOLVER)
        b2 = mufact_factorise.dist_upper_bound(c, 2, seed=solver_seed, **DIST_SOLVER)
        for name, b in (("r1", b1), ("r2", b2)):
            mufact_fileio.save_matrix(f"{base}.{name}.json", c - b.certificate.achieved)
            cli("norms", "--A", f"{base}.{name}.json", "--seed", solver_seed,
                "--out", f"{base}.{name}.norms.json")
        cli("norms", "--A", base + ".psd.json", "--psd", "--seed", solver_seed,
            "--out", base + ".psd.norms.json")
        return b1, b2

    def check(out):
        b1, b2 = out
        if checks.hermitian_span_rank(v) != 4:
            raise CheckFailed("target is not an extreme point of the elliptope")
        resid = []
        for b in (b1, b2):
            cert = b.certificate
            resid.append(checks.check_gram(cert.ensemble.weights, cert.ensemble.tuples,
                                           cert.achieved, c))
        checks.check_outside(resid[0], DIST_SOLVER["tol"])
        checks.check_distances(b1.value, b2.value, *resid)
        for name, a in (("r1", resid[0]), ("r2", resid[1]), ("psd", psd)):
            res = checks.read_json(f"{base}.{name}.norms.json")["results"]
            checks.check_bracket(a, res["cb_lower"], res["cb_upper"], res["superop_lb"],
                                 res.get("psd_norm") if name == "psd" else None)

    return Op("distance", run, check)


def distance_round(seed: int, rnd: int, work: str) -> list[Op]:
    return [distance_op(work, "d0", rng_for(seed, 3, rnd))]


def distance_warm_up(work: str) -> list[Op]:
    """The same calls once on a 2x2 target, smaller and unchecked."""
    v = rng_for(0, 3, 2 ** 20).standard_normal((2, 2)) + 0j
    v /= np.linalg.norm(v, axis=0)
    c = v.T @ v
    base = os.path.join(work, "wd")
    write_json(base + ".C.json", matrix_json(c))

    def run():
        mufact_factorise.dist_upper_bound(c, 2, atoms=2, restarts=1, max_iters=5)
        cli("norms", "--A", base + ".C.json", "--psd")

    return [Op("distance", run, lambda out: None)]


WORKLOADS = {
    "lift": (lift_round, lift_warm_up),
    "factorise": (factorise_round, factorise_warm_up),
    "distance": (distance_round, distance_warm_up),
}
