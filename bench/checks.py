"""Output checks made apart from mufact: plain json and numpy only.

Each check raises CheckFailed with a reason when an output is wrong. The
readers parse mufact's documented JSON formats directly, so a fault in
mufact's own parsers or writers cannot hide a wrong answer.
"""

from __future__ import annotations

import json

import numpy as np

# mufact bisects cb brackets until hi - lo <= 1e-4 * hi (its default), and
# the certified upper end may sit a probe tolerance above the last feasible
# level, so on a PSD symbol upper must land within twice that of max_i a_ii
PSD_CLOSE = 2e-4


class CheckFailed(Exception):
    """An operation produced an output that violates a checked property."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# readers for mufact's file formats


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def matrix(obj) -> np.ndarray:
    pairs = np.asarray(obj["entries"], dtype=float).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["rows"], obj["cols"])


def unitary_ensemble(obj):
    """(weights, (M, n, n) unitaries) from an ensemble in unitary form."""
    return np.asarray(obj["weights"], dtype=float), np.stack(
        [matrix(u) for u in obj["unitaries"]]
    )


def tuple_ensemble(obj):
    """(weights, (M, k, d, d) tuples) from an ensemble in tuple form."""
    return np.asarray(obj["weights"], dtype=float), np.stack(
        [np.stack([matrix(u) for u in entry]) for entry in obj["tuples"]]
    )


# ---------------------------------------------------------------------------
# reference computations


def gram_average(weights, tuples) -> np.ndarray:
    """sum_m p_m tr_d(U_i* U_j), written out with plain loops over members."""
    d = tuples.shape[2]
    out = np.zeros((tuples.shape[1],) * 2, dtype=complex)
    for p, tup in zip(weights, tuples):
        flat = tup.reshape(tup.shape[0], -1)
        out += p * (np.conj(flat) @ flat.T) / d
    return out


def lifted_schur(c, d: int, x) -> np.ndarray:
    """(c o tr_d-blocks) (x) I_d: block (i, j) of x becomes c_ij tr_d(X_ij) I_d."""
    k = c.shape[0]
    traces = np.trace(x.reshape(k, d, k, d), axis1=1, axis2=3) / d
    return np.kron(c * traces, np.eye(d))


def conjugation_average(weights, unitaries, x) -> np.ndarray:
    """sum_m p_m U_m X U_m*, one member at a time."""
    out = np.zeros_like(x, dtype=complex)
    for p, u in zip(weights, unitaries):
        out += p * (u @ x @ np.conj(u).T)
    return out


def hermitian_span_rank(vectors, tol: float = 1e-6) -> int:
    """Real rank of {v_i v_i*} inside Herm(r) for the columns v_i."""
    r = vectors.shape[0]
    coords = []
    for v in vectors.T:
        h = np.outer(v, np.conj(v))
        iu = np.triu_indices(r, 1)
        coords.append(np.concatenate([np.real(np.diagonal(h)), h[iu].real, h[iu].imag]))
    s = np.linalg.svd(np.asarray(coords), compute_uv=False)
    return int((s > tol * s[0]).sum())


# ---------------------------------------------------------------------------
# lift


def check_mu_ensemble(weights, unitaries, c, d: int, atoms: int, x) -> None:
    """A lifted ensemble: d^4 * M block-diagonal members realising c on x."""
    k = c.shape[0]
    _require(
        len(weights) == d ** 4 * atoms,
        f"ensemble has {len(weights)} members, expected d^4*M = {d ** 4 * atoms}",
    )
    blocks = unitaries.reshape(-1, k, d, k, d).transpose(0, 1, 3, 2, 4).copy()
    blocks[:, range(k), range(k)] = 0.0
    off = float(np.abs(blocks).max(initial=0.0))
    _require(off <= 1e-12, f"off-diagonal block entry of size {off:.3e}")
    err = float(np.abs(conjugation_average(weights, unitaries, x) - lifted_schur(c, d, x)).max())
    _require(err <= 1e-9, f"ensemble action deviates from the lifted multiplier by {err:.3e}")


def check_extracted(weights, tuples, planted_c) -> None:
    err = float(np.abs(gram_average(weights, tuples) - planted_c).max())
    _require(err <= 1e-9, f"extracted Gram average misses the planted C by {err:.3e}")


def check_repair(weights, dilations, c, epsilon: float) -> None:
    """Repaired Gram average within 2*epsilon of c; every dilated entry unitary."""
    n = dilations.shape[-1]
    eye = np.eye(n)
    for m, tup in enumerate(dilations):
        for i, u in enumerate(tup):
            err = float(np.linalg.norm(np.conj(u).T @ u - eye))
            _require(err <= 1e-9, f"dilated entry ({m}, {i}) is not unitary ({err:.3e})")
    delta = float(np.abs(gram_average(weights, dilations) - c).max())
    _require(delta < 2.0 * epsilon, f"repair misses c by {delta:.4g} >= 2*eps = {2 * epsilon:g}")


# ---------------------------------------------------------------------------
# factorise


def check_gram(weights, tuples, achieved, target) -> np.ndarray:
    """A certificate's achieved equals its tuples' Gram average; returns target - achieved."""
    drift = float(np.abs(gram_average(weights, tuples) - achieved).max())
    _require(drift <= 1e-10, f"stored achieved is off its tuples' Gram average by {drift:.3e}")
    return target - achieved


def check_certificate(weights, tuples, achieved, target, tol: float) -> None:
    """check_gram, and a planted target must end within tol."""
    resid = float(np.linalg.norm(check_gram(weights, tuples, achieved, target)))
    _require(resid <= tol, f"planted target left at residual {resid:.3e} > tol {tol:g}")


# ---------------------------------------------------------------------------
# distance


def check_outside(resid, tol: float) -> None:
    """A target outside the d=1 set can never be reached within tol at d=1."""
    _require(
        float(np.linalg.norm(resid)) > tol,
        "solver claims residual <= tol for a target outside the d=1 set",
    )


def check_distances(value_d1: float, value_d2: float, resid_d1, resid_d2) -> None:
    for value, resid in ((value_d1, resid_d1), (value_d2, resid_d2)):
        floor = float(np.abs(resid).max())
        _require(value >= floor - 1e-12, f"distance {value:.6e} below max|C - achieved| {floor:.6e}")
    _require(value_d2 <= value_d1 + 1e-12, f"distance rose from d=1 ({value_d1:.6e}) to d=2 ({value_d2:.6e})")


def check_bracket(a, lower: float, upper: float, superop_lb: float, psd_norm=None) -> None:
    """cb bracket of the Schur multiplier with symbol a, as reported by mufact."""
    k = a.shape[0]
    slack = 1e-9 * (1.0 + float(np.abs(a).max()))
    entry = float(np.abs(a).max())
    rows = float(np.linalg.norm(a, axis=1).max())
    _require(entry <= lower + slack, f"lower {lower:.6e} below max|a_ij| {entry:.6e}")
    _require(lower <= upper + slack, f"bracket inverted: lower {lower:.6e} > upper {upper:.6e}")
    _require(upper <= rows + slack, f"upper {upper:.6e} above the row-norm bound {rows:.6e}")
    _require(superop_lb <= upper + slack, f"superop lb {superop_lb:.6e} above upper {upper:.6e}")
    _require(upper <= k * superop_lb + slack, f"upper {upper:.6e} above k * superop lb")
    if psd_norm is not None:
        md = float(np.real(np.diagonal(a)).max())
        _require(abs(psd_norm - md) <= slack, f"psd norm {psd_norm:.6e} is not max a_ii {md:.6e}")
        _require(abs(lower - md) <= slack, f"lower {lower:.6e} does not close on max a_ii {md:.6e}")
        _require(upper - md <= PSD_CLOSE * md + slack, f"upper {upper:.6e} does not close on max a_ii {md:.6e}")

