"""JSON file formats for matrices, ensembles, certificates and run reports.

Files, and the JSON that commands print, are single-line JSON with sorted
keys and never hold NaN or Infinity. Matrix entries are stored as [re, im]
pairs, row major, at full float precision so artifacts round-trip exactly.
Reports round every numeric result to 12 significant digits so repeated
runs of the same command with the same seed produce byte-identical result
sections.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain

import numpy as np

from .errors import FileFormatError, MufactError
from .channels import MixedUnitaryEnsemble
from .factorise import GramCertificate, UnitaryTupleEnsemble


def dumps(obj) -> str:
    """obj as single-line JSON with sorted keys; MufactError if it holds a
    NaN or an infinity, which JSON cannot represent."""
    # json.dumps without indent runs CPython's C encoder; json.dump never does
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise MufactError(f"cannot write non-finite output as JSON: {exc}") from exc


def save_json(path: str, obj) -> None:
    text = dumps(obj)  # before opening, so a failure writes nothing
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def sha256_of(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise FileFormatError(f"cannot digest {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise FileFormatError(f"matrix files hold 2-d arrays, got shape {a.shape}")
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist(),
    }


def _is_number(x) -> bool:
    """A finite JSON number; JSON booleans load as bool, a subclass of int."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _count(obj: dict, key: str) -> int:
    """A non-negative integer field of a JSON object."""
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FileFormatError(f"field {key!r} must be a non-negative integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FileFormatError("matrix value must be an object")
    rows, cols, entries = _count(obj, "rows"), _count(obj, "cols"), obj.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError("matrix entries must be a list")
    if len(entries) != rows * cols:
        raise FileFormatError(
            f"matrix advertises {rows}x{cols} but carries {len(entries)} entries"
        )
    # one C-level pass each over types and lengths; the entry-by-entry
    # search runs only when these or the finiteness check fail, to name the
    # first bad entry
    if not (
        set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {2}
        and set(map(type, chain.from_iterable(entries))) <= {int, float}
    ):
        _check_pairs(entries)
    try:
        flat = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries))
    except OverflowError:  # an integer beyond the float range
        flat = None
    if flat is None or not np.isfinite(flat).all():
        _check_pairs(entries)  # raises
    return flat.view(complex).reshape(rows, cols)


def _check_pairs(entries) -> None:
    """Raise on the first entry that is not an [re, im] pair of finite numbers."""
    for n, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FileFormatError(f"entry {n} is not an [re, im] pair")
        if not (_is_number(pair[0]) and _is_number(pair[1])):
            raise FileFormatError(f"entry {n} is not a finite number")


def save_matrix(path: str, m) -> None:
    save_json(path, matrix_to_json(m))


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_json(load_json(path))


# ---------------------------------------------------------------------------
# ensembles (unitary form and tuple form)


def ensemble_to_json(e: MixedUnitaryEnsemble) -> dict:
    return {
        "n": e.size,
        "weights": e.weights.tolist(),
        "unitaries": [matrix_to_json(u) for u in e.unitaries],
    }


def tuple_ensemble_to_json(e: UnitaryTupleEnsemble) -> dict:
    return {
        "d": e.d,
        "k": e.k,
        "weights": e.weights.tolist(),
        "tuples": [
            [matrix_to_json(u) for u in e.tuples[m]] for m in range(e.size)
        ],
    }


def _weights_from_json(obj, count: int) -> np.ndarray:
    ws = obj.get("weights")
    if not isinstance(ws, list) or len(ws) != count:
        raise FileFormatError("weight list is missing or has the wrong length")
    if not all(_is_number(w) for w in ws):
        raise FileFormatError("weights must be finite numbers")
    return np.asarray(ws, dtype=float)


def ensemble_from_json(obj) -> MixedUnitaryEnsemble | UnitaryTupleEnsemble:
    """Parse either form of ensemble file, discriminated by its keys."""
    if not isinstance(obj, dict):
        raise FileFormatError("ensemble value must be an object")
    if "unitaries" in obj:
        us = obj["unitaries"]
        if not isinstance(us, list) or not us:
            raise FileFormatError("unitary list is missing or empty")
        if "n" in obj and _count(obj, "n") != len(us):
            raise FileFormatError("field n disagrees with the unitary count")
        mats = [matrix_from_json(u) for u in us]
        if (n := mats[0].shape[0]) == 0 or any(m.shape != (n, n) for m in mats):
            raise FileFormatError("ensemble members must be non-empty, square and same-sized")
        return MixedUnitaryEnsemble(_weights_from_json(obj, len(mats)), np.stack(mats))
    if "tuples" in obj:
        d, k = _count(obj, "d"), _count(obj, "k")
        if d == 0:
            raise FileFormatError("tuple entries must be at least 1 x 1")
        ts = obj["tuples"]
        if not isinstance(ts, list) or not ts:
            raise FileFormatError("tuple list is missing or empty")
        stack = np.empty((len(ts), k, d, d), dtype=complex)
        for m, entry in enumerate(ts):
            if not isinstance(entry, list) or len(entry) != k:
                raise FileFormatError(f"tuple {m} does not have k={k} entries")
            for i, mat in enumerate(entry):
                a = matrix_from_json(mat)
                if a.shape != (d, d):
                    raise FileFormatError(f"tuple {m} entry {i} is not {d}x{d}")
                stack[m, i] = a
        return UnitaryTupleEnsemble(_weights_from_json(obj, len(ts)), stack)
    raise FileFormatError("ensemble object has neither 'unitaries' nor 'tuples'")


def load_ensemble(path: str) -> MixedUnitaryEnsemble | UnitaryTupleEnsemble:
    return ensemble_from_json(load_json(path))


# ---------------------------------------------------------------------------
# certificates


def certificate_to_json(cert: GramCertificate) -> dict:
    return {
        "target": matrix_to_json(cert.target),
        "achieved": matrix_to_json(cert.achieved),
        "residual_fro": float(cert.residual_fro),
        "residual_max": float(cert.residual_max),
        "ensemble": tuple_ensemble_to_json(cert.ensemble),
    }


def certificate_from_json(obj) -> GramCertificate:
    if not isinstance(obj, dict):
        raise FileFormatError("certificate value must be an object")
    try:
        ensemble = ensemble_from_json(obj["ensemble"])
        if not isinstance(ensemble, UnitaryTupleEnsemble):
            raise FileFormatError("certificate ensemble must be in tuple form")
        achieved = matrix_from_json(obj["achieved"])
        target = matrix_from_json(obj["target"])
        if achieved.shape != (ensemble.k,) * 2 or target.shape != achieved.shape:
            raise FileFormatError("certificate matrices must be k x k for the ensemble's k")
        residuals = obj["residual_fro"], obj["residual_max"]
        if not all(_is_number(r) for r in residuals):
            raise FileFormatError("certificate residuals must be finite numbers")
        return GramCertificate(
            ensemble=ensemble,
            achieved=achieved,
            target=target,
            residual_fro=float(residuals[0]),
            residual_max=float(residuals[1]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad certificate object: {exc}") from exc


def load_certificate(path: str) -> GramCertificate:
    return certificate_from_json(load_json(path))


# ---------------------------------------------------------------------------
# reports


def round12(x: float) -> float:
    """Round to 12 significant digits for reproducible report output."""
    if not math.isfinite(x):
        return float(x)
    return float(f"{x:.12g}")


def rounded(value):
    """Recursively round report values: floats, complex, arrays, containers."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return round12(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return [round12(value.real), round12(value.imag)]
    if isinstance(value, np.ndarray):
        return rounded(value.tolist())
    if isinstance(value, (list, tuple)):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {str(k): rounded(v) for k, v in value.items()}
    return value


def report_json(command, argv, inputs, seed, results, timing_s) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "inputs": {name: {"path": p, "sha256": sha256_of(p)} for name, p in inputs.items()},
        "seed": seed,
        "results": rounded(results),
        "timing_s": float(timing_s),
    }
