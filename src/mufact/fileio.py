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
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .errors import FileFormatError, MufactError
from .channels import MixedUnitaryEnsemble
from .factorise import GramCertificate, UnitaryTupleEnsemble


# one encoder for every write: json.dumps would build a new one per call.
# Encoding runs CPython's C encoder (no indent); nothing written holds a cycle.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False)


def dumps(obj) -> str:
    """obj as single-line JSON with sorted keys; MufactError if it holds a
    NaN or an infinity, which JSON cannot represent."""
    try:
        return _ENCODER.encode(obj)
    except ValueError as exc:
        raise MufactError(f"cannot write non-finite output as JSON: {exc}") from exc


def _pieces(obj):
    """The text dumps(obj) would give, in pieces; obj may hold member lists
    as iterators (see ensemble_to_json). Such a list is written as "[", the
    texts of its members joined by ", ", and "]", so that only one member's
    JSON tree is held at a time. An object whose keys are all strings is
    written key by key; json writes any other key its own way."""
    if isinstance(obj, dict) and all(type(key) is str for key in obj):
        yield "{"
        for n, key in enumerate(sorted(obj)):
            yield f'{", " if n else ""}{dumps(key)}: '
            yield from _pieces(obj[key])
        yield "}"
    elif isinstance(obj, Iterator):
        yield "["
        for n, member in enumerate(obj):
            yield f'{", " if n else ""}{dumps(member)}'
        yield "]"
    else:
        yield dumps(obj)


def save_json(path: str, obj) -> None:
    """Write obj, whose member lists may be iterators (see _pieces), as
    one line of JSON; a NaN or an infinity anywhere writes nothing."""
    text = list(_pieces(obj))  # before opening, so a failure writes nothing
    try:
        with open(path, "w") as fh:
            fh.writelines(text)
            fh.write("\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def load_json(path: str, digests: dict | None = None, object_hook=None):
    """The JSON value in the UTF-8 file at path, read once and parsed with
    json.loads's object_hook. When digests is a dict, the sha256 of the
    bytes parsed is stored in it under path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
        digest = None if digests is None else hashlib.sha256(data).hexdigest()
        del data  # not held while the text is parsed
        obj = json.loads(text, object_hook=object_hook)
    # ValueError: bad JSON or bad UTF-8; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    if digests is not None:
        digests[path] = digest
    return obj


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


def _count(obj: dict, key: str) -> int:
    """A non-negative integer field of a JSON object."""
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FileFormatError(f"field {key!r} must be a non-negative integer, got {value!r}")
    return value


def _floats(lists: list, error) -> np.ndarray:
    """The finite JSON numbers of lists, end to end, as floats, in one
    C-level pass; when it fails, an item-by-item search raises
    FileFormatError(error(n)) at the first item n that is not one."""
    size = sum(map(len, lists))
    try:
        if set(map(type, chain.from_iterable(lists))) <= {int, float}:
            out = np.fromiter(chain.from_iterable(lists), float, size)
            if np.isfinite(out).all():
                return out
    except OverflowError:  # an integer beyond the float range
        pass
    for n, x in enumerate(chain.from_iterable(lists)):
        try:  # JSON booleans load as bool, a subclass of int
            ok = not isinstance(x, bool) and math.isfinite(x)
        except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
            ok = False
        if not ok:
            raise FileFormatError(error(n))
    # numpy floats, which JSON never holds
    return np.array(list(chain.from_iterable(lists)), dtype=float)


class _Flat(list):
    """A matrix's entries as re, im, re, im, ...: its [re, im] pairs laid
    end to end."""


def _flat(entries):
    """entries laid end to end when they are a list of [re, im] pairs, by
    C-level list operations only; anything else as it is."""
    lists = type(entries) is list and set(map(type, entries)) <= {list}
    if lists and set(map(len, entries)) <= {2}:
        return _Flat(chain.from_iterable(entries))
    return entries


def _lay_flat(obj: dict) -> dict:
    """json object_hook of the typed loaders: a matrix's pairs are laid end
    to end as soon as it is parsed, so a file's pair lists are never all
    held at once."""
    if "entries" in obj:
        obj["entries"] = _flat(obj["entries"])
    return obj


def _matrices_from_json(objs: list, rows=None, cols=None) -> np.ndarray:
    """(len(objs), rows, cols) stack of matrix objects that all advertise
    rows x cols (by default the first one's size) and carry that many
    [re, im] pairs of finite numbers, laid end to end (see _lay_flat) or
    not, parsed in one pass. Errors name the matrix by its place in objs and
    the entry by its row-major place."""
    parts, bad = [], None
    for m, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise FileFormatError(f"matrix {m} is not an object")
        r, c, entries = _count(obj, "rows"), _count(obj, "cols"), _flat(obj.get("entries"))
        if rows is None:
            rows, cols = r, c
        laid = type(entries) is _Flat
        if (r, c) != (rows, cols) or not isinstance(entries, list) or (
            len(entries) != (2 if laid else 1) * r * c
        ):
            raise FileFormatError(f"matrix {m} is not {rows}x{cols} with {rows * cols} entries")
        if laid:
            parts.append(entries)
        elif bad is None:
            bad = m, entries
    size = rows * cols
    if bad is not None:
        m, entries = bad
        n = next(n for n, p in enumerate(entries) if type(p) is not list or len(p) != 2)
        raise FileFormatError(f"matrix {m} entry {n} is not an [re, im] pair")
    flat = _floats(
        parts, lambda n: f"matrix {n // 2 // size} entry {n // 2 % size} is not a finite number"
    )
    return flat.view(complex).reshape(len(objs), rows, cols)


def matrix_from_json(obj) -> np.ndarray:
    return _matrices_from_json([obj])[0]


def save_matrix(path: str, m) -> None:
    save_json(path, matrix_to_json(m))


def load_matrix(path: str, digests: dict | None = None) -> np.ndarray:
    return matrix_from_json(load_json(path, digests, _lay_flat))


# ---------------------------------------------------------------------------
# ensembles (unitary form and tuple form)


def ensemble_to_json(e: MixedUnitaryEnsemble, members=list) -> dict:
    """The file's JSON; members=iter leaves the member list an iterator, for
    save_json to write one member at a time."""
    return {
        "n": e.size,
        "weights": e.weights.tolist(),
        "unitaries": members(map(matrix_to_json, e.unitaries)),
    }


def tuple_ensemble_to_json(e: UnitaryTupleEnsemble, members=list) -> dict:
    """The file's JSON, with members as in ensemble_to_json."""
    return {
        "d": e.d,
        "k": e.k,
        "weights": e.weights.tolist(),
        "tuples": members([matrix_to_json(u) for u in t] for t in e.tuples),
    }


def save_ensemble(path: str, e: MixedUnitaryEnsemble | UnitaryTupleEnsemble) -> None:
    """Write either form of ensemble one member at a time (see _pieces)."""
    to_json = ensemble_to_json if isinstance(e, MixedUnitaryEnsemble) else tuple_ensemble_to_json
    save_json(path, to_json(e, members=iter))


def _weights_from_json(obj, count: int) -> np.ndarray:
    ws = obj.get("weights")
    if not isinstance(ws, list) or len(ws) != count:
        raise FileFormatError("weight list is missing or has the wrong length")
    return _floats([ws], lambda n: f"weights[{n}] is not a finite number")


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
        stack = _matrices_from_json(us)
        if stack.shape[1] == 0 or stack.shape[1] != stack.shape[2]:
            raise FileFormatError("ensemble members must be non-empty and square")
        return MixedUnitaryEnsemble(_weights_from_json(obj, len(us)), stack)
    if "tuples" in obj:
        d, k = _count(obj, "d"), _count(obj, "k")
        if d == 0:
            raise FileFormatError("tuple entries must be at least 1 x 1")
        ts = obj["tuples"]
        if not isinstance(ts, list) or not ts:
            raise FileFormatError("tuple list is missing or empty")
        for m, entry in enumerate(ts):
            if not isinstance(entry, list) or len(entry) != k:
                raise FileFormatError(f"tuple {m} does not have k={k} entries")
        # matrix m * k + i of the stack is entry i of tuple m
        stack = _matrices_from_json(list(chain.from_iterable(ts)), d, d).reshape(len(ts), k, d, d)
        return UnitaryTupleEnsemble(_weights_from_json(obj, len(ts)), stack)
    raise FileFormatError("ensemble object has neither 'unitaries' nor 'tuples'")


def load_ensemble(
    path: str, digests: dict | None = None
) -> MixedUnitaryEnsemble | UnitaryTupleEnsemble:
    return ensemble_from_json(load_json(path, digests, _lay_flat))


# ---------------------------------------------------------------------------
# certificates


def certificate_to_json(cert: GramCertificate, members=list) -> dict:
    """The file's JSON, with the ensemble's members as in ensemble_to_json."""
    return {
        "target": matrix_to_json(cert.target),
        "achieved": matrix_to_json(cert.achieved),
        "residual_fro": float(cert.residual_fro),
        "residual_max": float(cert.residual_max),
        "ensemble": tuple_ensemble_to_json(cert.ensemble, members),
    }


def save_certificate(path: str, cert: GramCertificate) -> None:
    """Write a certificate one tuple at a time (see _pieces)."""
    save_json(path, certificate_to_json(cert, members=iter))


def certificate_from_json(obj) -> GramCertificate:
    if not isinstance(obj, dict):
        raise FileFormatError("certificate value must be an object")
    try:
        ensemble = ensemble_from_json(obj["ensemble"])
        if not isinstance(ensemble, UnitaryTupleEnsemble):
            raise FileFormatError("certificate ensemble must be in tuple form")
        k = ensemble.k
        achieved, target = _matrices_from_json([obj["achieved"], obj["target"]], k, k)
        residuals = [obj["residual_fro"], obj["residual_max"]]
        fro, top = _floats([residuals], lambda n: "certificate residuals must be finite numbers")
        return GramCertificate(
            ensemble=ensemble,
            achieved=achieved,
            target=target,
            residual_fro=float(fro),
            residual_max=float(top),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad certificate object: {exc}") from exc


def load_certificate(path: str) -> GramCertificate:
    return certificate_from_json(load_json(path, object_hook=_lay_flat))


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
    """A run report; inputs maps each input's name to its path and the
    sha256 of the bytes the command parsed from it (see load_json)."""
    return {
        "command": command,
        "argv": list(argv),
        "inputs": {name: {"path": p, "sha256": h} for name, (p, h) in inputs.items()},
        "seed": seed,
        "results": rounded(results),
        "timing_s": float(timing_s),
    }
