"""Unit tests for JSON serialization of matrices, ensembles and certificates."""

import json
import math

import numpy as np
import pytest

from mufact import (
    FileFormatError,
    GramCertificate,
    MixedUnitaryEnsemble,
    UnitaryTupleEnsemble,
    random_tuple_ensemble,
    rng_from_seed,
    verify_certificate,
    weyl_unitaries,
)
from mufact import fileio


def test_matrix_round_trip_is_exact(tmp_path):
    rng = rng_from_seed(50)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    path = str(tmp_path / "m.json")
    fileio.save_matrix(path, m)
    assert np.array_equal(fileio.load_matrix(path), m)


def test_matrix_from_json_rejects_malformed_objects():
    good = fileio.matrix_to_json(np.eye(2))
    for breakage in (
        lambda o: o.pop("rows"),
        lambda o: o["entries"].pop(),
        lambda o: o["entries"].__setitem__(0, [1.0]),
        lambda o: o["entries"].__setitem__(0, ["a", 0.0]),
        lambda o: o["entries"].__setitem__(0, [math.inf, 0.0]),
    ):
        obj = json.loads(json.dumps(good))
        breakage(obj)
        with pytest.raises(FileFormatError):
            fileio.matrix_from_json(obj)
    with pytest.raises(FileFormatError):
        fileio.matrix_from_json([1, 2, 3])


@pytest.mark.parametrize("breakage", [
    lambda o: o["entries"].__setitem__(0, [True, 0.0]),
    lambda o: o["entries"].__setitem__(0, [1.0, False]),
    lambda o: o.__setitem__("rows", True),
    lambda o: o.__setitem__("rows", 2.0),
    lambda o: o.__setitem__("cols", math.inf),
    lambda o: o.__setitem__("cols", -1),
])
def test_matrix_from_json_rejects_booleans_and_non_integer_sizes(breakage):
    obj = fileio.matrix_to_json(np.eye(2))
    breakage(obj)
    with pytest.raises(FileFormatError):
        fileio.matrix_from_json(obj)


def test_ensemble_from_json_rejects_boolean_weights_and_bad_counts():
    ens = fileio.ensemble_to_json(MixedUnitaryEnsemble(np.full(4, 0.25), weyl_unitaries(2)))
    for key, value in (("weights", [True, 0.25, 0.25, 0.25]), ("n", "x"), ("n", 3.0), ("n", 3)):
        bad = dict(ens, **{key: value})
        with pytest.raises(FileFormatError):
            fileio.ensemble_from_json(bad)
    tup = fileio.tuple_ensemble_to_json(random_tuple_ensemble(2, 1, 1, rng_from_seed(54)))
    for key, value in (("d", 0), ("d", -1), ("k", math.inf), ("k", "2")):
        with pytest.raises(FileFormatError):
            fileio.ensemble_from_json(dict(tup, **{key: value}))


def test_load_json_missing_file():
    with pytest.raises(FileFormatError):
        fileio.load_json("/nonexistent/nowhere.json")


def test_unitary_ensemble_round_trip(tmp_path):
    w = weyl_unitaries(2)
    ens = MixedUnitaryEnsemble(np.full(4, 0.25), w)
    path = str(tmp_path / "e.json")
    fileio.save_json(path, fileio.ensemble_to_json(ens))
    back = fileio.load_ensemble(path)
    assert isinstance(back, MixedUnitaryEnsemble)
    assert np.array_equal(back.weights, ens.weights)
    assert np.array_equal(back.unitaries, ens.unitaries)


def test_tuple_ensemble_round_trip(tmp_path):
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(51))
    path = str(tmp_path / "t.json")
    fileio.save_json(path, fileio.tuple_ensemble_to_json(ens))
    back = fileio.load_ensemble(path)
    assert isinstance(back, UnitaryTupleEnsemble)
    assert np.array_equal(back.weights, ens.weights)
    assert np.array_equal(back.tuples, ens.tuples)


def test_ensemble_from_json_needs_a_recognised_form():
    with pytest.raises(FileFormatError):
        fileio.ensemble_from_json({"weights": [1.0]})
    with pytest.raises(FileFormatError):
        fileio.ensemble_from_json({"weights": [0.5], "unitaries": []})
    bad = fileio.tuple_ensemble_to_json(random_tuple_ensemble(2, 1, 1, rng_from_seed(52)))
    bad["tuples"][0].pop()  # tuple no longer has k entries
    with pytest.raises(FileFormatError):
        fileio.ensemble_from_json(bad)


def test_certificate_round_trip(tmp_path):
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(53))
    cert = GramCertificate.build(ens, ens.gram_average())
    path = str(tmp_path / "c.json")
    fileio.save_json(path, fileio.certificate_to_json(cert))
    back = fileio.load_certificate(path)
    verify_certificate(back)
    assert np.array_equal(back.target, cert.target)
    assert np.array_equal(back.achieved, cert.achieved)
    assert back.residual_fro == cert.residual_fro
    assert np.array_equal(back.ensemble.tuples, cert.ensemble.tuples)


def test_certificate_from_json_rejects_matrices_of_the_wrong_size():
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(56))
    good = fileio.certificate_to_json(GramCertificate.build(ens, ens.gram_average()))
    for key in ("target", "achieved"):
        bad = dict(good, **{key: fileio.matrix_to_json(np.eye(2))})
        with pytest.raises(FileFormatError):
            fileio.certificate_from_json(bad)


def test_round12_and_rounded():
    assert fileio.round12(math.pi) == float(f"{math.pi:.12g}")
    assert fileio.round12(math.inf) == math.inf
    out = fileio.rounded(
        {"f": np.float64(1 / 3), "z": 1 + 2j, "ok": True, "n": np.int64(3),
         "m": np.arange(2.0), "t": (0.1,)}
    )
    assert out["ok"] is True
    assert isinstance(out["f"], float) and out["f"] == float(f"{1 / 3:.12g}")
    assert out["z"] == [1.0, 2.0]
    assert out["n"] == 3
    assert out["m"] == [0.0, 1.0]
    assert out["t"] == [0.1]


def test_save_json_round_trips_floats_bit_exactly(tmp_path):
    rng = rng_from_seed(55)
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1 / 3, 0.1, -1e-300, 123456789.12345679]
    values = special + (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
    m = (np.asarray(values[:100]) + 1j * np.asarray(values[100:200])).reshape(10, 10)
    path = str(tmp_path / "f.json")
    fileio.save_json(path, {"values": values, "matrix": fileio.matrix_to_json(m)})
    back = fileio.load_json(path)
    assert [v.hex() for v in back["values"]] == [float(v).hex() for v in values]
    assert fileio.matrix_from_json(back["matrix"]).tobytes() == m.tobytes()


def test_save_json_writes_one_line_with_sorted_keys(tmp_path):
    path = tmp_path / "o.json"
    fileio.save_json(str(path), {"b": [1.5, {"z": 2, "y": 3}], "a": 0.1})
    assert path.read_text() == '{"a": 0.1, "b": [1.5, {"y": 3, "z": 2}]}\n'


def test_save_json_is_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    obj = {"b": 1, "a": [1.5, {"z": 2, "y": 3}]}
    fileio.save_json(p1, obj)
    fileio.save_json(p2, obj)
    assert fileio.sha256_of(p1) == fileio.sha256_of(p2)


def test_report_json_structure(tmp_path):
    path = str(tmp_path / "in.json")
    fileio.save_matrix(path, np.eye(2))
    rep = fileio.report_json("demo", ["--x"], {"C": path}, 7, {"v": 0.25}, 0.01)
    assert rep["command"] == "demo"
    assert rep["argv"] == ["--x"]
    assert rep["seed"] == 7
    assert rep["results"] == {"v": 0.25}
    assert rep["inputs"]["C"]["sha256"] == fileio.sha256_of(path)
