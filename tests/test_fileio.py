"""Unit tests for JSON serialization of matrices, ensembles and certificates."""

import hashlib
import json
import math
from itertools import chain

import numpy as np
import pytest

from mufact import (
    FileFormatError,
    GramCertificate,
    MixedUnitaryEnsemble,
    MufactError,
    UnitaryTupleEnsemble,
    mu_ensemble_from_tuples,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(np.inf)])
def test_save_json_refuses_nan_and_infinity_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "o.json"
    with pytest.raises(MufactError, match="non-finite") as exc:
        fileio.save_json(str(path), {"ok": 1.0, "nested": [[0.5, bad]]})
    assert not isinstance(exc.value, FileFormatError)  # exit 5, not 2
    assert not path.exists()


def test_save_json_is_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    obj = {"b": 1, "a": [1.5, {"z": 2, "y": 3}]}
    fileio.save_json(p1, obj)
    fileio.save_json(p2, obj)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_report_json_structure(tmp_path):
    path = str(tmp_path / "in.json")
    fileio.save_matrix(path, np.eye(2))
    digests = {}
    fileio.load_matrix(path, digests)
    rep = fileio.report_json("demo", ["--x"], {"C": (path, digests[path])}, 7, {"v": 0.25}, 0.01)
    assert rep["command"] == "demo"
    assert rep["argv"] == ["--x"]
    assert rep["seed"] == 7
    assert rep["results"] == {"v": 0.25}
    with open(path, "rb") as fh:
        assert rep["inputs"]["C"] == {"path": path, "sha256": hashlib.sha256(fh.read()).hexdigest()}


def test_matrix_from_json_matches_per_entry_conversion_bit_for_bit():
    entries = [[-0.0, 0.0], [3, -2], [5e-324, -0.0], [np.float64(0.1), 2 ** 60], [1e308, -7]]
    got = fileio.matrix_from_json({"rows": 1, "cols": 5, "entries": entries})
    want = np.array([complex(re, im) for re, im in entries]).reshape(1, 5)
    assert got.tobytes() == want.tobytes()


def test_matrix_from_json_names_the_first_bad_entry():
    good = [[1.0, 0.0]] * 4
    for n, bad, reason in (
        (2, [10 ** 400, 0], "finite"),
        (1, [math.nan, 0.0], "finite"),
        (3, (1.0, 0.0), "pair"),
        (0, "ab", "pair"),
    ):
        entries = list(good)
        entries[n] = bad
        with pytest.raises(FileFormatError, match=f"entry {n} .*{reason}"):
            fileio.matrix_from_json({"rows": 2, "cols": 2, "entries": entries})


def _entrywise(obj):
    """The reference parse of one matrix object: complex(re, im) per entry."""
    entries = [complex(re, im) for re, im in obj["entries"]]
    return np.array(entries, dtype=complex).reshape(obj["rows"], obj["cols"])


def test_both_ensemble_forms_parse_bit_for_bit_like_one_matrix_at_a_time():
    tup = json.loads(json.dumps(fileio.tuple_ensemble_to_json(
        random_tuple_ensemble(3, 2, 4, rng_from_seed(57))
    )))
    # integers, signed zeros and a subnormal, as a file may hold them
    for n, pair in enumerate([[-0.0, 0.0], [3, -2], [5e-324, -0.0], [2 ** 60, 1e308]]):
        tup["tuples"][n][n % 3]["entries"][n] = pair
    got = fileio.ensemble_from_json(tup)
    want = np.array([[_entrywise(m) for m in t] for t in tup["tuples"]])
    assert got.tuples.tobytes() == want.tobytes()
    assert got.weights.tobytes() == np.array(tup["weights"]).tobytes()
    mu = json.loads(json.dumps(fileio.ensemble_to_json(
        mu_ensemble_from_tuples(random_tuple_ensemble(2, 2, 3, rng_from_seed(58)))
    )))
    got = fileio.ensemble_from_json(mu)
    assert got.unitaries.tobytes() == np.array([_entrywise(m) for m in mu["unitaries"]]).tobytes()
    assert got.weights.tobytes() == np.array(mu["weights"]).tobytes()


def test_a_unitary_list_with_a_member_of_another_size_is_rejected():
    ens = fileio.ensemble_to_json(MixedUnitaryEnsemble(np.full(4, 0.25), weyl_unitaries(2)))
    for other in (np.eye(3), np.eye(1), np.ones((2, 3))):
        bad = json.loads(json.dumps(ens))
        bad["unitaries"][2] = fileio.matrix_to_json(other)
        with pytest.raises(FileFormatError, match="matrix 2 is not 2x2"):
            fileio.ensemble_from_json(bad)


@pytest.mark.parametrize("form", ["unitary", "tuple"])
@pytest.mark.parametrize("bad, reason", [
    ([math.nan, 0.0], "a finite number"),
    ([0.0, 10 ** 400], "a finite number"),
    ([True, 0.0], "a finite number"),
    ([1.0], r"an \[re, im\] pair"),
    ("ab", r"an \[re, im\] pair"),
])
def test_a_bad_entry_in_a_later_matrix_is_named_by_matrix_and_entry(form, bad, reason):
    if form == "unitary":
        obj = fileio.ensemble_to_json(MixedUnitaryEnsemble(np.full(4, 0.25), weyl_unitaries(2)))
        mats = obj["unitaries"]
    else:  # 2 tuples of 2 entries, numbered tuple by tuple
        obj = fileio.tuple_ensemble_to_json(random_tuple_ensemble(2, 2, 2, rng_from_seed(59)))
        mats = list(chain.from_iterable(obj["tuples"]))
    mats[3]["entries"][2] = bad
    with pytest.raises(FileFormatError, match=f"^matrix 3 entry 2 is not {reason}$"):
        fileio.ensemble_from_json(obj)


def test_a_bad_weight_is_named():
    ens = fileio.ensemble_to_json(MixedUnitaryEnsemble(np.full(4, 0.25), weyl_unitaries(2)))
    for bad in (math.nan, "0.25", None, 10 ** 400):
        with pytest.raises(FileFormatError, match=r"^weights\[1\] is not a finite number$"):
            fileio.ensemble_from_json(dict(ens, weights=[0.25, bad, 0.25, 0.25]))


def test_matrix_to_json_rejects_a_1d_array():
    with pytest.raises(FileFormatError, match=r"2-d arrays, got shape \(3,\)"):
        fileio.matrix_to_json(np.zeros(3))


def _tree_text(tree) -> str:
    """What the writers wrote before they streamed members: one json.dumps."""
    return json.dumps(tree, sort_keys=True, allow_nan=False) + "\n"


def _special_tuples(m: int, k: int, d: int) -> UnitaryTupleEnsemble:
    """Haar tuples with a signed zero, a subnormal and an integral entry."""
    if m == 0:
        return UnitaryTupleEnsemble(np.zeros(0), np.zeros((0, k, d, d), dtype=complex))
    ens = random_tuple_ensemble(k, d, m, rng_from_seed(60))
    flat = ens.tuples.reshape(-1)
    flat[:3] = [complex(-0.0, 0.0), complex(5e-324, -0.0), complex(3.0, -2.0)][:flat.size]
    return ens


@pytest.mark.parametrize("m, k, d", [(3, 2, 2), (1, 3, 1), (0, 2, 2), (2, 0, 2), (0, 0, 1)])
def test_a_streamed_tuple_ensemble_is_byte_identical_to_one_dump(tmp_path, m, k, d):
    ens = _special_tuples(m, k, d)
    path = tmp_path / "t.json"
    fileio.save_ensemble(str(path), ens)
    assert path.read_text() == _tree_text(fileio.tuple_ensemble_to_json(ens))


def test_every_streamed_artifact_is_byte_identical_to_one_dump(tmp_path):
    mu = mu_ensemble_from_tuples(random_tuple_ensemble(3, 2, 2, rng_from_seed(61)))
    mu.unitaries[0, 0, :2] = [complex(-0.0, 5e-324), complex(1e308, -7.0)]
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(62))
    cert = GramCertificate.build(ens, ens.gram_average())
    report = fileio.report_json("demo", ["--x"], {"C": ("c.json", "ab")}, 3,
                                {"m": np.eye(2) * (1 + 1j), "v": 1 / 3}, 0.5)
    for save, value, tree in (
        (fileio.save_matrix, mu.unitaries[1], fileio.matrix_to_json(mu.unitaries[1])),
        (fileio.save_ensemble, mu, fileio.ensemble_to_json(mu)),
        (fileio.save_certificate, cert, fileio.certificate_to_json(cert)),
        (fileio.save_json, report, report),
    ):
        path = tmp_path / f"{save.__name__}.json"
        save(str(path), value)
        assert path.read_text() == _tree_text(tree)


def test_the_member_builders_give_plain_json_unless_asked_for_iterators():
    ens = random_tuple_ensemble(2, 2, 2, rng_from_seed(63))
    mu = mu_ensemble_from_tuples(ens)
    cert = GramCertificate.build(ens, ens.gram_average())
    assert type(fileio.ensemble_to_json(mu)["unitaries"]) is list
    assert type(fileio.tuple_ensemble_to_json(ens)["tuples"]) is list
    assert type(fileio.certificate_to_json(cert)["ensemble"]["tuples"]) is list
    lazy = fileio.certificate_to_json(cert, members=iter)
    assert list(lazy["ensemble"]["tuples"]) == fileio.tuple_ensemble_to_json(ens)["tuples"]


@pytest.mark.parametrize("kind", ["unitary", "tuple", "certificate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_last_member_writes_nothing(tmp_path, kind, bad):
    ens = random_tuple_ensemble(2, 2, 3, rng_from_seed(64))
    if kind == "unitary":
        value, save = mu_ensemble_from_tuples(ens), fileio.save_ensemble
        value.unitaries[-1, -1, -1] = bad
    else:
        value = ens if kind == "tuple" else GramCertificate.build(ens, ens.gram_average())
        save = fileio.save_ensemble if kind == "tuple" else fileio.save_certificate
        ens.tuples[-1, -1, -1, -1] = complex(0.0, bad)
    path = tmp_path / "o.json"
    with pytest.raises(MufactError, match="non-finite") as exc:
        save(str(path), value)
    assert not isinstance(exc.value, FileFormatError)  # exit 5, not 2
    assert not path.exists()


def test_the_loaders_match_the_tree_parsers_bit_for_bit(tmp_path):
    ens = random_tuple_ensemble(3, 2, 4, rng_from_seed(65))
    cert = fileio.certificate_to_json(GramCertificate.build(ens, ens.gram_average()))
    tup = cert["ensemble"]
    mu = fileio.ensemble_to_json(mu_ensemble_from_tuples(ens))
    # integers, signed zeros and a subnormal, as a file may hold them
    for n, pair in enumerate([[-0.0, 0.0], [3, -2], [5e-324, -0.0], [2 ** 60, 1e308]]):
        tup["tuples"][n][n % 3]["entries"][n] = pair
        mu["unitaries"][n]["entries"][n] = pair
    cert["target"]["entries"][1] = [0, -0.0]
    for name, tree, load, parse in (
        ("t", tup, fileio.load_ensemble, fileio.ensemble_from_json),
        ("mu", mu, fileio.load_ensemble, fileio.ensemble_from_json),
        ("c", cert, fileio.load_certificate, fileio.certificate_from_json),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tree))
        got, want = load(str(path)), parse(json.loads(path.read_text()))
        if name == "c":
            for attr in ("target", "achieved"):
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
            assert (got.residual_fro, got.residual_max) == (want.residual_fro, want.residual_max)
            got, want = got.ensemble, want.ensemble
        assert type(got) is type(want)
        assert got.weights.tobytes() == want.weights.tobytes()
        members = "tuples" if name != "mu" else "unitaries"
        assert getattr(got, members).tobytes() == getattr(want, members).tobytes()


def _malformed_ensembles():
    """(tree, message) pairs: today's malformed ensembles and their errors."""
    unitary = fileio.ensemble_to_json(MixedUnitaryEnsemble(np.full(4, 0.25), weyl_unitaries(2)))
    tup = fileio.tuple_ensemble_to_json(random_tuple_ensemble(2, 2, 2, rng_from_seed(59)))
    cases = []
    for bad, reason in (
        ([math.nan, 0.0], "a finite number"), ([0.0, 10 ** 400], "a finite number"),
        ([True, 0.0], "a finite number"), ([1.0], "an [re, im] pair"),
        ("ab", "an [re, im] pair"), ([1.0, 0.0, 0.0], "an [re, im] pair"),
    ):
        for tree in (unitary, tup):
            tree = json.loads(json.dumps(tree))
            mats = tree.get("unitaries") or list(chain.from_iterable(tree["tuples"]))
            mats[3]["entries"][2] = bad
            cases.append((tree, f"matrix 3 entry 2 is not {reason}"))
    for edit, message in (
        (lambda t: t["unitaries"].__setitem__(2, fileio.matrix_to_json(np.eye(3))),
         "matrix 2 is not 2x2 with 4 entries"),
        (lambda t: t.__setitem__("unitaries", [fileio.matrix_to_json(np.ones((2, 3)))] * 4),
         "ensemble members must be non-empty and square"),
        (lambda t: [t["unitaries"][m]["entries"].__setitem__(m, [m]) for m in (3, 1)],
         "matrix 1 entry 1 is not an [re, im] pair"),  # the first of two
        (lambda t: t["unitaries"][1]["entries"].pop(), "matrix 1 is not 2x2 with 4 entries"),
        (lambda t: t["unitaries"][1].__setitem__("entries", {}), "matrix 1 is not 2x2 with 4 entries"),
        (lambda t: t["unitaries"][2].__setitem__("rows", True), "field 'rows' must be"),
        (lambda t: t["unitaries"].__setitem__(1, [1.0]), "matrix 1 is not an object"),
        (lambda t: t.__setitem__("weights", [0.25, None, 0.25, 0.25]), "weights[1] is not"),
        (lambda t: t.__setitem__("entries", [[1.0, 2.0]]), None),  # not a field of an ensemble
    ):
        tree = json.loads(json.dumps(unitary))
        edit(tree)
        cases.append((tree, message))
    return cases


@pytest.mark.parametrize("case", range(len(_malformed_ensembles())))
def test_load_ensemble_raises_what_the_tree_parser_raises(tmp_path, case):
    tree, message = _malformed_ensembles()[case]
    path = tmp_path / "e.json"
    path.write_text(json.dumps(tree))
    errors = []
    for parse in (lambda: fileio.ensemble_from_json(json.loads(path.read_text())),
                  lambda: fileio.load_ensemble(str(path))):
        try:
            parse()
            errors.append(None)
        except FileFormatError as exc:
            errors.append(str(exc))
    assert errors[0] == errors[1]
    assert (errors[0] is None) if message is None else errors[0].startswith(message)


def test_load_certificate_raises_what_the_tree_parser_raises(tmp_path):
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(66))
    good = fileio.certificate_to_json(GramCertificate.build(ens, ens.gram_average()))
    for edit in (
        lambda c: c["ensemble"]["tuples"][1][0]["entries"].__setitem__(3, [0.0, math.inf]),
        lambda c: c["ensemble"]["tuples"][1][2]["entries"].__setitem__(0, [0.0]),
        lambda c: c["target"]["entries"].__setitem__(8, [None, 0.0]),
        lambda c: c["achieved"]["entries"].__setitem__(4, "re"),
        lambda c: c.__setitem__("target", fileio.matrix_to_json(np.eye(2))),
        lambda c: c.__setitem__("residual_max", False),
        lambda c: c.pop("achieved"),
    ):
        tree = json.loads(json.dumps(good))
        edit(tree)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tree))
        with pytest.raises(FileFormatError) as want:
            fileio.certificate_from_json(json.loads(path.read_text()))
        with pytest.raises(FileFormatError) as got:
            fileio.load_certificate(str(path))
        assert str(got.value) == str(want.value)


def _mu_243():
    """The lift benchmark's largest repair input: 243 members of side 12."""
    return mu_ensemble_from_tuples(random_tuple_ensemble(4, 3, 3, rng_from_seed(67)))


def test_a_bad_entry_deep_in_a_large_file_is_named(tmp_path):
    tree = json.loads(json.dumps(fileio.ensemble_to_json(_mu_243())))
    tree["unitaries"][200]["entries"][77] = [0.0, "x"]
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(tree))
    with pytest.raises(FileFormatError, match="^matrix 200 entry 77 is not a finite number$"):
        fileio.load_ensemble(str(path))
    tree["unitaries"][200]["entries"][77] = [0.0]
    path.write_text(json.dumps(tree))
    with pytest.raises(FileFormatError, match=r"^matrix 200 entry 77 is not an \[re, im\] pair$"):
        fileio.load_ensemble(str(path))
    tup = fileio.tuple_ensemble_to_json(random_tuple_ensemble(3, 2, 5, rng_from_seed(68)))
    tup["tuples"][-1][-1]["entries"][-1] = [math.nan, 0.0]
    path.write_text(json.dumps(tup))
    # tuple 4's entry 2 is matrix 14 of the stack; its last entry is entry 3
    with pytest.raises(FileFormatError, match="^matrix 14 entry 3 is not a finite number$"):
        fileio.load_ensemble(str(path))


def test_writing_and_reading_a_large_ensemble_holds_about_one_member_of_json(tmp_path):
    import tracemalloc

    mu, path = _mu_243(), str(tmp_path / "mu.json")
    peaks = []
    for step in (lambda: fileio.save_ensemble(path, mu), lambda: fileio.load_ensemble(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    # 0.68 MB of text. Measured: 0.74 MB to write and 2.92 MB to read, where
    # whole-file JSON trees took 7.5 MB and 6.3 MB
    assert peaks[0] < 1.5 and peaks[1] < 4.5, peaks
