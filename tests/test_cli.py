"""End-to-end tests of the command line interface.

Every command runs in-process through main(argv); output is captured with
redirect_stdout so the assertions hold under any pytest capture mode.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import mufact
import mufact.cli as cli
import mufact.norms as norms
from mufact import choi_of, fileio
from mufact.cli import build_parser, main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# gen / verify


def test_gen_correlation_then_verify(tmp_path):
    c = str(tmp_path / "c.json")
    rc, out, _ = run(["gen", "correlation", "--k", "3", "--seed", "5", "--out", c])
    assert rc == 0 and c in out
    rc, out, _ = run(["verify", "--what", "correlation", c])
    assert rc == 0 and "OK" in out


def test_gen_is_seed_reproducible(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
    run(["gen", "correlation", "--k", "4", "--seed", "7", "--out", a])
    run(["gen", "correlation", "--k", "4", "--seed", "7", "--out", b])
    run(["gen", "correlation", "--k", "4", "--seed", "8", "--out", c])
    assert fileio.sha256_of(a) == fileio.sha256_of(b)
    assert fileio.sha256_of(a) != fileio.sha256_of(c)


def test_verify_rejects_tampered_matrix(tmp_path):
    c = str(tmp_path / "c.json")
    run(["gen", "correlation", "--k", "2", "--out", c])
    obj = fileio.load_json(c)
    obj["entries"][0] = [2.0, 0.0]  # diagonal entry no longer 1
    fileio.save_json(c, obj)
    rc, out, _ = run(["verify", "--what", "correlation", c])
    assert rc == 4 and "FAIL" in out


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json{")
    rc, _, err = run(["verify", "--what", "correlation", str(bad)])
    assert rc == 2 and "error" in err
    rc, _, err = run(["verify", "--what", "correlation", str(tmp_path / "missing.json")])
    assert rc == 2


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


EMPTY = {"rows": 0, "cols": 0, "entries": []}


def test_norms_on_empty_symbol_exits_2(tmp_path):
    rc, _, err = run(["norms", "--A", _write(tmp_path / "a.json", EMPTY)])
    assert rc == 2 and "non-empty square" in err


def test_verify_correlation_on_empty_matrix_exits_2(tmp_path):
    rc, _, err = run(["verify", "--what", "correlation", _write(tmp_path / "c.json", EMPTY)])
    assert rc == 2 and "non-empty square" in err


def test_verify_ensemble_with_non_numeric_count_exits_2(tmp_path):
    obj = {"n": "x", "weights": [1.0], "unitaries": [fileio.matrix_to_json(np.eye(2))]}
    rc, _, err = run(["verify", "--what", "ensemble", _write(tmp_path / "e.json", obj)])
    assert rc == 2 and "field 'n'" in err


def test_verify_rejects_json_booleans_with_exit_2(tmp_path):
    c = {"rows": 1, "cols": 1, "entries": [[True, False]]}
    rc, _, err = run(["verify", "--what", "correlation", _write(tmp_path / "c.json", c)])
    assert rc == 2 and "entry 0" in err
    e = {"weights": [True], "unitaries": [fileio.matrix_to_json(np.eye(2))]}
    rc, _, err = run(["verify", "--what", "ensemble", _write(tmp_path / "e.json", e)])
    assert rc == 2 and "weights" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["factorise"])  # missing required arguments
    assert exc.value.code == 2


def test_gen_tuple_then_verify_ensemble(tmp_path):
    t = str(tmp_path / "t.json")
    rc, _, _ = run(["gen", "tuple", "--k", "2", "--d", "2", "--atoms", "2", "--out", t])
    assert rc == 0
    rc, out, _ = run(["verify", "--what", "ensemble", t])
    assert rc == 0 and "OK" in out


# ---------------------------------------------------------------------------
# factorise


def test_fkd_convex_then_factorise(tmp_path):
    base = str(tmp_path / "inst")
    rc, _, _ = run(["gen", "fkd-convex", "--k", "3", "--d", "1", "--atoms", "2",
                    "--seed", "1", "--out", base])
    assert rc == 0
    c = base + ".correlation.json"
    witness = base + ".ensemble.json"
    assert (tmp_path / "inst.correlation.json").exists()
    assert (tmp_path / "inst.ensemble.json").exists()
    assert run(["verify", "--what", "ensemble", witness])[0] == 0

    rep = str(tmp_path / "rep.json")
    rc, out, _ = run(["factorise", "--C", c, "--d", "1", "--restarts", "8",
                      "--max-iters", "300", "--tol", "1e-6", "--seed", "0",
                      "--out", rep])
    assert rc == 0 and "within" in out
    report = fileio.load_json(rep)
    assert report["command"] == "factorise"
    assert report["results"]["residual_fro"] <= 1e-6
    cert_path = report["results"]["certificate_path"]
    assert run(["verify", "--what", "certificate", cert_path])[0] == 0


def test_factorise_exit_3_when_atom_budget_cannot_reach(tmp_path):
    # a single d=1 atom has |gram entry| = 1 everywhere: the identity target
    # is unreachable and the residual stays above any small tolerance
    c = str(tmp_path / "c.json")
    fileio.save_matrix(c, np.eye(2))
    rep = str(tmp_path / "rep.json")
    rc, out, _ = run(["factorise", "--C", c, "--d", "1", "--atoms", "1",
                      "--restarts", "2", "--max-iters", "40", "--tol", "1e-6",
                      "--out", rep])
    assert rc == 3 and "above" in out
    assert fileio.load_json(rep)["results"]["residual_fro"] >= 1.0


# ---------------------------------------------------------------------------
# mu / extract


def test_mu_then_extract_round_trip(tmp_path):
    base = str(tmp_path / "inst")
    run(["gen", "fkd-convex", "--k", "2", "--d", "2", "--atoms", "2",
         "--seed", "3", "--out", base])
    mu = str(tmp_path / "mu.json")
    rc, out, _ = run(["mu", "--tuples", base + ".ensemble.json", "--out", mu])
    assert rc == 0 and "32" in out  # 2 atoms x d^4 members
    assert run(["verify", "--what", "ensemble", mu])[0] == 0

    rec = str(tmp_path / "rec.json")
    rc, _, _ = run(["extract", "--ensemble", mu, "--C", base + ".correlation.json",
                    "--d", "2", "--k", "2", "--out", rec])
    assert rc == 0
    assert run(["verify", "--what", "ensemble", rec])[0] == 0

    wrong = str(tmp_path / "wrong.json")
    run(["gen", "correlation", "--k", "2", "--seed", "9", "--out", wrong])
    rc, _, err = run(["extract", "--ensemble", mu, "--C", wrong,
                      "--d", "2", "--k", "2", "--out", rec])
    assert rc == 4 and "verification failure" in err


# ---------------------------------------------------------------------------
# correct


def test_correct_cli_and_report_reproducibility(tmp_path):
    base = str(tmp_path / "inst")
    run(["gen", "fkd-convex", "--k", "2", "--d", "2", "--atoms", "2",
         "--seed", "4", "--out", base])
    mu = str(tmp_path / "mu.json")
    run(["mu", "--tuples", base + ".ensemble.json", "--out", mu])

    rep = str(tmp_path / "rep.json")
    args = ["correct", "--C", base + ".correlation.json", "--phi", mu,
            "--epsilon", "0.05", "--out", rep]
    rc, out, _ = run(args)
    assert rc == 0 and "bound_ok=True" in out
    first = fileio.load_json(rep)
    assert run(args)[0] == 0
    second = fileio.load_json(rep)
    assert first["results"] == second["results"]  # rounded results are stable
    assert first["results"]["bound_ok"] is True
    assert first["results"]["max_abs_delta"] <= 1e-9
    assert first["inputs"]["C"]["sha256"] == fileio.sha256_of(base + ".correlation.json")
    assert run(["verify", "--what", "certificate",
                first["results"]["certificate_path"]])[0] == 0
    # the 2 * 2**4 Weyl copies of the 2 planted tuples pool to one atom per tuple
    assert fileio.load_ensemble(mu).size == 32
    cert = fileio.load_json(first["results"]["certificate_path"])
    assert len(cert["ensemble"]["tuples"]) == len(cert["ensemble"]["weights"]) == 2


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "true", '"1e-3"', "null"])
@pytest.mark.parametrize("field", ["residual_fro", "residual_max"])
def test_verify_certificate_with_a_non_numeric_residual_exits_2(tmp_path, field, text):
    ens = mufact.random_tuple_ensemble(3, 2, 2, mufact.rng_from_seed(8))
    obj = fileio.certificate_to_json(mufact.GramCertificate.build(ens, ens.gram_average()))
    good = _write(tmp_path / "good.json", obj)
    assert run(["verify", "--what", "certificate", good])[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(obj, **{field: "@"})).replace('"@"', text))
    rc, _, err = run(["verify", "--what", "certificate", str(bad)])
    assert rc == 2 and "residuals must be finite numbers" in err


# ---------------------------------------------------------------------------
# norms


def test_norms_cli_on_a_correlation_symbol(tmp_path):
    c = str(tmp_path / "c.json")
    run(["gen", "correlation", "--k", "3", "--seed", "2", "--out", c])
    rep = str(tmp_path / "norms.json")
    rc, out, _ = run(["norms", "--A", c, "--psd", "--out", rep])
    assert rc == 0
    printed = json.loads(out)
    assert printed == fileio.load_json(rep)["results"]
    assert printed["cb_method"] == "haagerup-certificate"
    assert printed["psd_norm"] == pytest.approx(1.0, abs=1e-9)
    assert printed["cb_lower"] == pytest.approx(1.0, abs=1e-9)
    assert printed["cb_upper"] - printed["cb_lower"] <= 1e-4 * printed["cb_upper"]
    assert printed["superop_lb"] == pytest.approx(1.0, abs=1e-6)


def test_norms_reads_superop_lb_off_the_bracket_witness(tmp_path, monkeypatch):
    calls = []
    real = norms.superop_norm_lb
    for module in (mufact, norms, cli):
        if getattr(module, "superop_norm_lb", None) is real:
            monkeypatch.setattr(module, "superop_norm_lb",
                                lambda *a, **kw: calls.append(1) or real(*a, **kw))
    z = np.random.default_rng(7).standard_normal((4, 4))
    a = str(tmp_path / "a.json")
    fileio.save_matrix(a, z + 1j * z.T)
    rc, out, _ = run(["norms", "--A", a])
    assert rc == 0 and calls == []
    printed = json.loads(out)
    # the report rounds to 12 significant digits
    lo, up = printed["cb_lower"], printed["cb_upper"]
    assert lo * (1.0 - 1e-11) <= printed["superop_lb"] <= up * (1.0 + 1e-11)


def test_norms_results_do_not_depend_on_the_seed(tmp_path):
    z = np.random.default_rng(8).standard_normal((3, 3))
    a = str(tmp_path / "a.json")
    fileio.save_matrix(a, z - 2j * z.T)
    results = []
    for seed in ("0", "12345"):
        rep = str(tmp_path / f"norms{seed}.json")
        assert run(["norms", "--A", a, "--seed", seed, "--out", rep])[0] == 0
        report = fileio.load_json(rep)
        assert report["seed"] == int(seed)
        results.append(json.dumps(report["results"], sort_keys=True))
    assert results[0] == results[1]


def test_norms_rejects_non_square_symbol(tmp_path):
    a = str(tmp_path / "a.json")
    fileio.save_matrix(a, np.zeros((2, 3)))
    rc, _, err = run(["norms", "--A", a])
    assert rc == 2 and "square" in err


# ---------------------------------------------------------------------------
# biaverage / dilate / channel verification


def test_biaverage_cli_identity_map(tmp_path):
    choi = str(tmp_path / "choi.json")
    fileio.save_matrix(choi, choi_of(lambda x: x, 2).matrix)
    rc, out, _ = run(["biaverage", "--choi", choi])
    assert rc == 0
    printed = json.loads(out)
    assert printed["k"] == 2
    assert printed["oracle_max_diff"] == 0.0
    assert printed["symbol"] == [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]


def test_biaverage_rejects_bad_choi(tmp_path):
    odd = str(tmp_path / "odd.json")
    fileio.save_matrix(odd, np.eye(3))  # side is not a perfect square
    assert run(["biaverage", "--choi", odd])[0] == 2

    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    bad = str(tmp_path / "swap.json")
    fileio.save_matrix(bad, swap)
    assert run(["biaverage", "--choi", bad])[0] == 5  # not completely positive


def test_verify_channel_cli(tmp_path):
    good = str(tmp_path / "good.json")
    fileio.save_matrix(good, choi_of(lambda x: x, 2).matrix)
    rc, out, _ = run(["verify", "--what", "channel", good])
    assert rc == 0 and "OK" in out

    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    bad = str(tmp_path / "swap.json")
    fileio.save_matrix(bad, swap)
    rc, out, _ = run(["verify", "--what", "channel", bad])
    assert rc == 4 and "FAIL" in out


def test_dilate_cli(tmp_path):
    x = str(tmp_path / "x.json")
    fileio.save_matrix(x, np.array([[0.5]]))
    rc, out, _ = run(["dilate", "--X", x])
    assert rc == 0
    w = fileio.matrix_from_json(json.loads(out))
    b = np.sqrt(0.75)
    assert np.allclose(w, [[0.5, b], [-b, 0.5]], atol=1e-12)

    out_path = str(tmp_path / "w.json")
    assert run(["dilate", "--X", x, "--out", out_path])[0] == 0
    assert np.array_equal(fileio.load_matrix(out_path), w)

    big = str(tmp_path / "big.json")
    fileio.save_matrix(big, np.array([[1.5]]))
    rc, _, err = run(["dilate", "--X", big])
    assert rc == 5 and "numeric domain error" in err


# ---------------------------------------------------------------------------
# degenerate inputs, unwritable outputs and bad seeds exit 2


def test_correct_on_an_ensemble_of_empty_members_exits_2(tmp_path):
    one = str(tmp_path / "one.json")
    fileio.save_matrix(one, np.ones((1, 1)))
    u0 = str(tmp_path / "u0.json")
    (tmp_path / "u0.json").write_text(json.dumps(
        {"weights": [1.0], "unitaries": [{"rows": 0, "cols": 0, "entries": []}]}))
    rc, _, err = run(["correct", "--C", one, "--phi", u0, "--epsilon", "0.1",
                      "--out", str(tmp_path / "r")])
    assert rc == 2 and "non-empty" in err
    assert run(["verify", "--what", "ensemble", u0])[0] == 2


def test_extract_on_a_tuple_form_ensemble_exits_2_and_writes_nothing(tmp_path):
    t = str(tmp_path / "t.json")
    run(["gen", "tuple", "--k", "2", "--d", "1", "--out", t])
    c = str(tmp_path / "c.json")
    fileio.save_matrix(c, np.eye(2))
    rc, _, err = run(["extract", "--ensemble", t, "--C", c, "--d", "1", "--k", "2",
                      "--out", str(tmp_path / "rec.json")])
    assert rc == 2 and "expected an ensemble in unitary form" in err
    assert _files(tmp_path) == ["c.json", "t.json"]


def test_verify_certificate_whose_ensemble_is_in_unitary_form_exits_2(tmp_path):
    tuples = mufact.random_tuple_ensemble(2, 1, 2, mufact.rng_from_seed(1))
    cert = fileio.certificate_to_json(mufact.GramCertificate.build(tuples, np.eye(2)))
    cert["ensemble"] = fileio.ensemble_to_json(mufact.depolarizing_ensemble(2))
    path = _write(tmp_path / "cert.json", cert)
    rc, out, err = run(["verify", "--what", "certificate", path])
    assert rc == 2 and "certificate ensemble must be in tuple form" in err and out == ""
    assert _files(tmp_path) == ["cert.json"]


def test_verify_ensemble_with_a_weight_list_of_the_wrong_length_exits_2(tmp_path):
    obj = fileio.ensemble_to_json(mufact.depolarizing_ensemble(2))
    obj["weights"] = obj["weights"][:-1]
    path = _write(tmp_path / "e.json", obj)
    rc, out, err = run(["verify", "--what", "ensemble", path])
    assert rc == 2 and "weight list is missing or has the wrong length" in err and out == ""
    assert _files(tmp_path) == ["e.json"]


@pytest.mark.parametrize("command", [
    ["factorise", "--C", "c.json", "--d", "1", "--tol", "abc"],
    ["factorise", "--C", "c.json", "--d", "1", "--tol", "inf"],
    ["gen", "correlation", "--k", "0"],
    ["gen", "correlation", "--k", "2", "--seed", "x"],
])
def test_a_bad_option_value_is_a_usage_error_and_writes_nothing(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert _files(tmp_path) == []


@pytest.mark.parametrize("command", [
    ["gen", "tuple", "--k", "2"],
    ["factorise", "--d", "1", "--restarts", "1", "--max-iters", "5"],
    ["norms"],
])
def test_unwritable_out_exits_2(tmp_path, command):
    c = str(tmp_path / "c.json")
    fileio.save_matrix(c, np.eye(2))
    inputs = {"factorise": ["--C", c], "norms": ["--A", c]}.get(command[0], [])
    out = str(tmp_path / "missing" / "x.json")
    rc, _, err = run(command + inputs + ["--out", out])
    assert rc == 2 and "cannot write" in err


@pytest.mark.parametrize("command", [
    ["gen", "correlation", "--k", "2", "--out", "x.json"],
    ["factorise", "--C", "c.json", "--d", "1", "--out", "x.json"],
    ["norms", "--A", "c.json"],
])
def test_negative_seed_is_a_usage_error(command):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--seed", "-1"])
    assert exc.value.code == 2


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# outputs never hold NaN or Infinity


BIG = [[1.0, 1e308], [1e308, 1.0]]  # its residuals overflow to inf


def _files(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_factorise_on_an_overflowing_target_exits_5_and_writes_nothing(tmp_path):
    c = str(tmp_path / "big.json")
    fileio.save_matrix(c, np.array(BIG))
    rc, out, err = run(["factorise", "--C", c, "--d", "1", "--restarts", "1",
                        "--max-iters", "5", "--out", str(tmp_path / "rep")])
    assert rc == 5 and "non-finite" in err and out == ""
    assert _files(tmp_path) == ["big.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_correct_on_an_overflowing_target_exits_5_and_writes_nothing(tmp_path):
    c = str(tmp_path / "big.json")
    fileio.save_matrix(c, np.array(BIG))
    phi = str(tmp_path / "phi.json")
    fileio.save_json(phi, fileio.ensemble_to_json(mufact.depolarizing_ensemble(2)))
    rc, out, err = run(["correct", "--C", c, "--phi", phi, "--epsilon", "0.1",
                        "--out", str(tmp_path / "rep")])
    assert rc == 5 and "non-finite" in err and out == ""
    assert _files(tmp_path) == ["big.json", "phi.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extract_on_an_overflowing_target_exits_5_and_writes_nothing(tmp_path):
    c = str(tmp_path / "big.json")
    fileio.save_matrix(c, np.array(BIG))
    phi = str(tmp_path / "phi.json")
    tuples = mufact.random_tuple_ensemble(2, 1, 2, mufact.rng_from_seed(1))
    fileio.save_json(phi, fileio.ensemble_to_json(mufact.mu_ensemble_from_tuples(tuples)))
    rc, out, err = run(["extract", "--ensemble", phi, "--C", c, "--d", "1", "--k", "2",
                        "--out", str(tmp_path / "t.json")])
    assert rc == 5 and "non-finite" in err and out == ""
    assert _files(tmp_path) == ["big.json", "phi.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("out", [False, True])
def test_norms_on_an_overflowing_symbol_exits_5_and_prints_nothing(tmp_path, out):
    a = str(tmp_path / "big.json")
    fileio.save_matrix(a, np.array(BIG))
    report = ["--out", str(tmp_path / "n.json")] if out else []
    rc, printed, err = run(["norms", "--A", a] + report)
    assert rc == 5 and "non-finite" in err and printed == ""
    assert _files(tmp_path) == ["big.json"]


def test_a_lapack_failure_exits_5_and_writes_nothing(tmp_path, monkeypatch):
    a = str(tmp_path / "a.json")
    fileio.save_matrix(a, np.array([[1.0, 0.5], [0.5, -1.0]]))

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    rc, out, err = run(["norms", "--A", a, "--out", str(tmp_path / "r.json")])
    assert rc == 5 and out == "" and "SVD did not converge" in err
    assert _files(tmp_path) == ["a.json"]


def test_verify_correlation_on_a_matrix_whose_norm_squares_overflow_exits_4(tmp_path):
    c = str(tmp_path / "big.json")
    fileio.save_matrix(c, np.array(BIG))
    rc, out, _ = run(["verify", "--what", "correlation", c])
    assert rc == 4 and "FAIL (symbol has eigenvalue -1.000e+308)" in out


def test_biaverage_on_a_choi_matrix_whose_norm_overflows_exits_5(tmp_path):
    # 1e308 times a matrix of trace 0: not PSD, and its Frobenius norm is 4e308
    m = 1e308 * np.array([[1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]])
    choi = str(tmp_path / "choi.json")
    fileio.save_matrix(choi, m)
    rc, out, err = run(["biaverage", "--choi", choi])
    assert rc == 5 and out == "" and "negative eigenvalue" in err


# ---------------------------------------------------------------------------
# mu on empty tuples


def test_mu_on_tuples_with_no_entries_exits_2_and_writes_nothing(tmp_path):
    tuples = _write(tmp_path / "t.json", {"d": 2, "k": 0, "weights": [1.0], "tuples": [[]]})
    assert fileio.load_ensemble(tuples).k == 0  # a valid file
    out = tmp_path / "mu.json"
    rc, _, err = run(["mu", "--tuples", tuples, "--out", str(out)])
    assert rc == 2 and "at least one entry" in err
    assert not out.exists()
