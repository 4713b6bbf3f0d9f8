"""Unit tests for Gram certificates, dilation, correction and the solver."""

import functools
import io
from contextlib import redirect_stderr

import numpy as np
import pytest

from mufact import (
    GramCertificate,
    MixedUnitaryEnsemble,
    MufactError,
    NormTooLarge,
    NotAFactorisation,
    NotBlockDiagonal,
    NotUnitary,
    ShapeMismatch,
    UnitaryTupleEnsemble,
    choi_of,
    correction_pipeline,
    dist_upper_bound,
    gram_matrix,
    halmos_dilate,
    lift_schur,
    membership_solve,
    mu_ensemble_from_tuples,
    random_haar_unitary,
    random_tuple_ensemble,
    rng_from_seed,
    schur_cb_norm,
    to_blocks,
    tuples_from_ensemble,
    verify_certificate,
)
from mufact import fileio
from mufact.cli import main
from mufact.channels import UNITARY_TOL
from mufact.linalg import random_haar_unitaries, unitarity_defects


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_of_phases():
    g = gram_matrix(np.array([[[1.0]], [[1.0j]]]))
    assert np.allclose(g, [[1.0, 1.0j], [-1.0j, 1.0]], atol=1e-15)


def test_gram_of_shift_powers_is_identity():
    s = np.roll(np.eye(3), 1, axis=0)
    tup = np.stack([np.linalg.matrix_power(s, n).astype(complex) for n in range(3)])
    assert np.allclose(gram_matrix(tup), np.eye(3), atol=1e-14)


def test_gram_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        gram_matrix(np.zeros((2, 2)))


D0_BUILDERS = {
    "ensemble": lambda: UnitaryTupleEnsemble([0.5, 0.5], np.zeros((2, 3, 0, 0))),
    "gram_matrix": lambda: gram_matrix(np.zeros((2, 0, 0))),
}


@pytest.mark.parametrize("entry", sorted(D0_BUILDERS))
def test_a_stack_of_0x0_entries_is_rejected(entry):
    # every Gram entry of such a stack is 0/0
    with pytest.raises(ShapeMismatch, match=r"with d >= 1, got \((2, 3|2), 0, 0\)$"):
        D0_BUILDERS[entry]()


def test_ensemble_gram_average_and_check():
    ens = random_tuple_ensemble(3, 2, 4, rng_from_seed(31))
    manual = sum(
        w * gram_matrix(ens.tuples[m]) for m, w in enumerate(ens.weights)
    )
    assert np.allclose(ens.gram_average(), manual, atol=1e-14)
    with pytest.raises(MufactError):
        UnitaryTupleEnsemble(ens.weights * 0.9, ens.tuples).check()


def test_tuple_ensemble_check_rejects_nan_entries():
    ens = random_tuple_ensemble(2, 2, 2, rng_from_seed(36))
    tuples = ens.tuples.copy()
    tuples[1, 0] = np.nan
    with pytest.raises(NotUnitary, match="tuple 1 entry 0"):
        UnitaryTupleEnsemble(ens.weights, tuples).check()
    with pytest.raises(NotUnitary, match="tuple 0 entry 0"):
        UnitaryTupleEnsemble(ens.weights, np.full_like(tuples, np.nan)).check()


# ---------------------------------------------------------------------------
# certificates


def test_certificate_build_and_verify():
    ens = random_tuple_ensemble(3, 1, 2, rng_from_seed(32))
    cert = GramCertificate.build(ens, ens.gram_average())
    assert cert.residual_fro <= 1e-14
    assert cert.residual_max <= 1e-14
    verify_certificate(cert)


@pytest.mark.parametrize(
    "field, message",
    [("residual_fro", "stored residuals"), ("achieved", "stored Gram average off by")],
    ids=["residual_fro", "achieved"],
)
def test_certificate_detects_tampering(field, message):
    ens = random_tuple_ensemble(3, 1, 2, rng_from_seed(33))
    cert = GramCertificate.build(ens, ens.gram_average())
    if field == "achieved":
        cert.achieved[0, 1] += 1e-9
    else:
        cert.residual_fro += 1e-6
    with pytest.raises(MufactError, match=message):
        verify_certificate(cert)


@pytest.mark.parametrize("field", ["residual_fro", "residual_max"])
def test_certificate_check_fails_on_a_nan_residual(field):
    ens = random_tuple_ensemble(3, 1, 2, rng_from_seed(34))
    cert = GramCertificate.build(ens, ens.gram_average())
    setattr(cert, field, float("nan"))
    with pytest.raises(MufactError, match="stored residuals"):
        verify_certificate(cert)


# ---------------------------------------------------------------------------
# the two exact directions


def test_mu_ensemble_realises_lifted_schur():
    ens = random_tuple_ensemble(2, 2, 2, rng_from_seed(34))
    c = ens.gram_average()
    mu = mu_ensemble_from_tuples(ens)
    assert mu.size == ens.size * ens.d ** 4
    # every member is block diagonal on the k x k grid
    for u in mu.unitaries:
        blocks = to_blocks(u, 2, 2).copy()  # to_blocks is a view
        blocks[range(2), range(2)] = 0.0  # keep only off-diagonal blocks
        assert np.abs(blocks).max() == 0.0
    # action agrees with the lifted Schur multiplier on a random input
    rng = rng_from_seed(35)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.abs(mu.apply(x) - lift_schur(c, 2, x)).max() <= 1e-12


def test_mu_of_empty_tuples_has_an_empty_member_per_weyl_pair():
    mu = mu_ensemble_from_tuples(UnitaryTupleEnsemble([1.0], np.zeros((1, 0, 2, 2))))
    assert mu.unitaries.shape == (16, 0, 0)
    assert np.array_equal(mu.weights, np.full(16, 1.0 / 16))


def test_extract_round_trip():
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(36))
    c = ens.gram_average()
    mu = mu_ensemble_from_tuples(ens)
    rec = tuples_from_ensemble(mu, c, 2, 3)
    assert np.abs(rec.gram_average() - c).max() <= 1e-12


def test_extract_rejects_wrong_target():
    ens = random_tuple_ensemble(2, 2, 2, rng_from_seed(37))
    c = ens.gram_average().copy()
    mu = mu_ensemble_from_tuples(ens)
    c[0, 1] += 0.05
    c[1, 0] += 0.05
    with pytest.raises(NotAFactorisation):
        tuples_from_ensemble(mu, c, 2, 2)


def test_extract_rejects_non_block_diagonal_member():
    # a full unitary hiding behind a tiny weight has O(1) off-diagonal
    # blocks, which the block check rejects before the action is checked
    ens = random_tuple_ensemble(2, 2, 2, rng_from_seed(38))
    c = ens.gram_average()
    mu = mu_ensemble_from_tuples(ens)
    eps = 1e-5
    rogue = random_haar_unitary(4, rng_from_seed(39))
    spiked = MixedUnitaryEnsemble(
        np.concatenate([mu.weights * (1.0 - eps), [eps]]),
        np.concatenate([mu.unitaries, rogue[None]]),
    )
    with pytest.raises(NotBlockDiagonal):
        tuples_from_ensemble(spiked, c, 2, 2, tol=1e-3)


def test_extract_rejects_unitary_blocks_without_the_weyl_sandwich():
    # members (+)_i U_i* of weight p_m: block diagonal with unitary blocks
    # whose normalised traces average to c, yet block (i, j) is sent to
    # sum_m p_m U_i* X U_j, not c_ij tr_d(X) I_d
    ens = random_tuple_ensemble(3, 2, 3, rng_from_seed(47))
    members = np.zeros((ens.size, 6, 6), dtype=complex)
    to_blocks(members, 2, 3)[:, range(3), range(3)] = np.conj(ens.tuples.swapaxes(-1, -2))
    bare = MixedUnitaryEnsemble(ens.weights, members)
    with pytest.raises(NotAFactorisation):
        tuples_from_ensemble(bare, ens.gram_average(), 2, 3)


def test_extract_holds_blocks_to_a_tol_below_the_member_check():
    # members pass ensemble.check at UNITARY_TOL first; a tol below it then
    # governs the unitarity of the diagonal blocks
    rng = rng_from_seed(48)
    v = random_haar_unitaries((2,), 2, rng)
    member = np.zeros((4, 4), dtype=complex)
    member[:2, :2] = (1.0 + 1e-11) * v[0]
    member[2:, 2:] = v[1]
    assert 2e-11 < unitarity_defects(member) < UNITARY_TOL
    ens = MixedUnitaryEnsemble([1.0], member[None])
    c = gram_matrix(np.conj(v.swapaxes(-1, -2)))
    with pytest.raises(NotUnitary, match=r"^diagonal block \(0, 0\) is not unitary$"):
        tuples_from_ensemble(ens, c, 2, 2, tol=1e-12)


def _full_choi_deviations(ensemble, c, d, k):
    """Reference for extract's checks, with the action compared on the full
    (dk)^2 matrix-unit basis: the action, off-diagonal block and diagonal
    block unitarity deviations, and the tuples read off the blocks."""
    ensemble.check()
    got = choi_of(ensemble).matrix
    want = choi_of(lambda x: lift_schur(c, d, x), d * k).matrix
    blocks = to_blocks(ensemble.unitaries, d, k)
    off = blocks.copy()
    off[:, range(k), range(k)] = 0.0
    diag = blocks[:, range(k), range(k)]
    deviations = (
        np.abs(got - want).max(),
        np.abs(off).max(initial=0.0),
        unitarity_defects(diag).max(initial=0.0),
    )
    return deviations, np.conj(diag.transpose(0, 1, 3, 2))


def test_extract_accepts_what_the_full_choi_check_accepts():
    outcomes = set()
    for s in range(50):  # the instances of acceptance criterion 3
        rng = rng_from_seed(200 + s)
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        ens = random_tuple_ensemble(k, d, int(rng.integers(1, 4)), rng)
        c = ens.gram_average()
        mu = mu_ensemble_from_tuples(ens)
        c_off = c.copy()
        c_off[0, 1] += 1e-6
        c_off[1, 0] += 1e-6
        scaled = mu.unitaries.copy()
        scaled[0, :d, :d] *= 1.0 + 1e-6
        rogue = random_haar_unitary(d * k, rng_from_seed(300 + s))
        variants = [
            (mu, c),
            (mu, c_off),
            (MixedUnitaryEnsemble(mu.weights, scaled), c),
            (MixedUnitaryEnsemble(
                np.append(mu.weights * (1.0 - 1e-6), 1e-6),
                np.concatenate([mu.unitaries, rogue[None]]),
            ), c),
        ]
        for phi, target in variants:
            try:
                deviations, ref = _full_choi_deviations(phi, target, d, k)
            except NotUnitary:
                deviations, ref = (np.inf,), None
            for tol in (1e-9, 1e-5):
                accepted = max(deviations) <= tol
                outcomes.add(accepted)
                if accepted:
                    rec = tuples_from_ensemble(phi, target, d, k, tol=tol)
                    assert np.array_equal(rec.tuples, ref)
                    assert np.array_equal(rec.weights, phi.weights)
                else:
                    with pytest.raises((NotAFactorisation, NotBlockDiagonal, NotUnitary)):
                        tuples_from_ensemble(phi, target, d, k, tol=tol)
    assert outcomes == {True, False}


def test_extract_round_trips_the_ensemble_of_empty_tuples():
    ens = UnitaryTupleEnsemble([1.0], np.zeros((1, 0, 2, 2)))
    rec = tuples_from_ensemble(mu_ensemble_from_tuples(ens), np.zeros((0, 0)), 2, 0)
    assert rec.tuples.shape == (16, 0, 2, 2)
    assert np.array_equal(rec.weights, np.full(16, 1.0 / 16))
    assert rec.check().gram_average().shape == (0, 0)


# ---------------------------------------------------------------------------
# Halmos dilation


def test_dilation_frozen_scalar():
    w = halmos_dilate(np.array([[0.5]]))
    b = np.sqrt(0.75)
    assert np.allclose(w, [[0.5, b], [-b, 0.5]], atol=1e-12)


def test_dilation_of_random_contraction():
    rng = rng_from_seed(40)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    x = 0.8 * z / np.linalg.norm(z, 2)
    w = halmos_dilate(x)
    assert np.linalg.norm(w.conj().T @ w - np.eye(10)) <= 1e-10
    assert np.abs(w[:5, :5] - x).max() == 0.0
    assert np.abs(w[5:, 5:] - x).max() == 0.0


def test_dilation_rescales_marginal_norms_and_rejects_large_ones():
    w = halmos_dilate(np.array([[1.0 + 5e-10]]))
    assert abs(w[0, 0] - 1.0) <= 2e-9
    assert np.linalg.norm(w.conj().T @ w - np.eye(2)) <= 1e-9
    with pytest.raises(NormTooLarge):
        halmos_dilate(np.array([[1.5]]))


def test_stacked_dilation_equals_dilating_each_block_alone():
    rng = rng_from_seed(47)
    z = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    x = z / np.linalg.norm(z, 2, axis=(-2, -1))[..., None, None]
    x[0, 1] *= 0.5
    x[1, 2] *= 1.0 + 5e-10  # rescaled, like the 2-d case above
    w = halmos_dilate(x)
    assert w.shape == (3, 4, 4, 4)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(w[idx], halmos_dilate(x[idx]))


def test_dilation_reads_the_norm_off_its_one_svd(monkeypatch):
    # the rescaled block's singular values are divided by its norm, not recomputed
    x = np.stack([np.diag([1.0 + 5e-10, 0.5]), np.diag([0.3, 0.2])]).astype(complex)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    w = halmos_dilate(x)
    assert calls == [True]
    assert np.array_equal(w[0, :2, :2], x[0] / (1.0 + 5e-10))
    assert unitarity_defects(w).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dilation_rejects_a_non_finite_input(bad):
    # a NaN once reached the SVD and raised numpy's LinAlgError
    x = np.zeros((2, 2, 2), dtype=complex)
    x[1, 0, 1] = bad
    with pytest.raises(MufactError, match="^dilation input has an entry that is not finite$"):
        halmos_dilate(x)


def test_stacked_dilation_names_the_first_block_above_norm_one():
    x = np.zeros((2, 3, 2, 2), dtype=complex)
    x[1, 0] = np.diag([1.5, 0.0])
    x[1, 2] = np.diag([2.0, 0.0])
    with pytest.raises(NormTooLarge, match=r"block \(1, 0\) operator norm 1\.5 "):
        halmos_dilate(x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
@pytest.mark.parametrize("stage", ["extract", "correct"])
def test_extraction_and_correction_reject_a_non_finite_target(stage, bad):
    # a NaN target once reached the action test and raised NotAFactorisation
    ens = random_tuple_ensemble(2, 2, 2, rng_from_seed(37))
    c = ens.gram_average().copy()
    c[0, 1] = bad
    mu = mu_ensemble_from_tuples(ens)
    with pytest.raises(MufactError, match="non-finite|not finite") as err:
        if stage == "extract":
            tuples_from_ensemble(mu, c, 2, 2)
        else:
            correction_pipeline(c, mu, 0.1, 2)
    assert type(err.value) is MufactError


# ---------------------------------------------------------------------------
# correction pipeline


def test_correction_exact_input_is_a_fixed_point():
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(41))
    c = ens.gram_average()
    phi = mu_ensemble_from_tuples(ens)
    rep = correction_pipeline(c, phi, 0.05, 2)
    assert rep.max_abs_delta <= 1e-9
    assert rep.bound_ok
    assert np.abs(rep.c_tilde - c).max() <= 1e-9
    assert rep.certificate.ensemble.d == 4
    verify_certificate(rep.certificate)


def test_correction_convex_perturbation_obeys_bound():
    rng = rng_from_seed(42)
    t = 0.05
    e0 = random_tuple_ensemble(3, 2, 2, rng)
    e1 = random_tuple_ensemble(3, 2, 2, rng)
    c = (1.0 - t) * e0.gram_average() + t * e1.gram_average()
    rep = correction_pipeline(c, mu_ensemble_from_tuples(e0), 2.0 * t, 2)
    assert rep.max_abs_delta < 4.0 * t
    assert rep.bound_ok
    verify_certificate(rep.certificate)


def _unpooled_gram_average(phi, d, k):
    """Gram average of every member's dilated blocks, as correct wrote it before pooling."""
    diag = to_blocks(phi.unitaries, d, k)[:, range(k), range(k)]
    dil = np.conj(np.swapaxes(halmos_dilate(diag), -1, -2))
    return UnitaryTupleEnsemble(phi.weights, dil).gram_average()


def test_correction_pools_the_weyl_copies_of_each_tuple():
    rng = rng_from_seed(44)
    e0 = random_tuple_ensemble(4, 3, 3, rng)
    e1 = random_tuple_ensemble(4, 3, 3, rng)
    c = 0.95 * e0.gram_average() + 0.05 * e1.gram_average()
    phi = mu_ensemble_from_tuples(e0)
    assert phi.size == 243
    rep = correction_pipeline(c, phi, 0.1, 3)
    pooled = rep.certificate.ensemble
    assert pooled.size == 3 and pooled.d == 6
    assert abs(pooled.weights.sum() - 1.0) <= 1e-12
    assert np.allclose(pooled.weights, np.sort(e0.weights)[::-1], rtol=0.0, atol=1e-12)
    assert np.abs(rep.certificate.achieved - _unpooled_gram_average(phi, 3, 4)).max() <= 1e-12
    assert rep.max_abs_delta == rep.certificate.residual_max
    verify_certificate(rep.certificate, tol=1e-10)


def test_correction_keeps_every_member_whose_gram_is_distinct():
    ens = random_tuple_ensemble(3, 2, 5, rng_from_seed(45))
    k, d = ens.k, ens.d
    # members block-diagonal in the adjoint entries, without the Weyl sandwich
    members = np.zeros((ens.size, d * k, d * k), dtype=complex)
    to_blocks(members, d, k)[:, range(k), range(k)] = np.conj(ens.tuples.swapaxes(-1, -2))
    phi = MixedUnitaryEnsemble(ens.weights, members)
    rep = correction_pipeline(np.eye(k), phi, 1.0, d)
    order = np.argsort(ens.weights)[::-1]
    assert np.array_equal(rep.certificate.ensemble.weights, ens.weights[order])
    assert np.abs(rep.certificate.achieved - _unpooled_gram_average(phi, d, k)).max() <= 1e-12
    verify_certificate(rep.certificate, tol=1e-10)


def test_a_biaverage_that_disagrees_with_the_block_grams_is_an_error(monkeypatch, tmp_path):
    import mufact.factorise as factorise

    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(46))
    c, phi = ens.gram_average(), mu_ensemble_from_tuples(ens)
    biaverage = factorise.d_biaverage

    def shifted(t):  # one entry off by 1e-8, above BIAVERAGE_CROSSCHECK_TOL
        b = biaverage(t)
        b[0, 1] += 1e-8
        return b

    monkeypatch.setattr(factorise, "d_biaverage", shifted)
    message = "compressed-map biaverage disagrees with block Grams"
    with pytest.raises(MufactError, match=message):
        correction_pipeline(c, phi, 0.1, 2)
    c_path, phi_path = str(tmp_path / "C.json"), str(tmp_path / "phi.json")
    fileio.save_matrix(c_path, c)
    fileio.save_json(phi_path, fileio.ensemble_to_json(phi))
    err = io.StringIO()
    with redirect_stderr(err):
        rc = main(["correct", "--C", c_path, "--phi", phi_path, "--epsilon", "0.1",
                   "--out", str(tmp_path / "rep.json")])
    assert rc == 5
    assert err.getvalue() == f"numeric domain error: {message}\n"  # one line, no traceback


def _merge_atoms_reference(p, atoms, grams, thresh):
    """The atom-by-atom merge loop that the cluster loop replaced."""
    from mufact.linalg import frob

    order = np.argsort(p)[::-1]
    rep_idx: list[int] = []
    weights: list[float] = []
    for m in order:
        if p[m] <= 0.0:
            continue
        for r, ridx in enumerate(rep_idx):
            if frob(grams[m] - grams[ridx]) <= thresh:
                weights[r] += p[m]
                break
        else:
            rep_idx.append(m)
            weights.append(p[m])
    return np.array(weights), atoms[rep_idx].copy()


def _merge_cases():
    """Solver-shaped (p, atoms, grams) triples whose Grams straddle 0.2 and 0.5."""
    from mufact.factorise import _grams

    rng = rng_from_seed(46)
    for n in range(60):
        m_cnt, k, d = 1 + n % 11, 2 + n % 3, 1 + n % 2
        atoms = random_haar_unitaries((m_cnt, k), d, rng)
        grams = _grams(atoms)
        # pull atoms towards a few centres so that clusters form
        centres = grams[rng.integers(0, m_cnt, size=m_cnt)]
        grams = centres + rng.uniform(0.0, 0.3) * (grams - centres)
        p = rng.dirichlet(np.ones(m_cnt))
        if n % 3 == 0:
            p[rng.random(m_cnt) < 0.3] = 0.0
        if n % 4 == 0 and m_cnt > 2:  # exact duplicates and weight ties
            grams[1] = grams[0]
            p[2] = p[1]
        yield p, atoms, grams


@pytest.mark.parametrize("thresh", [0.0, 0.2, 0.5])
def test_merge_atoms_matches_the_atom_loop_bit_for_bit(thresh):
    from mufact.factorise import _merge_atoms

    sizes = set()
    for p, atoms, grams in _merge_cases():
        w, reps = _merge_atoms(p, atoms, grams, thresh)
        w_ref, reps_ref = _merge_atoms_reference(p, atoms, grams, thresh)
        assert w.dtype == w_ref.dtype and w.tobytes() == w_ref.tobytes()
        assert reps.shape == reps_ref.shape and reps.tobytes() == reps_ref.tobytes()
        sizes.add((int((p > 0.0).sum()), len(w)))
    if thresh > 0.0:  # some cases really merged
        assert any(live > kept for live, kept in sizes)


def test_merge_atoms_on_edge_cases_matches_the_atom_loop():
    from mufact.factorise import _merge_atoms

    rng = rng_from_seed(47)
    atoms = random_haar_unitaries((6, 3), 2, rng)
    grams = np.stack([gram_matrix(a) for a in atoms])
    grams[3] = grams[1]  # exact duplicate
    cases = [
        (np.array([1.0]), atoms[:1], grams[:1]),  # M = 1
        (np.full(6, 1.0 / 6.0), atoms, grams),  # every weight tied
        (np.array([0.5, 0.0, 0.25, 0.25, 0.0, 0.0]), atoms, grams),  # zero weights
        (np.zeros(6), atoms, grams),  # nothing left
        (np.array([0.1, 0.3, 0.1, 0.3, 0.1, 0.1]), atoms, grams),  # ties and a duplicate
        # one cluster of 40, where a pairwise sum would round differently
        (rng.dirichlet(np.ones(40)), random_haar_unitaries((40, 3), 2, rng),
         grams[0] + 1e-3 * rng.standard_normal((40, 3, 3))),
    ]
    for p, a, g in cases:
        for thresh in (0.0, 0.2, 0.5, 1.0):
            w, reps = _merge_atoms(p, a, g, thresh)
            w_ref, reps_ref = _merge_atoms_reference(p, a, g, thresh)
            assert w.tobytes() == w_ref.tobytes()
            assert reps.shape == reps_ref.shape and reps.tobytes() == reps_ref.tobytes()
    w, reps = _merge_atoms(cases[2][0], atoms, grams, 0.0)
    assert len(w) == 3 and (w > 0.0).all()  # the zero-weight atoms are dropped
    w, reps = _merge_atoms(cases[4][0], atoms, grams, 0.0)
    assert len(w) == 5 and w[0] == 0.3 + 0.3  # the duplicate pools onto its twin
    assert np.array_equal(reps[0], atoms[np.argsort(cases[4][0])[::-1][0]])


# ---------------------------------------------------------------------------
# membership search


def test_membership_recovers_planted_target():
    planted = random_tuple_ensemble(3, 1, 2, rng_from_seed(43)).gram_average()
    cert = membership_solve(planted, 1, restarts=6, max_iters=200, tol=1e-8, seed=0)
    assert cert.residual_fro <= 1e-6
    assert cert.ensemble.size <= 10  # default atom budget k^2 + 1, pruned
    verify_certificate(cert)


def test_membership_with_no_iterations_returns_the_seeded_start():
    target = random_tuple_ensemble(3, 2, 2, rng_from_seed(45)).gram_average()
    cert = membership_solve(target, 2, atoms=4, restarts=1, max_iters=0, seed=6)
    assert np.array_equal(cert.ensemble.weights, np.full(4, 0.25))
    start = random_haar_unitaries((4, 3), 2, rng_from_seed(6, (0,)))
    assert np.array_equal(cert.ensemble.tuples, start)
    verify_certificate(cert)


def test_membership_is_deterministic():
    planted = random_tuple_ensemble(3, 1, 2, rng_from_seed(44)).gram_average()
    a = membership_solve(planted, 1, restarts=3, max_iters=80, tol=1e-8, seed=5)
    b = membership_solve(planted, 1, restarts=3, max_iters=80, tol=1e-8, seed=5)
    assert np.array_equal(a.ensemble.weights, b.ensemble.weights)
    assert np.array_equal(a.ensemble.tuples, b.ensemble.tuples)


@pytest.mark.parametrize(
    "target, atoms, hit",
    [
        # restart 0 misses and restart 1 reaches tol
        (random_tuple_ensemble(4, 1, 3, rng_from_seed(77)).gram_average(), 5, 1),
        # no restart can reach the 2x2 identity with one atom at d = 1
        (np.eye(2), 1, None),
    ],
    ids=["hit-at-restart-1", "no-hit"],
)
def test_membership_applies_the_selection_rule_to_independent_restarts(target, atoms, hit):
    from mufact.factorise import _solve_single

    restarts, iters, tol, seed = 4, 40, 1e-8, 2
    runs = [
        _solve_single(target, 1, atoms, iters, tol, rng_from_seed(seed, (r,)))
        for r in range(restarts)
    ]
    hits = [r for r, run in enumerate(runs) if run[0] <= tol * tol]
    assert (hits[0] if hits else None) == hit
    best = hits[0] if hits else min(range(restarts), key=lambda r: (runs[r][0], r))
    _, p, us = runs[best]
    cert = membership_solve(target, 1, atoms=atoms, restarts=restarts,
                            max_iters=iters, tol=tol, seed=seed)
    assert np.array_equal(cert.ensemble.weights, p[p > 0.0])
    assert np.array_equal(cert.ensemble.tuples, us[p > 0.0])


def test_every_iteration_of_a_restart_ends_with_one_escape_polish(monkeypatch):
    import mufact.factorise as fz

    calls = {"weight": 0, "polish": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fz, "_weight_update", counted("weight", fz._weight_update))
    monkeypatch.setattr(fz, "_gn_polish", counted("polish", fz._gn_polish))
    target = random_tuple_ensemble(4, 1, 3, rng_from_seed(1)).gram_average()
    tol = 1e-12
    f, _, _ = fz._solve_single(target, 1, 5, 40, tol, rng_from_seed(0, (0,)))
    assert f > tol * tol  # no hit, so the last iteration escaped too
    assert calls["weight"] >= 3  # one weight step per iteration
    assert calls["polish"] == calls["weight"]


def test_solver_moves_never_increase_the_misfit():
    from mufact.factorise import _atom_sweep, _gn_polish, _weight_update

    rng = rng_from_seed(60)
    k, d, m_cnt = 3, 2, 4
    target = random_tuple_ensemble(k, d, 2, rng).gram_average()
    atoms = np.stack(
        [[random_haar_unitary(d, rng) for _ in range(k)] for _ in range(m_cnt)]
    )
    p = np.full(m_cnt, 1.0 / m_cnt)
    grams = np.einsum("miab,mjab->mij", np.conj(atoms), atoms) / d

    def misfit(q, g):
        r = np.einsum("m,mij->ij", q, g) - target
        return float(np.vdot(r, r).real)

    f0 = misfit(p, grams)
    p, _ = _weight_update(p, grams, target)
    f1 = misfit(p, grams)
    assert f1 <= f0 + 1e-12
    resid = np.einsum("m,mij->ij", p, grams) - target
    atoms, grams, resid = _atom_sweep(p, atoms, grams, resid)
    f2 = misfit(p, grams)
    assert f2 <= f1 + 1e-12
    f3, _, _ = _gn_polish(p, atoms, target, d, 1e-10)
    assert f3 <= f2 + 1e-12


def _polish_capped(iters, *args):
    """`_gn_polish(*args)` with its iteration cap `_GN_ITERS` set to iters."""
    import mufact.factorise as fz

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fz, "_GN_ITERS", iters)
        return fz._gn_polish(*args)


def _pair_products_per_atom(atom):
    """U_j U_i* for every ordered pair of entries of one (k, d, d) atom, as
    rows (i, j) of a (k k, d^2) array, the layout of `_pair_products`."""
    k, d = atom.shape[0], atom.shape[1]
    flat = atom.reshape(k * d, d)
    uu = (flat @ np.conj(flat.T)).reshape(k, d, k, d)
    return uu.transpose(2, 0, 1, 3).reshape(-1, d * d)


def _hessian_blocks_per_atom(p, atoms, resid, jac, rvec, d):
    """`_hessian_blocks`, built one atom at a time: block m holds atom m's
    weight shift and its rotations (i, x) of S = sum_a r_a grad^2 r_a."""
    from mufact.factorise import _basis_pairs, _grams

    m_cnt, k = atoms.shape[0], atoms.shape[1]
    nb = d * d
    side = 1 + k * nb
    rc = np.conj(resid)
    rc[range(k), range(k)] = 0.0
    grad = jac[:, m_cnt:].T @ rvec
    grams = _grams(atoms)
    out = np.zeros((m_cnt, side, side))
    for m in range(m_cnt):
        pairs = grams[m].reshape(-1, 1) if d == 1 else _pair_products_per_atom(atoms[m])
        kk = (pairs.reshape(k, k, nb) * rc[:, :, None]).reshape(-1, nb)
        rot = (kk.view(float) @ _basis_pairs(d)).reshape(k, k, nb, nb)
        for i in range(k):
            within = rot[i].sum(axis=0)
            rot[i, i] = -0.5 * (within + within.T)
        out[m, 1:, 1:] = (rot.transpose(0, 2, 1, 3) * (p[m] / d)).reshape(k * nb, k * nb)
        if p[m] > 0.0:
            out[m, 0, 1:] = out[m, 1:, 0] = grad[m * k * nb:(m + 1) * k * nb] / p[m]
    return out


def _newton_step_per_atom(jac, rvec, hess, lam):
    """The step on J^T J + S at lam, as `_newton_step` takes it, with each
    atom's block solved on its own."""
    m_cnt, side, rows = hess.shape[0], hess.shape[1], len(rvec)
    cnt = rows + 1
    vcols = np.zeros((m_cnt, side, cnt))
    for m in range(m_cnt):
        vcols[m, 0, :rows] = jac[:, m]
        vcols[m, 0, rows] = jac[:, m].any()
        lo = m_cnt + m * (side - 1)
        vcols[m, 1:, :rows] = jac[:, lo:lo + side - 1].T
    flat = vcols.reshape(-1, cnt)
    cmat = np.eye(cnt)
    cmat[:rows, rows] = cmat[rows, :rows] = -rvec
    cmat[rows, rows] = 0.0
    x = np.stack([np.linalg.solve(hess[m] + lam * np.eye(side), vcols[m]) for m in range(m_cnt)])
    x = x.reshape(-1, cnt)
    w = np.linalg.solve(np.eye(cnt) + (cmat @ flat.T) @ x, np.append(-rvec, 0.0))
    s = (x @ w).reshape(m_cnt, side)
    return np.concatenate([s[:, 0], s[:, 1:].ravel()])


def _gn_polish_per_entry(p, atoms, target, d, tol, iters=60, solve="lu", second_order=True):
    """Reference polish, one (atom, tuple entry) pair at a time.

    solve="lu" takes each damped Gauss-Newton step s = -J^T (J J^T + lam
    I)^-1 r from one `np.linalg.solve` per damping try, as `_gn_polish`
    does; solve="eigh" from one eigendecomposition of the row Gram J J^T
    per iteration, the step the solve replaced; solve="svd" from one thin
    SVD of the Jacobian, s = -V diag(S / (S^2 + lam)) U^T r; solve="lstsq"
    re-solves the stacked system [J; sqrt(lam) I] for every damping try.
    Each iteration first takes the Gauss-Newton step at the current lam;
    every zero weight whose component of it is <= 0 loses its column, and
    the step is formed again from the reduced Jacobian. The polish ends
    once an accepted step lowers the misfit by at most sqrt(eps) of it, or
    when no damping try lowers it.

    With second_order, the iterations after the first may step on
    J^T J + S instead, chosen from the last accepted step as
    `_prefers_newton` chooses; S is built and its blocks solved one atom at
    a time. Without it, every iteration is Gauss-Newton.
    """
    from mufact.factorise import _grams, _hermitian_basis

    m_cnt, k = atoms.shape[0], atoms.shape[1]
    nb = d * d
    basis = _hermitian_basis(d)
    cols_x = basis.transpose(2, 1, 0).reshape(d * d, nb)
    pairs = k * (k - 1) // 2
    iu, ju = np.triu_indices(k, 1)
    p, atoms = p.copy(), atoms.copy()
    grams = _grams(atoms)
    achieved = np.einsum("m,mij->ij", p, grams)
    resid = achieved - target
    f = float(np.vdot(resid, resid).real)
    lam = 1e-4
    newton, last = False, None
    for _ in range(iters):
        if f <= 0.01 * tol * tol:
            break
        if last is not None:
            newton = _prefers_newton_reference(*last, d)
        rvec = np.concatenate([resid[iu, ju].real, resid[iu, ju].imag])
        cols = np.zeros((pairs, m_cnt * (1 + k * nb)), dtype=complex)
        for m in range(m_cnt):
            cols[:, m] = (grams[m] - achieved)[iu, ju]
            if p[m] <= 0.0:
                continue
            if d == 1:
                tr = grams[m][:, None, :]
            else:
                prod = _pair_products_per_atom(atoms[m]) @ cols_x
                tr = prod.reshape(k, k, nb).transpose(0, 2, 1)
            dg = -1j * p[m] * tr / d
            for i in range(k):
                block = np.zeros((pairs, nb), dtype=complex)
                lo, hi = iu == i, ju == i
                block[lo, :] = dg[i, :, ju[lo]]
                block[hi, :] = np.conj(dg[i, :, iu[hi]])
                col = m_cnt + (m * k + i) * nb
                cols[:, col:col + nb] = block
        # views of one [J | r] array, as `_gn_system` returns them: BLAS rounds
        # J^T r differently for a strided r than for a contiguous one
        jr = np.concatenate([np.concatenate([cols.real, cols.imag]), rvec[:, None]], axis=1)
        jac, rvec = jr[:, :-1], jr[:, -1]

        def factor(jac):
            """The damped Gauss-Newton step as a function of lam."""
            if solve == "lu":
                gram, eye, neg_jt = jac @ jac.T, np.eye(len(rvec)), -jac.T
                return lambda lam: neg_jt @ np.linalg.solve(gram + lam * eye, rvec)
            if solve == "eigh":
                gvals, gvecs = np.linalg.eigh(jac @ jac.T)
                gvals = np.maximum(gvals, 0.0)
                ur = gvecs.T @ rvec
                return lambda lam: -jac.T @ (gvecs @ (ur / (gvals + lam)))
            if solve == "svd":
                u, sv, vt = np.linalg.svd(jac, full_matrices=False)
                ur = u.T @ rvec
                return lambda lam: -vt.T @ (sv / (sv * sv + lam) * ur)

            def lstsq(lam):
                lhs = np.concatenate([jac, np.sqrt(lam) * np.eye(jac.shape[1])])
                rhs = np.concatenate([-rvec, np.zeros(jac.shape[1])])
                return np.linalg.lstsq(lhs, rhs, rcond=None)[0]

            return lstsq

        # hold each zero weight whose Gauss-Newton step at lam points outward at 0
        step_at = factor(jac)
        pin = (p <= 0.0) & (step_at(lam)[:m_cnt] <= 0.0)
        if pin.any():
            jac[:, np.flatnonzero(pin)] = 0.0
            step_at = factor(jac)
        hess = None
        if newton:
            hess = _hessian_blocks_per_atom(p, atoms, resid, jac, rvec, d)
            step_at = functools.partial(_newton_step_per_atom, jac, rvec, hess)
        accepted = False
        f_in = f
        for _ in range(8):
            step = step_at(lam)
            q = np.clip(p + step[:m_cnt], 0.0, None)
            s = q.sum()
            if s > 0.0:
                taken = np.concatenate([q - p, step[m_cnt:]])
                q = q / s
                new_atoms = atoms.copy()
                th = step[m_cnt:].reshape(m_cnt, k, nb)
                for m in range(m_cnt):
                    if p[m] <= 0.0:
                        continue
                    for i in range(k):
                        h = np.tensordot(th[m, i].real, basis, axes=(0, 0))
                        if d == 1:
                            new_atoms[m, i] = np.exp(1j * h[0, 0].real) * atoms[m, i]
                        else:
                            vals, vecs = np.linalg.eigh(h)
                            rot = (vecs * np.exp(1j * vals)) @ np.conj(vecs).T
                            new_atoms[m, i] = rot @ atoms[m, i]
                new_grams = _grams(new_atoms)
                new_ach = np.einsum("m,mij->ij", q, new_grams)
                new_resid = new_ach - target
                new_f = float(np.vdot(new_resid, new_resid).real)
                if new_f < f:
                    if second_order:
                        last = (p, atoms, resid, jac, rvec, hess, taken, 0.5 * (f - new_f))
                    p, atoms, grams = q, new_atoms, new_grams
                    achieved, resid, f = new_ach, new_resid, new_f
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
            lam *= 10.0
        if not accepted or f_in - f <= np.sqrt(np.finfo(float).eps) * f_in:
            break
    return f, p, atoms


def _prefers_newton_reference(p, atoms, resid, jac, rvec, hess, taken, drop, d):
    """The model test of `_prefers_newton`, with S built one atom at a time."""
    m_cnt = len(p)
    js = jac @ taken
    r_js, quad = rvec @ js, js @ js
    miss = drop + 2.0 * r_js + quad
    from_gn = hess is None
    if from_gn:
        if not abs(miss) > quad:
            return False
        hess = _hessian_blocks_per_atom(p, atoms, resid, jac, rvec, d)
    sb = np.concatenate([taken[:m_cnt, None], taken[m_cnt:].reshape(m_cnt, -1)], axis=1)
    curv = np.vdot(sb, hess @ sb[..., None]) - 2.0 * taken[:m_cnt].sum() * r_js
    if from_gn and not abs(curv) > quad:
        return False
    return abs(miss + curv) < abs(miss)


def _large_residual_case(d, live):
    """The extreme target of `_extreme_target`, outside every d's set, and
    four Haar atoms at equal weights, or with atom 1 at weight 0."""
    rng = rng_from_seed(200 + 10 * d)
    target = _extreme_target(rng)
    atoms = random_haar_unitaries((4, 4), d, rng)
    p = np.full(4, 0.25) if live else np.array([0.4, 0.0, 0.35, 0.25])
    return target, atoms, p


def _polish_case(d, live=False):
    """A k = 3 target and four atoms, with atom 1 at weight 0 unless live."""
    from mufact.factorise import _grams

    rng = rng_from_seed(70 + d)
    k, m_cnt = 3, 4
    target = random_tuple_ensemble(k, d, 2, rng).gram_average()
    atoms = random_haar_unitaries((m_cnt, k), d, rng)
    p = np.array([0.4, 0.1, 0.3, 0.2] if live else [0.4, 0.0, 0.35, 0.25])
    f0 = float(np.linalg.norm(np.einsum("m,mij->ij", p, _grams(atoms)) - target) ** 2)
    return target, atoms, p, f0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("iters", [1, 60])
def test_stacked_polish_matches_the_per_entry_reference_bit_for_bit(d, iters):
    target, atoms, p, f0 = _polish_case(d)
    want = _gn_polish_per_entry(p, atoms, target, d, 1e-10, iters=iters)
    got = _polish_capped(iters, p.copy(), atoms.copy(), target, d, 1e-10)
    assert want[0] < f0  # the polish moved, so the comparison is not vacuous
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    if iters == 1:
        assert got[2][1].tobytes() == atoms[1].tobytes()


def _same_bits(got, want):
    return all(
        np.asarray(g).dtype == np.asarray(w).dtype
        and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for g, w in zip(got, want, strict=True)
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("iters", [1, 60])
def test_an_all_live_polish_matches_the_per_entry_reference_bit_for_bit(d, iters):
    target, atoms, p, f0 = _polish_case(d, live=True)
    want = _gn_polish_per_entry(p, atoms, target, d, 1e-10, iters=iters)
    got = _polish_capped(iters, p.copy(), atoms.copy(), target, d, 1e-10)
    assert want[0] < f0
    assert _same_bits(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("iters", [1, 60])
def test_a_zero_weight_atom_keeps_its_signed_zeros(d, iters):
    # atom 1, at weight 0, is -iI with every zero a -0.0: a rotation by
    # exp(i 0) = I would keep its value but turn some -0.0 into +0.0
    target, atoms, p, _ = _polish_case(d)
    atoms[1].real = -0.0
    atoms[1].imag = -np.eye(d)
    want = _gn_polish_per_entry(p, atoms, target, d, 1e-10, iters=iters)
    got = _polish_capped(iters, p.copy(), atoms.copy(), target, d, 1e-10)
    assert _same_bits(got, want)
    if iters == 1:
        assert got[2][1].tobytes() == atoms[1].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("live", [True, False], ids=["all-live", "pinned"])
def test_a_large_residual_polish_matches_the_per_entry_reference_bit_for_bit(
    monkeypatch, d, live
):
    import mufact.factorise as fz

    target, atoms, p = _large_residual_case(d, live)
    calls, newton = [0], fz._newton_step

    def counted(*args):
        calls[0] += 1
        return newton(*args)

    monkeypatch.setattr(fz, "_newton_step", counted)
    got = _polish_capped(60, p.copy(), atoms.copy(), target, d, 1e-6)
    want = _gn_polish_per_entry(p, atoms, target, d, 1e-6, iters=60)
    assert calls[0] > 0  # some iterations stepped on J^T J + S
    assert _same_bits(got, want)


def _second_order_system(p, atoms, target, d):
    """J, r and the `_hessian_blocks` at the polish's start."""
    from mufact.factorise import (
        _gn_system, _grams, _hessian_blocks, _jacobian_map, _pair_products,
    )

    m_cnt, k = atoms.shape[0], atoms.shape[1]
    grams = _grams(atoms)
    achieved = np.einsum("m,mij->ij", p, grams)
    resid = achieved - target
    pairs = grams.reshape(-1, 1) if d == 1 else _pair_products(atoms)
    jac, rvec = _gn_system(p, grams, achieved, resid, pairs, d, _jacobian_map(m_cnt, k, d))
    return jac, rvec, _hessian_blocks(p, pairs, resid, jac, rvec, d)


def _dense_s(jac, rvec, hess):
    """S as one n x n array: the blocks laid out as the columns of J, less
    e g^T + g e^T for the weights e not pinned and g = J^T r."""
    m_cnt, side = hess.shape[0], hess.shape[1]
    n = m_cnt * side
    flat = np.arange(n).reshape(m_cnt, side)
    flat[:, 0] = np.arange(m_cnt)
    flat[:, 1:] = m_cnt + np.arange(m_cnt * (side - 1)).reshape(m_cnt, side - 1)
    dense = np.zeros((n, n))
    for m in range(m_cnt):
        dense[np.ix_(flat[m], flat[m])] = hess[m]
    e = np.zeros(n)
    e[:m_cnt] = jac[:, :m_cnt].any(axis=0)
    g = jac.T @ rvec
    return dense - np.outer(e, g) - np.outer(g, e)


def _pulled_back_misfit(p, atoms, target, d, steps):
    """Half the squared residual above the diagonal after each step
    (weight shifts, rotations): the weights (p + delta) / sum(p + delta),
    each entry of a live atom turned by exp(iH), the others held still."""
    from mufact.factorise import _grams, _hermitian_basis

    m_cnt, k = atoms.shape[0], atoms.shape[1]
    nb = d * d
    q = p + steps[:, :m_cnt]
    q = q / q.sum(axis=1, keepdims=True)
    h = steps[:, m_cnt:].reshape(-1, nb) @ _hermitian_basis(d).reshape(nb, nb)
    vals, vecs = np.linalg.eigh(h.reshape(len(steps), m_cnt, k, d, d))
    turn = (vecs * np.exp(1j * vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    moved = np.where((p > 0.0)[:, None, None, None], turn @ atoms, atoms)
    resid = np.einsum("bm,bmij->bij", q, _grams(moved)) - target
    iu, ju = np.triu_indices(k, 1)
    return 0.5 * (np.abs(resid[:, iu, ju]) ** 2).sum(axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("live", [True, False], ids=["all-live", "zero-weight"])
def test_the_second_order_term_matches_a_central_difference_hessian(d, live):
    # J^T J + S is the Hessian of the misfit the damping tries evaluate, at 0;
    # the frozen rotations of an atom at weight 0 have no curvature in either
    target, atoms, p, _ = _polish_case(d, live=live)
    jac, rvec, hess = _second_order_system(p, atoms, target, d)
    s_dense = _dense_s(jac, rvec, hess)
    n, h = len(s_dense), 1e-4
    free = np.ones(n, dtype=bool)
    side = 1 + atoms.shape[1] * d * d
    for m in np.flatnonzero(p <= 0.0):
        free[len(p) + m * (side - 1):len(p) + (m + 1) * (side - 1)] = False
    idx = np.flatnonzero(free)
    a, b = np.triu_indices(len(idx))
    eye = np.eye(n)[idx]
    steps = np.concatenate([
        h * (eye[a] + eye[b]), h * (eye[a] - eye[b]), h * (eye[b] - eye[a]), -h * (eye[a] + eye[b])
    ])
    f = _pulled_back_misfit(p, atoms, target, d, steps).reshape(4, -1)
    fd = np.zeros((n, n))
    fd[idx[a], idx[b]] = fd[idx[b], idx[a]] = (f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
    full = jac.T @ jac + s_dense
    assert not np.any(full[~free]) and not np.any(s_dense[~free])
    assert np.linalg.norm(full - fd) <= 1e-6 * np.linalg.norm(fd)
    s_fd = fd - jac.T @ jac
    assert np.linalg.norm(s_dense - s_fd) <= 1e-6 * np.linalg.norm(s_fd)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("live", [True, False], ids=["all-live", "pinned"])
def test_the_woodbury_step_equals_a_dense_solve(d, live):
    from mufact.factorise import _newton_step

    target, atoms, p = _large_residual_case(d, live)
    jac, rvec, hess = _second_order_system(p, atoms, target, d)
    if not live:
        jac[:, 1] = 0.0  # atom 1 pinned at weight 0
    s_dense = _dense_s(jac, rvec, hess)
    for lam in (1e-4, 1e-2, 1.0):
        got = _newton_step(jac, rvec, hess)(lam)
        want = np.linalg.solve(jac.T @ jac + s_dense + lam * np.eye(len(s_dense)), -jac.T @ rvec)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        if not live:
            assert got[1] == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_model_test_takes_the_model_that_predicted_nearer(d):
    # with drop the decrease one model predicts exactly, that model wins
    from mufact.factorise import _pair_products, _prefers_newton, _grams

    target, atoms, p = _large_residual_case(d, True)
    jac, rvec, hess = _second_order_system(p, atoms, target, d)
    s_dense = _dense_s(jac, rvec, hess)
    grams = _grams(atoms)
    pairs = grams.reshape(-1, 1) if d == 1 else _pair_products(atoms)
    resid = np.einsum("m,mij->ij", p, grams) - target
    # mostly along the null space of J, where S is all the curvature there is
    step = np.random.default_rng(d).standard_normal(len(s_dense)) * 1e-2
    step -= np.linalg.pinv(jac) @ (jac @ step) * 0.99
    js = jac @ step
    gauss_newton = -(2.0 * rvec @ js + js @ js)
    curv = step @ s_dense @ step
    assert abs(curv) > js @ js  # S outweighs J^T J along this step
    args = (p, pairs, resid, jac, rvec)
    for blocks in (hess, None):
        assert _prefers_newton(*args, blocks, step, gauss_newton - curv, d)
        assert not _prefers_newton(*args, blocks, step, gauss_newton, d)
    # from Gauss-Newton, S is not consulted when its miss is below |Js|^2
    assert not _prefers_newton(*args, None, step, gauss_newton - 0.5 * (js @ js), d)


def test_a_second_order_iteration_forms_no_array_of_side_n():
    # k = 8, d = 3, M = 65: n = M (1 + k d^2) = 4,745, and a float64 n x n
    # array alone would take 180 MB
    import tracemalloc

    from mufact.factorise import _newton_step

    rng = rng_from_seed(95)
    k, d, m_cnt = 8, 3, 65
    target = random_tuple_ensemble(k, d, 3, rng).gram_average()
    atoms = random_haar_unitaries((m_cnt, k), d, rng)
    p = rng.dirichlet(np.ones(m_cnt))
    tracemalloc.start()
    try:
        jac, rvec, hess = _second_order_system(p, atoms, target, d)
        step = _newton_step(jac, rvec, hess)(1e-4)
        _polish_capped(1, p.copy(), atoms.copy(), target, d, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step.shape == (m_cnt * (1 + k * d * d),) and np.isfinite(step).all()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_damping_try_solves_the_row_gram_once_and_a_pin_once_more(monkeypatch, d):
    import mufact.factorise as fz

    solve, eigh, grams = np.linalg.solve, np.linalg.eigh, fz._grams
    solves, eigh_ndims, gram_calls = [], [], [0]

    def counted_solve(a, b):
        solves.append(np.shape(a))
        return solve(a, b)

    def counted_eigh(a, *args, **kwargs):
        eigh_ndims.append(np.ndim(a))
        return eigh(a, *args, **kwargs)

    def counted_grams(stack):
        gram_calls[0] += 1
        return grams(stack)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(fz, "_grams", counted_grams)
    for live, extra in ((True, 0), (False, 1)):
        target, atoms, p, f0 = _polish_case(d, live=live)
        solves.clear()
        eigh_ndims.clear()
        gram_calls[0] = 0
        f, _, _ = _polish_capped(1, p, atoms, target, d, 1e-10)
        assert f < f0
        tries = gram_calls[0] - 1  # one Gram stack at the start, then one per try
        assert tries >= 1
        # k(k-1) = 6 rows; at weight 0, atom 1 is pinned and the system solved once more
        assert solves == [(6, 6)] * (tries + extra)
        # the row Gram is never diagonalised; at d >= 2 the tries' rotations are
        # (m, k, d, d) stacks
        assert 2 not in eigh_ndims
    # over a whole polish on a target outside the set: an iteration on
    # J^T J + S solves the Gauss-Newton system once for the pin test if a
    # weight is at 0, then per try the (m, 1 + k d^2)-square blocks once and
    # the k(k-1) + 1-square Woodbury system once
    events = []

    def logged(name, fn):
        def wrapped(*args, **kwargs):
            events.append((name, np.shape(args[0]) if name == "solve" else None))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "solve", logged("solve", solve))
    monkeypatch.setattr(fz, "_grams", logged("try", grams))
    monkeypatch.setattr(fz, "_gn_system", logged("iteration", fz._gn_system))
    monkeypatch.setattr(fz, "_newton_step", logged("newton", fz._newton_step))
    for live in (True, False):
        target, atoms, p = _large_residual_case(d, live)
        events.clear()
        _polish_capped(60, p.copy(), atoms.copy(), target, d, 1e-6)
        side = 1 + 4 * d * d
        blocks, woodbury, gram = (len(p), side, side), (13, 13), (12, 12)
        segments = []
        for name, shape in events[1:]:  # the first Gram stack precedes every iteration
            if name == "iteration":
                segments.append([])
            else:
                segments[-1].append((name, shape))
        kinds = set()
        for seg in segments:
            tries = sum(name == "try" for name, _ in seg)
            shapes = [shape for name, shape in seg if name == "solve"]
            if ("newton", None) in seg:
                kinds.add("newton")
                pin_test = shapes[:len(shapes) - 2 * tries]
                assert pin_test in ([], [gram])
                assert shapes[len(pin_test):] == [blocks, woodbury] * tries
            else:
                kinds.add("gauss-newton")
                assert shapes in ([gram] * tries, [gram] * (tries + 1))
        assert kinds == {"newton", "gauss-newton"}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_svd_damped_step_matches_the_lstsq_step(d):
    target, atoms, p, f0 = _polish_case(d)
    want = _gn_polish_per_entry(p, atoms, target, d, 1e-10, iters=1, solve="lstsq")
    got = _polish_capped(1, p.copy(), atoms.copy(), target, d, 1e-10)
    assert want[0] < f0
    assert abs(got[0] - want[0]) <= 1e-12 * want[0]
    assert np.abs(got[1] - want[1]).max() <= 1e-12 * np.abs(want[1]).max()
    assert np.abs(got[2] - want[2]).max() <= 1e-12 * np.abs(want[2]).max()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_gram_step_matches_the_svd_step(d):
    target, atoms, p, f0 = _polish_case(d)
    want = _gn_polish_per_entry(p, atoms, target, d, 1e-10, iters=1, solve="svd")
    got = _polish_capped(1, p.copy(), atoms.copy(), target, d, 1e-10)
    assert want[0] < f0
    assert abs(got[0] - want[0]) <= 1e-12 * want[0]
    assert np.abs(got[1] - want[1]).max() <= 1e-12 * np.abs(want[1]).max()
    assert np.abs(got[2] - want[2]).max() <= 1e-12 * np.abs(want[2]).max()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("live", [True, False], ids=["all-live", "pinned"])
def test_solved_step_matches_the_eigh_step(d, live):
    target, atoms, p, f0 = _polish_case(d, live=live)
    want = _gn_polish_per_entry(p, atoms, target, d, 1e-10, iters=1, solve="eigh")
    got = _polish_capped(1, p.copy(), atoms.copy(), target, d, 1e-10)
    assert want[0] < f0
    assert abs(got[0] - want[0]) <= 1e-12 * want[0]
    assert np.abs(got[1] - want[1]).max() <= 1e-12 * np.abs(want[1]).max()
    assert np.abs(got[2] - want[2]).max() <= 1e-12 * np.abs(want[2]).max()


def _traces_per_atom(atoms, d):
    """tr(U_i* B_x U_j) at [m, i, x, j], read off each atom's pair products
    U_j U_i* as `_gn_system` reads them."""
    from mufact.factorise import _hermitian_basis

    k, nb = atoms.shape[1], d * d
    cols = _hermitian_basis(d).transpose(2, 1, 0).reshape(d * d, nb)
    return np.stack([
        (_pair_products_per_atom(atom) @ cols).reshape(k, k, nb).transpose(0, 2, 1)
        for atom in atoms
    ])


def _gn_system_scattered(p, atoms, grams, achieved, resid, d):
    """J and r built as `_gn_polish` built them before the gather: rotation
    columns scattered into a zeroed array, then two concatenations."""
    m_cnt, k = atoms.shape[0], atoms.shape[1]
    iu, ju = np.triu_indices(k, 1)
    rows = np.arange(len(iu))
    r = resid[iu, ju]
    tr = grams[:, :, None, :] if d == 1 else _traces_per_atom(atoms, d)
    dg = -1j * p[:, None, None, None] * tr / d
    rot = np.zeros((len(rows), m_cnt, k, d * d), dtype=complex)
    rot[rows, :, iu] = dg[:, iu, :, ju]
    rot[rows, :, ju] = np.conj(dg[:, ju, :, iu])
    cols = np.concatenate(
        [(grams - achieved)[:, iu, ju].T, rot.reshape(len(rows), m_cnt * k * d * d)], axis=1
    )
    return np.concatenate([cols.real, cols.imag]), np.concatenate([r.real, r.imag])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_gathered_jacobian_matches_the_scattered_one_bit_for_bit(d):
    from mufact.factorise import _grams, _gn_system, _jacobian_map, _pair_products

    rng = rng_from_seed(80 + d)
    zero_weights = 0
    for m_cnt in range(1, 7):
        for k in range(2, 6):
            atoms = random_haar_unitaries((m_cnt, k), d, rng)
            p = rng.random(m_cnt)
            p[rng.random(m_cnt) < 0.3] = 0.0
            zero_weights += int((p == 0.0).sum())
            target = random_tuple_ensemble(k, d, 2, rng).gram_average()
            grams = _grams(atoms)
            achieved = np.einsum("m,mij->ij", p, grams)
            resid = achieved - target
            pairs = grams.reshape(-1, 1) if d == 1 else _pair_products(atoms)
            got = _gn_system(p, grams, achieved, resid, pairs, d, _jacobian_map(m_cnt, k, d))
            want = _gn_system_scattered(p, atoms, grams, achieved, resid, d)
            assert _same_bits(got, want)
            assert got[0].shape == (k * (k - 1), m_cnt * (1 + k * d * d))
    assert zero_weights > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_the_pair_product_traces_match_the_three_factor_trace(d):
    # the traces that `_gn_system` reads off U_j U_i* are tr(U_i* B_x U_j)
    from mufact.factorise import _hermitian_basis

    atoms = random_haar_unitaries((5, 4), d, rng_from_seed(90 + d))
    want = np.einsum("miba,xbc,mjca->mixj", np.conj(atoms), _hermitian_basis(d), atoms)
    assert np.abs(_traces_per_atom(atoms, d) - want).max() <= 1e-14


@pytest.mark.parametrize(
    "c, residual, bound, shape",
    [
        (np.zeros((0, 0)), 0.0, 0.0, (1, 0, 1, 1)),
        ([[1.0]], 0.0, 0.0, (2, 1, 1, 1)),
        ([[2.0]], 0.9999999999999998, 0.9999999999999996, (1, 1, 1, 1)),
    ],
    ids=["k0", "k1-in", "k1-out"],
)
def test_a_target_with_no_pair_runs_the_polish_on_an_empty_system(
    monkeypatch, c, residual, bound, shape
):
    solve, shapes = np.linalg.solve, set()

    def counted(a, b):
        shapes.add(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    cert = membership_solve(c, 1, restarts=2, max_iters=5)
    assert cert.residual_fro == residual and cert.ensemble.tuples.shape == shape
    assert dist_upper_bound(c, 2, restarts=2, max_iters=5).value == bound
    # only [[2]] is off target at the start, so only its polish iterates: on 0 x 0
    assert shapes == ({(0, 0)} if residual else set())


def _extreme_target(rng):
    """Gram of four unit vectors v_i in C^2 whose v_i v_i* span Herm(2): an
    extreme point of the elliptope, outside the Gram averages at every d."""
    while True:
        v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        v /= np.linalg.norm(v, axis=0)
        outer = np.einsum("ai,bi->iab", v, np.conj(v)).reshape(4, 4)
        if np.linalg.matrix_rank(np.concatenate([outer.real, outer.imag], axis=1), tol=1e-2) == 4:
            return np.conj(v).T @ v


def test_a_polish_that_crawls_ends_on_its_stop_before_its_cap():
    target = _extreme_target(rng_from_seed(1))
    # one solver iteration, its escape polish included, as the distance bound runs it
    start = membership_solve(target, 2, atoms=5, restarts=1, max_iters=1, tol=1e-6, seed=1)
    p, atoms = start.ensemble.weights, start.ensemble.tuples
    free = _polish_capped(10_000, p.copy(), atoms.copy(), target, 2, 1e-6)
    assert 1e-4 < free[0] < start.residual_fro ** 2  # it moved, and cannot hit
    capped = _polish_capped(60, p.copy(), atoms.copy(), target, 2, 1e-6)
    want = _gn_polish_per_entry(p, atoms, target, 2, 1e-6, iters=60)
    for got in (capped, want):
        assert got[0] == free[0]
        assert np.array_equal(got[1], free[1])
        assert np.array_equal(got[2], free[2])


def _crawl_escape_input(monkeypatch):
    """The extreme target of the crawl test, and the input of the escape
    polish of the first solver iteration on it: the polish a distance bound
    at d = 2 runs first."""
    import mufact.factorise as fz

    target = _extreme_target(rng_from_seed(1))
    seen, polish = [], fz._gn_polish
    monkeypatch.setattr(fz, "_gn_polish", lambda *a: seen.append(a) or polish(*a))
    membership_solve(target, 2, atoms=5, restarts=1, max_iters=1, tol=1e-6, seed=1)
    monkeypatch.undo()
    return seen[0][0], seen[0][1], target


def test_a_distance_polish_ends_on_its_stop_no_higher_than_uncapped_gauss_newton(
    monkeypatch,
):
    from mufact.factorise import _GN_ITERS

    p, atoms, target = _crawl_escape_input(monkeypatch)
    capped = _polish_capped(_GN_ITERS, p.copy(), atoms.copy(), target, 2, 1e-6)
    free = _polish_capped(10_000, p.copy(), atoms.copy(), target, 2, 1e-6)
    gauss_newton = _gn_polish_per_entry(p, atoms, target, 2, 1e-6, iters=10_000, second_order=False)
    # the same bits with and without the cap: the polish stopped on its own
    assert _same_bits(capped, free)
    assert capped[0] <= gauss_newton[0] * (1.0 + 1e-9)
    # where Gauss-Newton alone, held to the cap, ends higher
    held = _gn_polish_per_entry(p, atoms, target, 2, 1e-6, iters=_GN_ITERS, second_order=False)
    assert held[0] > gauss_newton[0]


def test_a_rank_deficient_jacobian_gives_a_finite_step():
    from mufact.factorise import _grams

    # k = 2 and d = 1: both atoms share one Gram matrix, so the weight
    # columns vanish, and the rotations of the live atom's two entries
    # move its one Gram entry along a single direction: J J^T has rank 1
    atoms = np.repeat(random_haar_unitaries((1, 2), 1, rng_from_seed(5)), 2, axis=0)
    p = np.array([1.0, 0.0])
    target = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
    f0 = float(np.linalg.norm(_grams(atoms)[0] - target) ** 2)
    f, q, turned = _polish_capped(1, p, atoms, target, 1, 1e-10)
    assert np.isfinite(turned).all() and np.array_equal(q, p)
    assert f < f0
    assert np.array_equal(turned[1], atoms[1])  # the weight-0 atom stays put


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_zero_weight_pushed_outward_is_held_at_its_bound(d):
    # atom 1 has weight 0 and its step points outward, so it is pinned: the
    # step is the one taken with atom 1 left out
    target, atoms, p, f0 = _polish_case(d)
    f, q, turned = _polish_capped(1, p.copy(), atoms.copy(), target, d, 1e-10)
    keep = [0, 2, 3]
    f_out, q_out, turned_out = _polish_capped(1, p[keep], atoms[keep], target, d, 1e-10)
    assert f < f0
    assert q[1] == 0.0 and turned[1].tobytes() == atoms[1].tobytes()
    assert (q >= 0.0).all() and abs(q.sum() - 1.0) <= 1e-15
    assert abs(f - f_out) <= 1e-12 * f
    assert np.abs(q[keep] - q_out).max() <= 1e-12
    assert np.abs(turned[keep] - turned_out).max() <= 1e-12


def test_a_zero_weight_whose_step_points_inward_revives():
    from mufact.factorise import _grams

    # the target is the Gram of atom 1, at weight 0: its weight column is -r,
    # so its step r^T (J J^T + lam)^-1 r is positive
    atoms = random_haar_unitaries((2, 3), 2, rng_from_seed(9))
    target = _grams(atoms)[1]
    p = np.array([1.0, 0.0])
    f0 = float(np.linalg.norm(_grams(atoms)[0] - target) ** 2)
    f, q, _ = _polish_capped(1, p, atoms, target, 2, 1e-10)
    assert f < f0
    assert q[1] > 0.0


def _acceptance_8_seed_5_start(monkeypatch):
    """Acceptance 8's draw at seed 5: the input of the escape polish of
    restart 0's first iteration, which ran all 60 iterations to 2.1e-3
    while weights died and revived under the clip."""
    import mufact.factorise as factorise

    tol = 1e-5
    target = random_tuple_ensemble(4, 1, 3, rng_from_seed(1005)).gram_average()
    seen = []
    polish = factorise._gn_polish
    monkeypatch.setattr(factorise, "_gn_polish", lambda *a: seen.append(a) or polish(*a))
    membership_solve(target, 1, restarts=1, max_iters=1, tol=tol, seed=5)
    return seen[0][0], seen[0][1], target, tol


def test_a_polish_whose_weights_die_and_revive_matches_the_reference_bit_for_bit(
    monkeypatch,
):
    p, atoms, target, tol = _acceptance_8_seed_5_start(monkeypatch)
    assert (p > 0.0).all()  # merged atoms: every weight starts live
    want = _gn_polish_per_entry(p, atoms, target, 1, tol, iters=60)
    got = _polish_capped(60, p.copy(), atoms.copy(), target, 1, tol)
    assert want[0] <= 0.01 * tol * tol
    assert _same_bits(got, want)


def test_a_polish_that_ran_to_its_cap_reaches_tol_before_it(monkeypatch):
    p, atoms, target, tol = _acceptance_8_seed_5_start(monkeypatch)
    capped = _polish_capped(60, p.copy(), atoms.copy(), target, 1, tol)
    short = _polish_capped(59, p.copy(), atoms.copy(), target, 1, tol)
    assert capped[0] <= 0.01 * tol * tol
    # the 60th iteration never ran
    assert capped[0] == short[0]
    assert np.array_equal(capped[1], short[1]) and np.array_equal(capped[2], short[2])


def _polar(x):
    """Unitary polar factor P @ Qh of X = P diag(s) Qh."""
    p, _, qh = np.linalg.svd(np.asarray(x, dtype=complex))
    return p @ qh


def _atom_sweep_reference(p, atoms, grams, resid):
    """Reference `_atom_sweep`, one entry at a time through full index
    expressions, with `_polar` for the d > 1 candidate and an explicit
    isfinite test; also returns how many candidates it rejected."""
    from mufact.linalg import frob

    rejected = 0
    m_cnt, k, d = atoms.shape[0], atoms.shape[1], atoms.shape[2]
    for m in range(m_cnt):
        pm = p[m]
        if pm <= 0.0:
            continue
        flat = atoms[m].reshape(k, d * d)
        for i in range(k):
            r = resid[i, :] - pm * grams[m, i, :]
            rr = np.conj(r)
            rr[i] = 0.0
            z = (rr @ flat).reshape(d, d)
            if not np.isfinite(z).all() or frob(z) < 1e-300:
                continue
            if d == 1:
                cand = -z / abs(z[0, 0])
            else:
                cand = -_polar(z)
            row = (flat @ np.conj(cand).ravel()) / d
            row[i] = 1.0
            new_r = r + pm * row
            old_r = resid[i, :]
            delta = np.abs(new_r) ** 2 - np.abs(old_r) ** 2
            delta[i] = 0.0
            if 2.0 * float(delta.sum()) < 0.0:
                atoms[m, i] = cand
                flat[i] = cand.ravel()
                grams[m, i, :] = row
                grams[m, :, i] = np.conj(row)
                resid[i, :] = new_r
                resid[:, i] = np.conj(new_r)
            else:
                rejected += 1
    return atoms, grams, resid, rejected


@pytest.mark.parametrize("d", [1, 2, 3])
def test_atom_sweep_matches_the_reference_bit_for_bit(d):
    from mufact.factorise import _atom_sweep, _grams

    target, atoms, p, _ = _polish_case(d)  # atom 1 has weight 0
    grams = _grams(atoms)
    resid = np.einsum("m,mij->ij", p, grams) - target
    want = (atoms.copy(), grams.copy(), resid.copy())
    rejected = 0
    for _ in range(4):
        got = _atom_sweep(p, *(a.copy() for a in want))
        *want, n = _atom_sweep_reference(p, *want)
        rejected += n
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        # the row views wrote through: the grams are still those of the atoms
        assert np.abs(got[1] - _grams(got[0])).max() <= 1e-12
    assert want[0][1].tobytes() == atoms[1].tobytes()  # weight 0: never swept
    assert not np.array_equal(want[0], atoms)
    # at d = 1 the candidate is the exact minimiser of its entry's misfit
    assert (rejected > 0) == (d > 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_cached_hermitian_basis_is_read_only(d):
    from mufact.factorise import _basis_pairs, _hermitian_basis

    basis = _hermitian_basis(d)
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 2.0
    assert _hermitian_basis(d) is basis and basis[0, 0, 0] == 1.0
    # and the basis products that the second-order term reads
    pairs = _basis_pairs(d)
    with pytest.raises(ValueError):
        pairs[0, 0] = 2.0
    assert _basis_pairs(d) is pairs and pairs[0, 0] == 1.0


@pytest.mark.parametrize("bad", ["zero", "inf", "nan"])
def test_atom_sweep_skips_a_zero_or_non_finite_z_as_the_reference_does(bad):
    from mufact.factorise import _atom_sweep, _grams

    target, atoms, p, _ = _polish_case(2)
    grams = _grams(atoms)
    resid = np.einsum("m,mij->ij", p, grams) - target
    if bad == "zero":  # r_j = 0 for j != 0 at atom 0, entry 0, so Z = 0
        resid[0, 1:] = p[0] * grams[0, 0, 1:]
    else:
        resid[0, 1] = float(bad)
    with np.errstate(invalid="ignore"):  # BLAS turns an inf entry of Z into nan
        want = _atom_sweep_reference(p, atoms.copy(), grams.copy(), resid.copy())
        got = _atom_sweep(p, atoms.copy(), grams.copy(), resid.copy())
    assert want[0][0, 0].tobytes() == atoms[0, 0].tobytes()  # skipped
    for g, w in zip(got, want[:3]):
        assert g.tobytes() == w.tobytes()


def _project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def _weight_update_projected_gradient(p, grams, target, sweeps=50, tol=1e-10):
    """Reference weight step: projected-gradient sweeps on the simplex."""
    a = np.real(np.einsum("mij,nij->mn", np.conj(grams), grams))
    b = np.real(np.einsum("mij,ij->m", np.conj(grams), target))
    const = float(np.vdot(target, target).real)
    lip = 2.0 * max(float(np.linalg.eigvalsh(a)[-1]), 1e-30)

    def misfit(q):
        return float(q @ a @ q - 2.0 * b @ q + const)

    f = misfit(p)
    for _ in range(sweeps):
        q = _project_simplex(p - (2.0 * (a @ p - b)) / lip)
        fq = misfit(q)
        if fq < f:
            p, gain, f = q, f - fq, fq
        else:
            gain = 0.0
        if gain < 0.1 * tol * tol:
            break
    return p, f


def _weight_q(grams, target):
    diff = grams - target
    return np.real(np.einsum("mij,nij->mn", np.conj(diff), diff))


def _weight_update_cold_reference(p, grams, target):
    """Reference weight step: Wolfe's walk started at the vertex with the
    smallest Q_mm, written out apart from `_weight_update`."""
    q = _weight_q(grams, target)
    diag = np.diagonal(q)
    gap_tol = 1e-15 * float(diag.max())
    w = np.zeros(len(p))
    w[np.argmin(diag)] = 1.0
    f = float(diag.min())
    while True:
        g = q @ w
        j = int(np.argmin(g))
        if f - g[j] <= gap_tol or w[j] > 0.0:
            break
        support = np.append(np.flatnonzero(w), j)
        cur = w[support]
        while True:
            n = len(support)
            kkt = np.ones((n + 1, n + 1))
            kkt[:n, :n] = q[support[:, None], support]
            kkt[n, n] = 0.0
            rhs = np.zeros(n + 1)
            rhs[n] = 1.0
            alpha = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:n]
            if (alpha >= 0.0).all():
                break
            out = np.flatnonzero(alpha < 0.0)
            ratios = cur[out] / (cur[out] - alpha[out])
            cur = cur + ratios.min() * (alpha - cur)
            cur[out[np.argmin(ratios)]] = 0.0
            support, cur = support[cur > 0.0], cur[cur > 0.0]
        w_try = np.zeros(len(w))
        w_try[support] = alpha
        f_try = float(w_try @ q @ w_try)
        if not f_try < f:
            break
        w, f = w_try, f_try
    w = w / w.sum()
    f, f_in = float(w @ q @ w), float(p @ q @ p)
    return (w, f) if f < f_in else (p, f_in)


def _weight_cases():
    from mufact.factorise import _grams

    rng = rng_from_seed(80)
    k = 3
    cases = {}
    for d in (1, 2):
        for m_cnt in (1, 5, k * k + 1):
            atoms = random_haar_unitaries((m_cnt, k), d, rng)
            target = random_tuple_ensemble(k, d, 2, rng).gram_average()
            cases[f"seeded-d{d}-m{m_cnt}"] = (_grams(atoms), target)
    grams = _grams(random_haar_unitaries((5, k), 2, rng))
    cases["inside"] = (grams, np.einsum("m,mij->ij", rng.dirichlet(np.ones(5)), grams))
    cases["outside"] = (_grams(random_haar_unitaries((5, k), 1, rng)), np.eye(k))
    atoms = random_haar_unitaries((3, k), 2, rng)
    cases["duplicate-atoms"] = (
        _grams(atoms[[0, 1, 0, 2, 1, 0]]), random_tuple_ensemble(k, 2, 2, rng).gram_average()
    )
    grams = _grams(random_haar_unitaries((5, k), 2, rng))
    cases["target-is-an-atom"] = (grams, grams[2].copy())
    return cases


WEIGHT_CASES = _weight_cases()


@pytest.mark.parametrize("start", ["uniform", "random"])
@pytest.mark.parametrize("name", sorted(WEIGHT_CASES))
def test_weight_step_is_the_exact_minimiser_on_the_simplex(name, start):
    from mufact.factorise import _weight_update

    grams, target = WEIGHT_CASES[name]
    m_cnt = grams.shape[0]
    p = np.full(m_cnt, 1.0 / m_cnt)
    if start == "random":
        p = rng_from_seed(81).dirichlet(np.ones(m_cnt))
    diff = grams - target
    q = np.real(np.einsum("mij,nij->mn", np.conj(diff), diff))

    def misfit(w):
        r = np.einsum("m,mij->ij", w, grams) - target
        return float(np.vdot(r, r).real)

    w, f = _weight_update(p.copy(), grams, target)
    ref, _ = _weight_update_projected_gradient(p.copy(), grams, target)
    assert (w >= 0.0).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    g = q @ w
    assert float(w @ g) - g.min() <= 1e-9 * np.diagonal(q).max()
    assert f == pytest.approx(misfit(w), rel=1e-9, abs=1e-15 * np.diagonal(q).max())
    assert misfit(w) <= misfit(ref)
    assert misfit(w) <= misfit(p)
    if name in ("inside", "target-is-an-atom"):
        assert misfit(w) <= 1e-24
    if name == "outside":
        assert misfit(w) >= 1e-3


def _counting_lstsq(monkeypatch):
    """Record the size of every lstsq solve from here on."""
    sizes, solve = [], np.linalg.lstsq

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return sizes


@pytest.mark.parametrize("start", ["uniform", "random"])
@pytest.mark.parametrize("name", sorted(WEIGHT_CASES))
def test_weight_step_matches_the_cold_walk_bit_for_bit(name, start):
    from mufact.factorise import _weight_update

    grams, target = WEIGHT_CASES[name]
    m_cnt = grams.shape[0]
    p = np.full(m_cnt, 1.0 / m_cnt)
    if start == "random":
        p = rng_from_seed(81).dirichlet(np.ones(m_cnt))
    w, f = _weight_update(p.copy(), grams, target)
    ref, f_ref = _weight_update_cold_reference(p.copy(), grams, target)
    assert w.tobytes() == ref.tobytes()
    assert f == f_ref


@pytest.mark.parametrize("name", sorted(WEIGHT_CASES))
def test_a_weight_step_from_above_every_vertex_misfit_walks_from_the_best_vertex(
    name, monkeypatch
):
    from mufact.factorise import _weight_update

    grams, target = WEIGHT_CASES[name]
    diag = np.diagonal(_weight_q(grams, target))
    p = np.zeros(grams.shape[0])
    p[np.argmax(diag)] = 1.0  # misfit max Q_mm, not below min Q_mm
    sizes = _counting_lstsq(monkeypatch)
    want = _weight_update_cold_reference(p.copy(), grams, target)
    n_ref = len(sizes)
    got = _weight_update(p.copy(), grams, target)
    assert sizes[n_ref:] == sizes[:n_ref]
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]


def test_a_weight_step_that_does_not_lower_the_misfit_returns_p_itself():
    from mufact.factorise import _weight_update

    unchanged = 0
    for grams, target in WEIGHT_CASES.values():
        q = _weight_q(grams, target)
        m_cnt = grams.shape[0]
        opt, _ = _weight_update_cold_reference(np.full(m_cnt, 1.0 / m_cnt), grams, target)
        for p in (opt, _weight_update(np.full(m_cnt, 1.0 / m_cnt), grams, target)[0]):
            w, f = _weight_update(p, grams, target)
            f_in = float(p @ q @ p)
            if not f < f_in:
                assert w is p and f == f_in
                unchanged += 1
    assert unchanged > 0


def test_membership_reports_honest_residual_when_budget_is_too_small():
    # one atom at d = 1 cannot reach the 2x2 identity: the off-diagonal
    # Gram entry always has modulus 1
    cert = membership_solve(np.eye(2), 1, atoms=1, restarts=2, max_iters=50, tol=1e-8)
    assert cert.residual_fro >= 1.0
    verify_certificate(cert)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_membership_rejects_a_non_finite_target(bad):
    # a NaN target once came back as a certificate with a NaN residual
    target = np.eye(3, dtype=complex)
    target[0, 2] = bad
    with pytest.raises(MufactError, match="^target has an entry that is not finite$"):
        membership_solve(target, 1, restarts=1, max_iters=5)


def test_planted_target_that_stalled_short_of_tol_is_recovered():
    # acceptance 8's draw at s = 37: with the first escape at iteration 40,
    # all 20 restarts stalled between 1.4e-4 and 1e-3
    target = random_tuple_ensemble(4, 1, 3, rng_from_seed(1037)).gram_average()
    cert = membership_solve(target, 1, restarts=20, max_iters=300, tol=1e-5, seed=37)
    assert cert.residual_fro <= 1e-5
    verify_certificate(cert)


# ---------------------------------------------------------------------------
# distance bounds


def test_dist_bound_planted_and_monotone_under_doubling():
    planted = random_tuple_ensemble(3, 1, 2, rng_from_seed(46)).gram_average()
    b1 = dist_upper_bound(planted, 1, restarts=6, max_iters=200, tol=1e-8, seed=0)
    b2 = dist_upper_bound(planted, 2, restarts=6, max_iters=200, tol=1e-8, seed=0)
    assert b1.value <= 1e-6
    assert b2.value <= b1.value
    assert b2.certificate.ensemble.d == 2
    verify_certificate(b2.certificate)
    assert b2.cb.lower <= b2.cb.upper


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("solve", [membership_solve, dist_upper_bound])
def test_a_tuple_dimension_below_one_is_rejected(solve, d):
    with pytest.raises(MufactError, match="at least 1"):
        solve(np.eye(2), d, atoms=2, restarts=1, max_iters=5)


# every count a caller may get wrong: not an integer, a bool, or below its floor
BAD_COUNTS = [("d", 2.0), ("d", True), ("atoms", 2.0), ("atoms", True),
              ("restarts", 1.5), ("restarts", True), ("max_iters", 5.0), ("max_iters", -1)]


@pytest.mark.parametrize("name, value", BAD_COUNTS, ids=[f"{n}={v!r}" for n, v in BAD_COUNTS])
@pytest.mark.parametrize("solve", [membership_solve, dist_upper_bound])
def test_a_count_that_is_not_a_valid_integer_is_rejected(solve, name, value):
    from mufact.factorise import _bound

    args = dict(d=2, atoms=2, restarts=1, max_iters=5)
    args[name] = value
    _bound.cache_clear()
    with pytest.raises(MufactError, match=rf"^{name} must be "):
        solve(np.eye(2), **args)
    assert _bound.cache_info().currsize == 0  # rejected before the memo


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dist_bound_rejects_a_non_finite_target_before_the_memo(bad):
    from mufact.factorise import _bound

    target = np.eye(2, dtype=complex)
    target[1, 0] = bad
    _bound.cache_clear()
    with pytest.raises(MufactError, match="^target has an entry that is not finite$"):
        dist_upper_bound(target, 2, atoms=2, restarts=1, max_iters=5)
    assert _bound.cache_info().misses == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", ["dilate", "membership", "dist_bound"])
def test_entry_points_reject_an_input_whose_frobenius_norm_overflows(entry):
    # every entry is finite, but squared residuals would overflow; the
    # dilation once raised NormTooLarge here
    from mufact.factorise import _bound

    x = np.eye(2, dtype=complex)
    x[1, 0] = 1e308
    _bound.cache_clear()
    with pytest.raises(MufactError, match="^(dilation input|target) has a non-finite Frobenius norm$") as err:
        if entry == "dilate":
            halmos_dilate(x)
        elif entry == "membership":
            membership_solve(x, 1, restarts=1, max_iters=5)
        else:
            dist_upper_bound(x, 2, atoms=2, restarts=1, max_iters=5)
    assert type(err.value) is MufactError
    assert _bound.cache_info().misses == 0


@pytest.mark.parametrize("solve", [membership_solve, dist_upper_bound])
def test_numpy_integer_counts_are_accepted(solve):
    i = np.int64
    got = solve(np.eye(2), i(2), atoms=i(2), restarts=i(1), max_iters=i(5), seed=3)
    want = solve(np.eye(2), 2, atoms=2, restarts=1, max_iters=5, seed=3)
    got, want = (getattr(b, "certificate", b) for b in (got, want))
    assert got.ensemble.tuples.tobytes() == want.ensemble.tuples.tobytes()
    assert got.ensemble.weights.tobytes() == want.ensemble.weights.tobytes()


# every entry point that takes a tolerance from its caller, called with value
TOL_ENTRY_POINTS = {
    "membership_solve": lambda c, mu, cert, v: membership_solve(c, 1, restarts=1, max_iters=2, tol=v),
    "dist_upper_bound": lambda c, mu, cert, v: dist_upper_bound(c, 1, restarts=1, max_iters=2, tol=v),
    "schur_cb_norm": lambda c, mu, cert, v: schur_cb_norm(c, rel_gap=v),
    "tuples_from_ensemble": lambda c, mu, cert, v: tuples_from_ensemble(mu, c, 1, 2, tol=v),
    "verify_certificate": lambda c, mu, cert, v: verify_certificate(cert, tol=v),
    "correction_pipeline": lambda c, mu, cert, v: correction_pipeline(c, mu, v, 1),
}


@pytest.mark.parametrize("value", [-1e-6, np.inf, np.nan], ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("entry", list(TOL_ENTRY_POINTS))
def test_a_tolerance_that_is_not_finite_and_at_least_0_is_rejected(entry, value):
    # tol=inf once returned a miss as a hit, and tol=-1 on an exact ensemble
    # raised NotBlockDiagonal for an off-diagonal block of size 0
    from mufact.factorise import _bound

    ens = random_tuple_ensemble(2, 1, 2, rng_from_seed(82))
    c = ens.gram_average()
    mu, cert = mu_ensemble_from_tuples(ens), GramCertificate.build(ens, c)
    _bound.cache_clear()
    with pytest.raises(MufactError, match=r"^(tol|rel_gap|epsilon) must be finite and at least 0, got ") as err:
        TOL_ENTRY_POINTS[entry](c, mu, cert, value)
    assert type(err.value) is MufactError
    assert _bound.cache_info().currsize == 0  # rejected before the memo


def test_a_tolerance_of_0_passes_a_fresh_certificate():
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(83))
    verify_certificate(GramCertificate.build(ens, ens.gram_average()), tol=0.0)


# every count random_tuple_ensemble may get wrong, with the rule it breaks;
# d = 0 gave an ensemble whose Gram entries were all 0/0 = nan
BAD_TUPLE_COUNTS = [(name, value, "an integer") for name in ("k", "d", "atoms")
                    for value in (2.0, True)]
BAD_TUPLE_COUNTS += [("d", 0, "at least 1"), ("atoms", 0, "at least 1"), ("k", -1, "at least 0"),
                     ("d", -1, "at least 1"), ("atoms", -1, "at least 1")]


@pytest.mark.parametrize("name, value, rule", BAD_TUPLE_COUNTS,
                         ids=[f"{n}={v!r}" for n, v, _ in BAD_TUPLE_COUNTS])
def test_random_tuple_ensemble_rejects_a_bad_count(name, value, rule):
    counts = {"k": 3, "d": 2, "atoms": 2, name: value}
    with pytest.raises(MufactError, match=rf"^{name} must be {rule}, got {value!r}$"):
        random_tuple_ensemble(**counts, rng=rng_from_seed(5))


def test_random_tuple_ensemble_accepts_empty_tuples_and_numpy_counts():
    ens = random_tuple_ensemble(0, 2, 2, rng_from_seed(5))
    assert ens.tuples.shape == (2, 0, 2, 2) and ens.gram_average().shape == (0, 0)
    back = fileio.ensemble_from_json(fileio.tuple_ensemble_to_json(ens))
    assert back.tuples.tobytes() == ens.tuples.tobytes()
    assert back.weights.tobytes() == ens.weights.tobytes()
    i = np.int64
    got = random_tuple_ensemble(i(3), i(2), i(2), rng_from_seed(5))
    want = random_tuple_ensemble(3, 2, 2, rng_from_seed(5))
    assert got.tuples.tobytes() == want.tuples.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


# a cheap search on a planted d=2 target, as in the distance bench's warm-up
MEMO_SOLVER = dict(atoms=2, restarts=1, max_iters=5, tol=1e-6, seed=3)


def _memo_target():
    return random_tuple_ensemble(3, 2, 2, rng_from_seed(47)).gram_average()


def _bound_bytes(b):
    cert = b.certificate
    return (b.d, b.value, b.cb.lower, b.cb.upper, cert.ensemble.weights.tobytes(),
            cert.ensemble.tuples.tobytes(), cert.achieved.tobytes(), cert.target.tobytes())


def _counting_membership(monkeypatch):
    from mufact import factorise

    factorise._bound.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return membership_solve(*args, **kwargs)

    monkeypatch.setattr(factorise, "membership_solve", counted)
    return calls


def test_walking_the_doubling_ladder_runs_each_search_once(monkeypatch):
    calls = _counting_membership(monkeypatch)
    c = _memo_target()
    bounds = [dist_upper_bound(c, d, **MEMO_SOLVER) for d in (1, 2, 4)]
    assert calls == [1, 2, 4]
    assert bounds[2].value <= bounds[1].value <= bounds[0].value


def test_a_memo_hit_is_bit_identical_to_a_cold_call():
    from mufact.factorise import _bound

    c = _memo_target()
    _bound.cache_clear()
    dist_upper_bound(c, 1, **MEMO_SOLVER)
    warm = dist_upper_bound(c, 2, **MEMO_SOLVER)
    again = dist_upper_bound(c, 2, **MEMO_SOLVER)
    _bound.cache_clear()
    cold = dist_upper_bound(c, 2, **MEMO_SOLVER)
    assert _bound_bytes(warm) == _bound_bytes(cold) == _bound_bytes(again)
    assert warm.cb.iterations == cold.cb.iterations
    assert warm.certificate.residual_fro == cold.certificate.residual_fro


def test_mutating_a_returned_bound_leaves_the_memo_intact():
    c = _memo_target()
    before = _bound_bytes(dist_upper_bound(c, 2, **MEMO_SOLVER))
    b = dist_upper_bound(c, 2, **MEMO_SOLVER)
    cert = b.certificate
    witnesses = [*b.cb.lower_witness, *b.cb.upper_witness]
    for a in [cert.ensemble.weights, cert.ensemble.tuples, cert.achieved, cert.target,
              *witnesses]:
        a *= 2.0
    assert (c == _memo_target()).all()  # cert.target is a copy, not the caller's c
    assert _bound_bytes(dist_upper_bound(c, 2, **MEMO_SOLVER)) == before
    assert len(witnesses) == 5 and all(isinstance(a, np.ndarray) for a in witnesses)


@pytest.mark.parametrize("change", ["seed", "tol", "one ulp"])
def test_any_change_of_input_misses_the_memo(monkeypatch, change):
    calls = _counting_membership(monkeypatch)
    c = _memo_target()
    dist_upper_bound(c, 1, **MEMO_SOLVER)
    solver = dict(MEMO_SOLVER)
    if change == "seed":
        solver["seed"] += 1
    elif change == "tol":
        solver["tol"] = float(np.nextafter(solver["tol"], 1.0))  # a float still
    else:
        c[0, 1] = np.nextafter(c[0, 1].real, 2.0) + 1j * c[0, 1].imag
    dist_upper_bound(c, 1, **solver)
    dist_upper_bound(c, 1, **solver)
    assert calls == [1, 1]


def _identity_on(n):
    """The one-member ensemble {(1, I_n)}."""
    return MixedUnitaryEnsemble([1.0], np.eye(n)[None])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: UnitaryTupleEnsemble([0.5, 0.5], np.ones((1, 2, 1, 1))), "weight count"),
        (lambda: tuples_from_ensemble(_identity_on(2), np.eye(3), 1, 2),
         r"expected a 2x2 correlation matrix, got \(3, 3\)"),
        (lambda: correction_pipeline(np.eye(2), _identity_on(3), 0.1, 1),
         "ensemble dimension 3 does not match d=1 and k=2"),
        (lambda: membership_solve(np.ones((2, 3)), 1), "target must be square"),
    ],
    ids=["weight-count", "extract-c", "correct-dim", "solve-target"],
)
def test_a_wrong_shape_raises_shape_mismatch(call, message):
    with pytest.raises(ShapeMismatch, match=message):
        call()
