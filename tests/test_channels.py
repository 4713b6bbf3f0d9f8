"""Unit tests for block layouts, channel representations and biaverages."""

import numpy as np
import pytest

import mufact.channels as channels
import mufact.factorise as factorise
from mufact import (
    ChoiMatrix,
    DimensionTooLarge,
    KrausChannel,
    MixedUnitaryEnsemble,
    MufactError,
    NotCP,
    NotUnitary,
    SchurSymbol,
    biaverage_pm_oracle,
    choi_of,
    compress,
    d_biaverage,
    delta_apply,
    delta_compress,
    depolarizing_ensemble,
    embed,
    from_blocks,
    kraus_from_choi,
    lift_channel,
    lift_schur,
    mu_ensemble_from_tuples,
    random_haar_unitary,
    random_tuple_ensemble,
    rng_from_seed,
    to_blocks,
    verify_channel,
    weyl_unitaries,
)


def rand_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# block layout


def test_block_round_trip_and_addressing():
    d, k = 2, 3
    m = np.arange(36, dtype=complex).reshape(6, 6)
    blocks = to_blocks(m, d, k)
    assert blocks.shape == (k, k, d, d)
    assert np.array_equal(blocks[1, 2], m[2:4, 4:6])
    assert np.array_equal(from_blocks(blocks), m)


def test_compress_inverts_embed():
    rng = rng_from_seed(1)
    b = rand_complex((3, 3), rng)
    assert np.allclose(compress(embed(b, 2), 2, 3), b, atol=1e-14)


def test_delta_apply_depolarises_each_block():
    rng = rng_from_seed(2)
    d, k = 2, 2
    x = rand_complex((d * k, d * k), rng)
    out = to_blocks(delta_apply(x, d, k), d, k)
    for i in range(k):
        for j in range(k):
            want = np.trace(x[i * d:(i + 1) * d, j * d:(j + 1) * d]) / d * np.eye(d)
            assert np.allclose(out[i, j], want, atol=1e-13)


# ---------------------------------------------------------------------------
# Weyl unitaries and the depolarising ensemble


def test_weyl_d2_matches_frozen_matrices():
    w = weyl_unitaries(2)
    expect = [
        np.eye(2),
        np.diag([-1.0, 1.0]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
    ]
    assert w.shape == (4, 2, 2)
    for got, want in zip(w, expect):
        assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_weyl_unitary_and_trace_orthogonal(d):
    w = weyl_unitaries(d)
    eye = np.eye(d)
    for u in w:
        assert np.allclose(u.conj().T @ u, eye, atol=1e-12)
    overlaps = np.einsum("iab,jab->ij", np.conj(w), w)
    assert np.allclose(overlaps, d * np.eye(d * d), atol=1e-12)


def test_depolarizing_ensemble_action():
    for d in (2, 3):
        ens = depolarizing_ensemble(d)
        x = rand_complex((d, d), rng_from_seed(d))
        want = np.trace(x) / d * np.eye(d)
        assert np.allclose(ens.apply(x), want, atol=1e-13)


# ---------------------------------------------------------------------------
# representations and verification


def test_kraus_apply_and_residuals():
    u = random_haar_unitary(3, rng_from_seed(4))
    ch = KrausChannel([u])
    x = rand_complex((3, 3), rng_from_seed(5))
    assert np.allclose(ch.apply(x), u @ x @ u.conj().T, atol=1e-13)
    assert ch.tp_residual() <= 1e-12
    assert ch.unital_residual() <= 1e-12


def test_choi_round_trip_preserves_action():
    rng = rng_from_seed(6)
    ops = [rand_complex((3, 3), rng) * 0.4 for _ in range(2)]
    ch = KrausChannel(ops)
    back = kraus_from_choi(choi_of(ch))
    for _ in range(5):
        x = rand_complex((3, 3), rng)
        assert np.allclose(back.apply(x), ch.apply(x), atol=1e-10)


def test_choi_apply_matches_channel():
    rng = rng_from_seed(7)
    u = random_haar_unitary(2, rng)
    ch = KrausChannel([u])
    choi = choi_of(ch)
    x = rand_complex((2, 2), rng)
    assert np.allclose(choi.apply(x), ch.apply(x), atol=1e-13)


def test_verify_channel_flags():
    rep = verify_channel(depolarizing_ensemble(3))
    assert rep.cp and rep.tp and rep.unital
    # amplitude damping is CP and TP but not unital
    g = 0.3
    damp = KrausChannel([
        np.array([[1.0, 0.0], [0.0, np.sqrt(1 - g)]]),
        np.array([[0.0, np.sqrt(g)], [0.0, 0.0]]),
    ])
    rep = verify_channel(damp)
    assert rep.cp and rep.tp and not rep.unital
    assert rep.unital_residual > 1e-3


def test_verify_channel_detects_non_cp():
    # the transpose map: Choi is the swap operator, eigenvalue -1
    rep = verify_channel(lambda x: x.T, dim=2)
    assert not rep.cp
    assert rep.cp_residual == pytest.approx(1.0, abs=1e-12)


def test_ensemble_check_rejects_bad_weights_and_members():
    u = weyl_unitaries(2)
    with pytest.raises(MufactError):
        MixedUnitaryEnsemble([0.5, 0.6], u[:2]).check()
    with pytest.raises(NotUnitary):
        MixedUnitaryEnsemble([0.5, 0.5], [u[0], 2.0 * u[1]]).check()


def test_schur_symbol_check():
    SchurSymbol(np.eye(3)).check()
    with pytest.raises(NotCP):
        SchurSymbol([[1.0, 2.0], [2.0, 1.0]]).check()
    with pytest.raises(MufactError):
        SchurSymbol(np.diag([1.0, 0.5])).check()


# ---------------------------------------------------------------------------
# lifted maps


def test_lift_schur_blockwise_formula():
    rng = rng_from_seed(8)
    d, k = 2, 3
    c = rand_complex((k, k), rng)
    x = rand_complex((d * k, d * k), rng)
    out = to_blocks(lift_schur(c, d, x), d, k)
    for i in range(k):
        for j in range(k):
            tr = np.trace(x[i * d:(i + 1) * d, j * d:(j + 1) * d]) / d
            assert np.allclose(out[i, j], c[i, j] * tr * np.eye(d), atol=1e-13)


def test_delta_compress_produces_unital_channel_and_composed_witness():
    rng = rng_from_seed(9)
    d, k = 2, 2
    n = 3
    phi = MixedUnitaryEnsemble(
        rng.dirichlet(np.ones(n)),
        [random_haar_unitary(d * k, rng) for _ in range(n)],
    ).check()
    dc = delta_compress(phi, d, k)
    rep = verify_channel(dc.channel)
    assert rep.cp and rep.tp and rep.unital
    # sandwiched ensemble realises the lifted compressed map; built on access
    assert "composed" not in dc.__dict__
    assert dc.composed is not None
    assert dc.__dict__["composed"] is dc.composed
    assert dc.composed.size == d * d * n * d * d
    got = choi_of(dc.composed.apply, d * k)
    want = choi_of(lambda x: lift_channel(dc.channel, d, x), d * k)
    assert np.abs(got.matrix - want.matrix).max() <= 1e-9


# ---------------------------------------------------------------------------
# closed-form kernels against the generic E_ij assembly


@pytest.mark.parametrize("n, members", [(1, 1), (1, 3), (2, 1), (3, 4), (6, 5)])
def test_closed_form_choi_matches_generic_assembly(n, members):
    rng = rng_from_seed(70 + 10 * n + members)
    ens = MixedUnitaryEnsemble(
        rng.dirichlet(np.ones(members)),
        [random_haar_unitary(n, rng) for _ in range(members)],
    )
    kraus = KrausChannel([rand_complex((n, n), rng) for _ in range(members)])
    for t in (ens, kraus):
        generic = choi_of(t.apply, n)  # a bare callable takes the E_ij loop
        assert np.abs(choi_of(t).matrix - generic.matrix).max() <= 1e-12


@pytest.mark.parametrize("d, k, members", [(1, 1, 2), (1, 3, 2), (2, 1, 3), (2, 2, 1), (3, 2, 3)])
def test_closed_form_delta_compress_matches_generic_branch(d, k, members):
    rng = rng_from_seed(90 + 10 * d + k)
    phi = MixedUnitaryEnsemble(
        rng.dirichlet(np.ones(members)),
        [random_haar_unitary(d * k, rng) for _ in range(members)],
    )
    fast = delta_compress(phi, d, k)
    generic = delta_compress(phi.apply, d, k)
    assert np.abs(fast.choi.matrix - generic.choi.matrix).max() <= 1e-12
    assert generic.composed is None


def test_correction_pipeline_leaves_composed_unbuilt(monkeypatch):
    made = []

    def recording(*args):
        made.append(channels.delta_compress(*args))
        return made[-1]

    monkeypatch.setattr(factorise, "delta_compress", recording)
    ens = random_tuple_ensemble(3, 2, 2, rng_from_seed(95))
    factorise.correction_pipeline(ens.gram_average(), mu_ensemble_from_tuples(ens), 0.1, 2)
    assert len(made) == 1 and "composed" not in made[0].__dict__


# ---------------------------------------------------------------------------
# diagonal biaverages


def test_biaverage_matches_sign_oracle_on_cp_map():
    rng = rng_from_seed(10)
    k = 3
    g = rand_complex((k * k, k * k), rng)
    choi = ChoiMatrix(g.conj().T @ g, k)
    b = d_biaverage(choi)
    oracle = biaverage_pm_oracle(choi)
    assert np.abs(b - oracle).max() <= 1e-12
    assert np.linalg.eigvalsh(b).min() >= -1e-10 * (1.0 + np.linalg.norm(b))


def test_biaverage_rejects_non_cp():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    with pytest.raises(NotCP):
        d_biaverage(ChoiMatrix(swap, 2))


def test_sign_oracle_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        biaverage_pm_oracle(lambda x: x, dim=9)
