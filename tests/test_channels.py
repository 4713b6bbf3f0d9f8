"""Unit tests for block layouts, channel representations and biaverages."""

import numpy as np
import pytest

import mufact.channels as channels
from mufact import (
    ChoiMatrix,
    DimensionTooLarge,
    KrausChannel,
    MixedUnitaryEnsemble,
    MufactError,
    NotCP,
    NotUnitary,
    SchurSymbol,
    ShapeMismatch,
    biaverage_pm_oracle,
    choi_of,
    compress,
    d_biaverage,
    delta_apply,
    delta_compress,
    depolarizing_ensemble,
    embed,
    kraus_from_choi,
    lift_channel,
    lift_schur,
    random_haar_unitary,
    rng_from_seed,
    schur_apply,
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
    out = np.zeros_like(m)
    view = to_blocks(out, d, k)
    for i in range(k):
        for j in range(k):
            view[i, j] = blocks[i, j]
    assert np.array_equal(out, m)


def test_to_blocks_views_a_stack_member_by_member():
    d, k = 2, 3
    stack = np.arange(3 * 36, dtype=complex).reshape(3, 6, 6)
    blocks = to_blocks(stack, d, k)
    assert blocks.shape == (3, k, k, d, d)
    assert np.shares_memory(blocks, stack)
    for member, view in zip(stack, blocks):
        assert np.array_equal(view, to_blocks(member, d, k))
    for bad in (np.zeros(36), np.zeros((3, 6, 4))):
        with pytest.raises(ShapeMismatch):
            to_blocks(bad, d, k)


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
    rep = verify_channel(ch)
    assert rep.tp_residual <= 1e-12
    assert rep.unital_residual <= 1e-12


@pytest.mark.parametrize("ops", [[], np.zeros((0, 2, 2)), [np.eye(2), np.eye(3)],
                                 [np.eye(2), np.ones((2, 3))], [np.eye(2)[0]], np.eye(2)])
def test_kraus_channel_rejects_empty_ragged_and_non_stack_input(ops):
    with pytest.raises(ShapeMismatch):
        KrausChannel(ops)


def test_rectangular_kraus_operators_act_on_their_column_space():
    # three 2x3 operators: a map from 3x3 to 2x2 matrices
    rng = rng_from_seed(12)
    ops = [rand_complex((2, 3), rng) for _ in range(3)]
    ch = KrausChannel(ops)
    assert ch.kraus.shape == (3, 2, 3) and ch.dim == 3
    x = rand_complex((3, 3), rng)
    want = sum(a @ x @ a.conj().T for a in ops)
    assert np.abs(ch.apply(x) - want).max() <= 1e-13
    # choi_of's E_ij loop: T(E_ij) = sum_m A_m[:, i] A_m[:, j]*, the Gram form
    e = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            e[i, j] = 1.0
            gram = sum(np.outer(a[:, i], a[:, j].conj()) for a in ops)
            assert np.abs(ch.apply(e) - gram).max() <= 1e-13
            e[i, j] = 0.0


def test_choi_of_needs_a_dimension_for_a_bare_callable_and_a_channel_like_input():
    with pytest.raises(ShapeMismatch, match="input dimension required"):
        choi_of(lambda x: x)
    with pytest.raises(TypeError, match="cannot interpret int as a channel"):
        choi_of(3)


def test_kraus_from_choi_of_the_zero_map_is_one_zero_operator():
    ch = kraus_from_choi(choi_of(lambda x: 0.0 * x, 3))
    assert ch.kraus.shape == (1, 3, 3)
    assert not ch.kraus.any()


def test_a_choi_matrix_needs_square_kraus_operators():
    ch = KrausChannel(np.ones((2, 2, 3)))
    for build in (choi_of, verify_channel):
        with pytest.raises(ShapeMismatch, match=r"needs square operators, got \(2, 3\)"):
            build(ch)


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


def test_verify_channel_residuals_of_a_doubling_map():
    # X -> 2X: tr T(E_ij) = 2 delta_ij and T(I) = 2I, so both defects are I
    rep = verify_channel(KrausChannel([np.sqrt(2.0) * np.eye(2)]))
    assert rep.cp and not rep.tp and not rep.unital
    assert rep.tp_residual == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.unital_residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_a_map_on_empty_matrices_is_a_trivial_channel():
    # a 0x0 Choi matrix, given as it is or through an ensemble of 0x0 members
    for t in (ChoiMatrix(np.zeros((0, 0)), 0), MixedUnitaryEnsemble([1.0], np.zeros((1, 0, 0)))):
        rep = verify_channel(t)
        assert rep.dim == 0 and rep.cp and rep.tp and rep.unital
        assert (rep.cp_residual, rep.tp_residual, rep.unital_residual) == (0.0, 0.0, 0.0)
        assert d_biaverage(t).shape == (0, 0)


def test_ensemble_check_rejects_bad_weights_and_members():
    u = weyl_unitaries(2)
    with pytest.raises(MufactError):
        MixedUnitaryEnsemble([0.5, 0.6], u[:2]).check()
    with pytest.raises(NotUnitary):
        MixedUnitaryEnsemble([0.5, 0.5], [u[0], 2.0 * u[1]]).check()


@pytest.mark.parametrize("weights", [[np.nan], [0.5, np.nan]])
def test_ensemble_check_rejects_nan_weights(weights):
    u = weyl_unitaries(2)[: len(weights)]
    with pytest.raises(MufactError, match="weights"):
        MixedUnitaryEnsemble(weights, u).check()


def test_ensemble_check_rejects_a_nan_member():
    u = weyl_unitaries(2)[:2].copy()
    u[1, 0, 0] = np.nan
    with pytest.raises(NotUnitary, match="member 1"):
        MixedUnitaryEnsemble([0.5, 0.5], u).check()


def test_schur_symbol_check():
    SchurSymbol(np.eye(3)).check()
    with pytest.raises(NotCP):
        SchurSymbol([[1.0, 2.0], [2.0, 1.0]]).check()
    with pytest.raises(MufactError):
        SchurSymbol(np.diag([1.0, 0.5])).check()


def test_schur_symbol_check_scales_its_floor_without_overflow():
    # squaring its entries overflows, though ||C||_F = 1.4e308 is a float
    with pytest.raises(NotCP, match=r"-1\.000e\+308"):
        SchurSymbol([[1.0, 1e308], [1e308, 1.0]]).check()


def test_schur_symbol_check_accepts_the_empty_symbol():
    # vacuously PSD with unit diagonal, as sqrt_psd and schur_norm_psd read it
    sym = SchurSymbol(np.zeros((0, 0)))
    assert sym.check() is sym


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
    compressed = kraus_from_choi(delta_compress(phi, d, k))
    rep = verify_channel(compressed)
    assert rep.cp and rep.tp and rep.unital
    # the Weyl-sandwiched ensemble realises the lifted compressed map
    composed = channels.weyl_sandwich(phi.weights, phi.unitaries, d, k)
    assert composed.size == d * d * n * d * d
    got = choi_of(composed.apply, d * k)
    want = choi_of(lambda x: lift_channel(compressed, d, x), d * k)
    assert np.abs(got.matrix - want.matrix).max() <= 1e-9


def test_lift_channel_of_a_choi_matrix_matches_its_kraus_form():
    rng = rng_from_seed(19)
    d, k = 2, 2
    phi = MixedUnitaryEnsemble([0.25, 0.75], [random_haar_unitary(d * k, rng) for _ in range(2)])
    choi = delta_compress(phi, d, k)
    x = rand_complex((d * k, d * k), rng)
    got = lift_channel(choi, d, x)
    want = lift_channel(kraus_from_choi(choi), d, x)
    assert np.abs(got - want).max() <= 1e-13


def test_delta_compress_rejects_an_ensemble_of_another_dimension():
    phi = MixedUnitaryEnsemble([1.0], np.eye(4)[None])
    with pytest.raises(ShapeMismatch, match="acts on dimension 4, expected 6"):
        delta_compress(phi, 3, 2)


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
    assert np.abs(fast.matrix - generic.matrix).max() <= 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_delta_compress_rejects_an_ensemble_of_empty_members(d):
    phi = MixedUnitaryEnsemble([1.0], np.zeros((1, 0, 0)))
    with pytest.raises(ShapeMismatch, match="non-empty"):
        delta_compress(phi, d, 0)


def test_weyl_sandwich_orders_members_by_input_then_weyl_pair():
    d, k = 2, 2
    rng = rng_from_seed(41)
    weights = np.array([0.25, 0.75])
    us = np.stack([random_haar_unitary(d * k, rng) for _ in weights])
    out = channels.weyl_sandwich(weights, us, d, k)
    lifted = [np.kron(np.eye(k), w) for w in weyl_unitaries(d)]
    assert out.size == len(weights) * d ** 4
    for idx, (m, a, b) in enumerate(np.ndindex(len(weights), d * d, d * d)):
        assert out.weights[idx] == weights[m] / d ** 4
        want = lifted[a] @ us[m] @ lifted[b]
        assert np.abs(out.unitaries[idx] - want).max() <= 1e-15


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


# 1e308 times a matrix of trace 0, so not PSD; its Frobenius norm, 4e308,
# is beyond the float range
HUGE_CHOI = 1e308 * np.array([[1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]])


def test_cp_check_fails_when_the_choi_norm_is_not_a_float():
    choi = ChoiMatrix(HUGE_CHOI, 2)
    assert choi.cp_check()[1] is False
    with pytest.raises(NotCP):
        d_biaverage(choi)


def test_sign_oracle_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        biaverage_pm_oracle(lambda x: x, dim=9)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ChoiMatrix(np.eye(3), 2), r"must be 4x4, got \(3, 3\)"),
        (lambda: ChoiMatrix(np.eye(4), 2).apply(np.eye(3)), "expected a 2x2 input"),
        (lambda: MixedUnitaryEnsemble([1.0], np.zeros((1, 2, 3))), "stack of square matrices"),
        (lambda: MixedUnitaryEnsemble([0.5, 0.5], np.eye(2)[None]), "weight count"),
        (lambda: SchurSymbol(np.ones((2, 3))), "symbol must be square"),
        (lambda: schur_apply(np.eye(2), np.eye(3)), "does not match input"),
        (lambda: weyl_unitaries(0), "at least 1"),
    ],
    ids=["choi-side", "choi-apply", "non-square-members", "weight-count", "symbol",
         "schur-apply", "weyl-0"],
)
def test_a_wrong_shape_raises_shape_mismatch(call, message):
    with pytest.raises(ShapeMismatch, match=message):
        call()
