"""Unit tests for Schur multiplier norm brackets and the superoperator bound."""

import numpy as np
import pytest

from mufact import (
    MufactError,
    NormEstimate,
    NotPSD,
    random_correlation,
    rng_from_seed,
    schur_apply,
    schur_cb_norm,
    schur_norm_psd,
    superop_norm_lb,
)


def test_bracket_invariant():
    NormEstimate(1.0, 1.0, "x")
    with pytest.raises(MufactError):
        NormEstimate(1.0, 0.5, "x")


def test_cb_norm_zero_symbol():
    est = schur_cb_norm(np.zeros((3, 3)))
    assert est.lower == est.upper == 0.0


def test_cb_norm_rejects_non_square():
    with pytest.raises(MufactError):
        schur_cb_norm(np.zeros((2, 3)))


def test_cb_norm_of_identity_symbol():
    # S_I keeps the diagonal: cb norm 1
    est = schur_cb_norm(np.eye(4))
    assert est.lower >= 1.0 - 1e-9
    assert est.upper <= 1.0 + 1e-3
    assert est.method == "dykstra-bisection"


def test_cb_norm_of_all_ones_symbol():
    # S_J is the identity map
    est = schur_cb_norm(np.ones((4, 4)))
    assert est.lower >= 1.0 - 1e-9
    assert est.upper <= 1.0 + 1e-3


def test_cb_norm_of_offdiagonal_symbol_is_exact():
    # row and column bounds pinch the bracket shut without any probing
    est = schur_cb_norm(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert est.lower == est.upper == 1.0


def test_cb_norm_of_sign_rank_one():
    s = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    est = schur_cb_norm(np.outer(s, s))
    assert est.lower >= 1.0 - 1e-9
    assert est.upper <= 1.0 + 1e-3


def test_cb_norm_is_deterministic():
    a = random_correlation(4, rng_from_seed(12))
    e1 = schur_cb_norm(a)
    e2 = schur_cb_norm(a)
    assert (e1.lower, e1.upper) == (e2.lower, e2.upper)


def test_cb_bracket_contains_max_diagonal_for_psd():
    rng = rng_from_seed(13)
    a = 1.7 * random_correlation(5, rng)
    md = schur_norm_psd(a)
    est = schur_cb_norm(a, rel_gap=1e-5)
    assert est.lower <= md + 1e-4
    assert est.upper >= md - 1e-4
    assert est.upper - est.lower <= 1e-3


def test_schur_norm_psd_is_max_diagonal():
    rng = rng_from_seed(14)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = g.conj().T @ g
    assert schur_norm_psd(a) == pytest.approx(np.diagonal(a).real.max(), abs=1e-12)
    with pytest.raises(NotPSD):
        schur_norm_psd([[1.0, 2.0], [2.0, 1.0]])


def test_superop_lb_on_identity_like_maps():
    # S_J is the identity map on 3x3 matrices: norm exactly 1
    j = np.ones((3, 3))
    lb = superop_norm_lb(lambda x: schur_apply(j, x), dim=3)
    assert abs(lb - 1.0) <= 1e-9


def test_superop_lb_on_unitary_conjugation():
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    lb = superop_norm_lb(lambda x: u @ x @ u.conj().T, dim=2)
    assert abs(lb - 1.0) <= 1e-9


def test_superop_lb_never_exceeds_cb_upper():
    rng = rng_from_seed(15)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (z + z.conj().T)
    est = schur_cb_norm(h)
    lb = superop_norm_lb(lambda x: schur_apply(h, x), dim=4)
    assert lb <= est.upper + 1e-6


def test_superop_lb_is_pinned_on_a_fixed_symbol_and_seed():
    # pins the seeded Haar starts: drawing them any other way moves this value
    a = np.array([[1.0, 0.5, -0.25], [0.5, 1.0, 0.75], [-0.25, 0.75, 1.0]])
    lb = superop_norm_lb(lambda x: schur_apply(a, x), dim=3, seed=5)
    assert lb == 1.0192287067564905


def test_superop_lb_of_a_map_on_empty_matrices_is_zero():
    assert superop_norm_lb(lambda x: x, dim=0) == 0.0
