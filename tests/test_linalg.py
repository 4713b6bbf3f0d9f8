"""Unit tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from mufact import (
    MufactError,
    NotHermitian,
    ShapeMismatch,
    herm_eig,
    op_norm,
    random_correlation,
    random_haar_unitary,
    rng_from_seed,
)
from mufact.linalg import as_matrix, below_psd_floor, frob, random_haar_unitaries, require_finite
from mufact.linalg import tol_scale


def rand_herm(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def test_herm_eig_descending_and_reconstructs():
    rng = rng_from_seed(7)
    a = rand_herm(6, rng)
    vals, v = herm_eig(a)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
    assert np.allclose(a @ v, v * vals, atol=1e-10)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig([[0.0, 1.0], [0.0, 0.0]])


def test_herm_eig_rejects_nan():
    with pytest.raises(NotHermitian):
        herm_eig([[np.nan, 0.0], [0.0, 1.0]])


def test_tol_scale_is_one_plus_the_frobenius_norm_without_overflow():
    a = rand_herm(4, rng_from_seed(9))
    assert tol_scale(a) == 1.0 + frob(a)  # the same float where frob does not overflow
    big = np.array([[1.0, 1e308], [1e308, 1.0]])
    with np.errstate(over="ignore"):
        assert frob(big) == np.inf
    assert tol_scale(big) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
    assert tol_scale(1e308 * np.ones((4, 4))) == np.inf
    assert np.isnan(tol_scale([[np.inf, 0.0], [0.0, 1.0]]))
    assert np.isnan(tol_scale([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_require_finite_rejects_non_finite_entries_and_an_overflowing_norm():
    ok = np.array([[1.0, 1e150], [1e150, 1.0]])  # its squares still fit in a float
    assert require_finite(ok, "x") is ok
    with pytest.raises(MufactError, match="^x has an entry that is not finite$"):
        require_finite(np.array([[np.nan, 0.0], [0.0, 1.0]]), "x")
    with pytest.raises(MufactError, match="^x has a non-finite Frobenius norm$"):
        require_finite(np.array([[1.0, 1e308], [1e308, 1.0]]), "x")


def test_below_psd_floor_fails_non_finite_floors_and_eigenvalues():
    big = np.array([[1.0, 1e308], [1e308, 1.0]])
    assert below_psd_floor(herm_eig(big)[0], big)  # -1e308 against a floor of -1.4e298
    assert below_psd_floor(np.array([1.0, 0.0]), 1e308 * np.ones((4, 4)))
    assert below_psd_floor(np.array([1.0, np.nan]), np.eye(2))
    assert below_psd_floor(np.array([np.inf, 1.0]), np.eye(2))
    assert not below_psd_floor(np.array([1.0, -1e-12]), np.eye(2))


def test_herm_eig_rejects_non_square():
    with pytest.raises(ShapeMismatch):
        herm_eig(np.zeros((2, 3)))


def test_op_norm_of_diagonal_and_empty():
    assert op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert op_norm(np.zeros((0, 0))) == 0.0


def test_rng_from_seed_is_deterministic_and_key_split():
    a = rng_from_seed(3).standard_normal(8)
    b = rng_from_seed(3).standard_normal(8)
    c = rng_from_seed(3, (1,)).standard_normal(8)
    d = rng_from_seed(4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_random_haar_unitary_is_unitary_and_seeded():
    u = random_haar_unitary(5, rng_from_seed(9))
    v = random_haar_unitary(5, rng_from_seed(9))
    w = random_haar_unitary(5, rng_from_seed(10))
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    assert np.array_equal(u, v)
    assert not np.allclose(u, w, atol=1e-3)


def _haar_one_at_a_time(d, rng):
    """Reference Haar draw of one matrix: two normal draws, then one QR."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("m, k, d", [(17, 4, 1), (5, 4, 2), (10, 3, 3)])
def test_a_haar_stack_is_its_single_draws_in_index_order(m, k, d):
    got = random_haar_unitaries((m, k), d, rng_from_seed(90 + d))
    rng = rng_from_seed(90 + d)
    want = np.stack([[_haar_one_at_a_time(d, rng) for _ in range(k)] for _ in range(m)])
    assert got.shape == (m, k, d, d)
    assert got.tobytes() == want.tobytes()
    rng = rng_from_seed(90 + d)
    singles = np.stack([[random_haar_unitary(d, rng) for _ in range(k)] for _ in range(m)])
    assert singles.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_random_haar_unitary_keeps_its_bytes(d):
    rng, ref = rng_from_seed(95, (d,)), rng_from_seed(95, (d,))
    for _ in range(3):  # the stream position after each draw is kept too
        u = random_haar_unitary(d, rng)
        assert u.shape == (d, d)
        assert u.tobytes() == _haar_one_at_a_time(d, ref).tobytes()


def test_random_correlation_is_psd_with_unit_diagonal():
    c = random_correlation(6, rng_from_seed(21))
    assert np.allclose(c, c.conj().T, atol=1e-14)
    assert np.abs(np.diagonal(c) - 1.0).max() <= 1e-12
    assert np.linalg.eigvalsh(c).min() >= -1e-12


def test_as_matrix_rejects_a_1d_array():
    with pytest.raises(ShapeMismatch, match=r"expected a 2-d array, got shape \(3,\)"):
        as_matrix(np.zeros(3))
