"""Dense linear-algebra kernels shared by the rest of the package.

Everything here is a thin, convention-pinning layer over numpy's LAPACK
bindings: Hermitian eigendecompositions are returned in descending order,
and all randomness flows through explicitly seeded generators.
"""

from __future__ import annotations

import numpy as np

from .errors import MufactError, NotHermitian, ShapeMismatch

ComplexMatrix = np.ndarray
Seed = int

HERM_TOL = 1e-10
PSD_FLOOR = 1e-10


def as_matrix(a) -> ComplexMatrix:
    """Coerce input to a 2-d complex ndarray, rejecting other shapes."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {m.shape}")
    return m


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """a itself, else MufactError if an entry is NaN or infinite or the
    Frobenius norm overflows, since squared residuals then overflow too.

    For entry points only: frob and as_matrix run in inner loops and stay
    unchecked.
    """
    if not np.isfinite(a).all():
        raise MufactError(f"{what} has an entry that is not finite")
    with np.errstate(over="ignore"):  # an overflow is what this looks for
        norm = frob(a)
    if not np.isfinite(norm):
        raise MufactError(f"{what} has a non-finite Frobenius norm")
    return a


def _check_counts(**counts) -> None:
    """MufactError unless each count is an int or np.integer (no bool) at its
    floor: 0 for k and max_iters, 1 for the rest."""
    for name, value in counts.items():
        floor = 0 if name in ("k", "max_iters") else 1
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise MufactError(f"{name} must be an integer, got {value!r}")
        if value < floor:
            raise MufactError(f"{name} must be at least {floor}, got {value}")


def _check_tols(**tols) -> None:
    """MufactError unless each tolerance is finite and >= 0; 0 asks for an
    exact match."""
    for name, value in tols.items():
        if not 0.0 <= value < np.inf:  # a NaN fails both comparisons
            raise MufactError(f"{name} must be finite and at least 0, got {value!r}")


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def tol_scale(a) -> float:
    """1 + ||A||_F for relative tolerances, as 1 + m * ||A / m||_F with
    m = max |a_ij| where squaring the entries overflows; inf or NaN only when
    ||A||_F is beyond the float range or an entry is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are answers here
        f = frob(a)
        if f == np.inf:
            m = float(np.abs(a).max())
            f = m * frob(np.asarray(a) / m)
    return 1.0 + f


def dagger(a: ComplexMatrix) -> ComplexMatrix:
    return np.conj(np.asarray(a)).T


def herm_eig(a) -> tuple[np.ndarray, ComplexMatrix]:
    """Eigendecomposition (values, vectors) of a Hermitian matrix: values
    descending, vectors the matching columns.

    The input must satisfy ||A - A*||_F <= 1e-10 * (1 + ||A||_F); anything
    less symmetric, or NaN, raises NotHermitian rather than being silently
    averaged.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if not frob(m - dagger(m)) <= HERM_TOL * tol_scale(m):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    order = slice(None, None, -1)  # eigh is ascending
    return vals[order].copy(), vecs[:, order].copy()


def below_psd_floor(values: np.ndarray, a) -> bool:
    """Whether eigenvalues `values` of A dip below -PSD_FLOOR * (1 + ||A||_F),
    or that floor or an eigenvalue is not finite."""
    floor = -PSD_FLOOR * tol_scale(a)
    finite = np.isfinite(floor) and np.isfinite(values).all()
    return not (finite and values.min(initial=0.0) >= floor)


def op_norm(x) -> float:
    """Largest singular value."""
    m = as_matrix(x)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def unitarity_defects(u) -> np.ndarray:
    """||U* U - I||_F for every matrix U of a (..., n, n) stack."""
    u = np.asarray(u)
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return np.linalg.norm(gram - np.eye(u.shape[-1]), axis=(-2, -1))


def _first_block(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of a mask over a stack, or None; () on 0-d."""
    hits = np.argwhere(mask)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


def rng_from_seed(seed: Seed, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Deterministic generator for a seed plus a split key.

    Distinct keys give independent streams, and the stream for a given
    (seed, key) pair does not depend on which other keys were drawn first.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def random_haar_unitaries(shape: tuple[int, ...], d: int, rng: np.random.Generator) -> np.ndarray:
    """(*shape, d, d) stack of Haar-distributed d x d unitaries.

    QR of complex Ginibre matrices, with the R diagonal phase-normalised so
    the distribution is exactly Haar rather than QR-convention dependent.
    One normal draw fills the stack in index order, real part then imaginary
    part per matrix, so a stack of n equals n single draws, bit for bit.
    """
    g = rng.standard_normal((*shape, 2, d, d))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def random_haar_unitary(d: int, rng: np.random.Generator) -> ComplexMatrix:
    """Haar-distributed d x d unitary: random_haar_unitaries of shape ()."""
    return random_haar_unitaries((), d, rng)


def random_correlation(k: int, rng: np.random.Generator) -> ComplexMatrix:
    """Random k x k correlation matrix (PSD with unit diagonal).

    Gram matrix of k independent complex Gaussian vectors in C^k, each
    normalised to unit length.
    """
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    v /= np.linalg.norm(v, axis=0)
    return dagger(v) @ v
