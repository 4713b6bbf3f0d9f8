"""Channels on block-structured spaces: ensembles, Choi matrices, averages.

Conventions used throughout:

- A matrix on the composite space is stored as a k x k grid of d x d blocks,
  so the flat index of (block row i, inner row r) is i*d + r and the kron
  realisation of (grid part A, block part B) is np.kron(A, B).
- tr_d denotes the normalised trace Tr/d, so that tr_d(I_d) = 1.
- The Choi matrix of a map T on k x k matrices is the k x k grid whose
  (i, j) block is T(E_ij).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    MufactError,
    NotCP,
    NotUnitary,
    ShapeMismatch,
)
from .linalg import ComplexMatrix, as_matrix, frob, herm_eig, unitarity_defects
from .linalg import _first_block, below_psd_floor, tol_scale

# |sum of weights - 1|, ||U* U - I||_F and |c_ii - 1| allowed by the checks
WEIGHT_TOL = 1e-12
UNITARY_TOL = 1e-10
DIAG_TOL = 1e-10
CHANNEL_TOL = 1e-9
KRAUS_CUTOFF = 1e-10
# largest k for which biaverage_pm_oracle enumerates its 4^k sign pairs,
# and its support test: off-(i, j) mass of each averaged block, relative
SIGN_ORACLE_MAX_K = 8
SIGN_SUPPORT_TOL = 1e-12


# ---------------------------------------------------------------------------
# block layout helpers


def to_blocks(m, d: int, k: int) -> np.ndarray:
    """View a dk x dk matrix as a (k, k, d, d) array of blocks.

    A (..., dk, dk) stack becomes a (..., k, k, d, d) view, member by member.
    For a C-contiguous complex array the view shares its memory, so writing
    to a block writes to the matrix.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (d * k, d * k):
        raise ShapeMismatch(f"expected shape {(d * k, d * k)}, got {a.shape}")
    return a.reshape(a.shape[:-2] + (k, d, k, d)).swapaxes(-3, -2)


def compress(m, d: int, k: int) -> ComplexMatrix:
    """k x k matrix of normalised block traces: out[i, j] = tr_d(M_ij)."""
    blocks = to_blocks(m, d, k)
    return np.trace(blocks, axis1=2, axis2=3) / d


def embed(b, d: int) -> ComplexMatrix:
    """Lift a k x k matrix B to the composite space as I_d (x) B."""
    a = as_matrix(b)
    return np.kron(a, np.eye(d))


# ---------------------------------------------------------------------------
# channel representations


def _check_ensemble(weights: np.ndarray, members: np.ndarray, where: str) -> None:
    """Raise unless the weights sum to 1 within WEIGHT_TOL and are all strictly
    positive, and every member of the stack is unitary within UNITARY_TOL.

    NotUnitary names the first member that is not, as where.format(*index):
    "ensemble member {}" or "tuple {} entry {}".
    """
    total = float(np.sum(weights))
    # the checks are written as not (x <= tol) and not (x > 0), so a NaN fails them
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise MufactError(f"weights sum to {total!r}, expected 1")
    if not weights.min(initial=1.0) > 0.0:
        raise MufactError("weights must be strictly positive")
    bad = _first_block(~(unitarity_defects(members) <= UNITARY_TOL))
    if bad is not None:
        raise NotUnitary(f"{where.format(*bad)} is not unitary within tolerance")


@dataclass
class KrausChannel:
    """Completely positive map X -> sum_i A_i X A_i*, the A_i an (n, r, c) stack."""

    kraus: np.ndarray

    def __post_init__(self):
        try:
            self.kraus = np.asarray(self.kraus, dtype=complex)
        except ValueError as exc:  # a ragged list of operators
            raise ShapeMismatch("Kraus operators must share a common shape") from exc
        if self.kraus.ndim != 3 or self.kraus.shape[0] == 0:
            raise ShapeMismatch(
                f"expected a non-empty (n, r, c) stack of Kraus operators, got {self.kraus.shape}"
            )

    @property
    def dim(self) -> int:
        return self.kraus.shape[2]

    def apply(self, x) -> ComplexMatrix:
        ax = self.kraus @ as_matrix(x)
        return np.tensordot(ax, np.conj(self.kraus), axes=([0, 2], [0, 2]))


@dataclass
class ChoiMatrix:
    """Choi matrix of a map on k x k matrices: block (i, j) holds T(E_ij)."""

    matrix: ComplexMatrix
    k: int

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix)
        if self.matrix.shape != (self.k * self.k,) * 2:
            raise ShapeMismatch(
                f"Choi of a map on {self.k}x{self.k} matrices must be "
                f"{self.k ** 2}x{self.k ** 2}, got {self.matrix.shape}"
            )

    def apply(self, x) -> ComplexMatrix:
        m = as_matrix(x)
        if m.shape != (self.k, self.k):
            raise ShapeMismatch(f"expected a {self.k}x{self.k} input, got {m.shape}")
        blocks = to_blocks(self.matrix, self.k, self.k)
        return np.einsum("ij,ijrs->rs", m, blocks)

    def cp_check(self) -> tuple[float, bool]:
        """CP residual (the most negative eigenvalue's size, 0 when PSD), and
        whether it is within CHANNEL_TOL * (1 + ||Choi||_F); never when that
        scale or an eigenvalue is not finite."""
        vals = herm_eig(self.matrix)[0]
        res = float(max(0.0, -vals.min(initial=0.0)))
        scale = tol_scale(self.matrix)
        finite = np.isfinite(scale) and np.isfinite(vals).all()
        return res, bool(finite and res <= CHANNEL_TOL * scale)


@dataclass
class MixedUnitaryEnsemble:
    """Convex combination of unitary conjugations X -> sum_m p_m U_m X U_m*."""

    weights: np.ndarray
    unitaries: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.unitaries = np.asarray(self.unitaries, dtype=complex)
        if self.unitaries.ndim != 3 or self.unitaries.shape[1] != self.unitaries.shape[2]:
            raise ShapeMismatch(
                f"unitaries must be a stack of square matrices, got {self.unitaries.shape}"
            )
        if len(self.weights) != self.unitaries.shape[0]:
            raise ShapeMismatch("weight count does not match unitary count")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    def check(self):
        """Raise unless weights form a positive convex combination of unitaries."""
        _check_ensemble(self.weights, self.unitaries, "ensemble member {}")
        return self

    def apply(self, x) -> ComplexMatrix:
        ux = self.unitaries @ as_matrix(x)
        weighted = ux * self.weights[:, None, None]
        return np.tensordot(weighted, np.conj(self.unitaries), axes=([0, 2], [0, 2]))


@dataclass
class SchurSymbol:
    """Symbol of a Schur multiplier; a correlation matrix when check() passes.

    schur_apply applies a symbol.
    """

    c: ComplexMatrix

    def __post_init__(self):
        self.c = as_matrix(self.c)
        if self.c.shape[0] != self.c.shape[1]:
            raise ShapeMismatch(f"symbol must be square, got {self.c.shape}")

    def check(self):
        """Raise unless c is PSD with unit diagonal."""
        vals = herm_eig(self.c)[0]  # rejects non-Hermitian input
        if below_psd_floor(vals, self.c):
            raise NotCP(f"symbol has eigenvalue {vals.min():.3e}")
        off = np.abs(np.diagonal(self.c) - 1.0).max(initial=0.0)
        if not off <= DIAG_TOL:
            raise MufactError(f"diagonal deviates from 1 by {off:.3e}")
        return self


@dataclass
class ChannelReport:
    """Outcome of verify_channel: flags plus the residuals behind them."""

    dim: int
    cp: bool
    tp: bool
    unital: bool
    cp_residual: float
    tp_residual: float
    unital_residual: float


# ---------------------------------------------------------------------------
# basic operations


def schur_apply(c, x) -> ComplexMatrix:
    """Entrywise product of symbol and input."""
    a, m = as_matrix(c), as_matrix(x)
    if a.shape != m.shape:
        raise ShapeMismatch(f"symbol shape {a.shape} does not match input {m.shape}")
    return a * m


def weyl_unitaries(d: int) -> np.ndarray:
    """The d^2 Weyl unitaries S^a D^b, ordered lexicographically by (a, b).

    S is the cyclic shift e_j -> e_{j+1 mod d} and D = diag(w, w^2, ..., w^d)
    with w = exp(2*pi*i/d).
    """
    if d < 1:
        raise ShapeMismatch("dimension must be at least 1")
    w = np.exp(2j * np.pi / d)
    s = np.zeros((d, d), dtype=complex)
    for j in range(d):
        s[(j + 1) % d, j] = 1.0
    dmat = np.diag(w ** np.arange(1, d + 1))
    out = np.empty((d * d, d, d), dtype=complex)
    sa = np.eye(d, dtype=complex)
    for a in range(d):
        wab = sa.copy()
        for b in range(d):
            out[a * d + b] = wab
            wab = wab @ dmat
        sa = s @ sa
    return out


def weyl_sandwich(weights, unitaries, d: int, k: int) -> MixedUnitaryEnsemble:
    """The members (I_k (x) W_a) U_m (I_k (x) W_b) of weight p_m / d^4.

    U_m is a (M, dk, dk) stack and W_a, W_b run over the d^2 Weyl unitaries;
    members are ordered by (m, a, b). The two Weyl averages depolarise
    every d x d block. The result is checked.
    """
    lifted = np.stack([np.kron(np.eye(k), w) for w in weyl_unitaries(d)])
    members = (lifted @ unitaries[:, None])[:, :, None] @ lifted  # (m, a, b)
    out_w = np.repeat(weights / d ** 4, d ** 4)
    return MixedUnitaryEnsemble(out_w, members.reshape(len(out_w), d * k, d * k)).check()


def depolarizing_ensemble(d: int) -> MixedUnitaryEnsemble:
    """Uniform Weyl ensemble realising X -> tr_d(X) * I_d."""
    ws = weyl_unitaries(d)
    return MixedUnitaryEnsemble(np.full(d * d, 1.0 / (d * d)), ws).check()


def _as_apply(t, dim: int | None = None):
    """Normalise a channel-like object to (apply callable, input dimension)."""
    if isinstance(t, (KrausChannel, MixedUnitaryEnsemble)):
        return t.apply, t.dim
    if isinstance(t, ChoiMatrix):
        return t.apply, t.k
    if callable(t):
        if dim is None:
            raise ShapeMismatch("input dimension required for a bare callable")
        return t, dim
    raise TypeError(f"cannot interpret {type(t).__name__} as a channel")


def _gram_choi(weights, ops) -> ComplexMatrix:
    """Choi matrix of X -> sum_m w_m A_m X A_m* as one Gram product.

    Block (i, j) is sum_m w_m A_m[:, i] A_m[:, j]*, so with row m of W the
    columns of A_m laid end to end, the Choi matrix is (W^T * w) @ conj(W).
    """
    m, rows, cols = ops.shape
    w = ops.transpose(0, 2, 1).reshape(m, rows * cols)
    return (w.T * weights) @ np.conj(w)


def choi_of(t, dim: int | None = None) -> ChoiMatrix:
    """Choi matrix of a channel-like object.

    Ensembles and Kraus channels go through one Gram product; any other map
    is applied to every E_ij. A ChoiMatrix is returned as it is. Kraus
    operators must be square, as a ChoiMatrix maps k x k to k x k matrices.
    """
    if isinstance(t, ChoiMatrix):
        return t
    if isinstance(t, MixedUnitaryEnsemble):
        return ChoiMatrix(_gram_choi(t.weights, t.unitaries), t.dim)
    if isinstance(t, KrausChannel):
        if t.kraus.shape[1] != t.kraus.shape[2]:
            raise ShapeMismatch(f"a Choi matrix needs square operators, got {t.kraus.shape[1:]}")
        return ChoiMatrix(_gram_choi(np.ones(len(t.kraus)), t.kraus), t.dim)
    apply, k = _as_apply(t, dim)
    out = np.zeros((k * k, k * k), dtype=complex)
    blocks = to_blocks(out, k, k)  # a view: block writes land in out
    e = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            e[i, j] = 1.0
            blocks[i, j] = apply(e)
            e[i, j] = 0.0
    return ChoiMatrix(out, k)


def kraus_from_choi(choi: ChoiMatrix) -> KrausChannel:
    """Kraus operators from the spectral decomposition of a Choi matrix.

    Eigenvalues at or below KRAUS_CUTOFF are dropped. For the (i, r) composite
    index used here an eigenvector reshapes to a matrix whose transpose is
    the Kraus operator.
    """
    vals, vecs = herm_eig(choi.matrix)
    k = choi.k
    keep = vals > KRAUS_CUTOFF
    if not keep.any():
        return KrausChannel(np.zeros((1, k, k), dtype=complex))
    return KrausChannel((np.sqrt(vals[keep]) * vecs[:, keep]).reshape(k, k, -1).T.copy())


def verify_channel(t, dim: int | None = None) -> ChannelReport:
    """Check complete positivity, trace preservation and unitality.

    All three are read off the Choi matrix, so any channel-like input works.
    """
    choi = choi_of(t, dim)
    k = choi.k
    cp_res, cp_ok = choi.cp_check()
    blocks = to_blocks(choi.matrix, k, k)
    tp_res = frob(np.trace(blocks, axis1=2, axis2=3) - np.eye(k))
    unital_res = frob(np.trace(blocks, axis1=0, axis2=1) - np.eye(k))
    return ChannelReport(
        dim=k,
        cp=cp_ok,
        tp=tp_res <= CHANNEL_TOL,
        unital=unital_res <= CHANNEL_TOL,
        cp_residual=cp_res,
        tp_residual=tp_res,
        unital_residual=unital_res,
    )


# ---------------------------------------------------------------------------
# lifted maps on the composite space


def lift_schur(c, d: int, x) -> ComplexMatrix:
    """Action of the depolarising-tensor-Schur map on a composite matrix.

    Block (i, j) of the input is sent to c_ij * tr_d(X_ij) * I_d: the lift
    of the Schur multiplier of c.
    """
    a = as_matrix(c)
    return lift_channel(lambda m: schur_apply(a, m), d, x, a.shape[0])


def lift_channel(t, d: int, x, dim: int | None = None) -> ComplexMatrix:
    """Action of (depolarise the blocks) tensor (T on the grid)."""
    apply, k = _as_apply(t, dim)
    m = compress(x, d, k)
    return embed(apply(m), d)


def delta_apply(x, d: int, k: int) -> ComplexMatrix:
    """Blockwise depolarisation: each block X_ij becomes tr_d(X_ij) * I_d."""
    return embed(compress(x, d, k), d)


def delta_compress(phi, d: int, k: int) -> ChoiMatrix:
    """Choi matrix of a channel on the composite space compressed to the grid.

    T(B)_ij = tr_d( Phi(I_d (x) B)_ij ). For a mixed-unitary ensemble T is
    the Kraus sum over (m, r, s) of weight p_m / d whose operator holds
    entry (r, s) of every d x d block of U_m, so its Choi matrix is one Gram
    product. kraus_from_choi gives T in Kraus form, and
    weyl_sandwich(phi.weights, phi.unitaries, d, k) an ensemble realising
    the lifted map of T.
    """
    apply, n = _as_apply(phi, d * k)
    if n != d * k:
        raise ShapeMismatch(f"channel acts on dimension {n}, expected {d * k}")
    if isinstance(phi, MixedUnitaryEnsemble):
        if n == 0:
            raise ShapeMismatch("ensemble members must be non-empty")
        ops = to_blocks(phi.unitaries, d, k).transpose(0, 3, 4, 1, 2)  # (m, r, s, i, j)
        weights = np.repeat(phi.weights / d, d * d)
        return ChoiMatrix(_gram_choi(weights, ops.reshape(-1, k, k)), k)
    return choi_of(lambda b: compress(apply(embed(b, d)), d, k), k)


# ---------------------------------------------------------------------------
# diagonal biaverages


def d_biaverage(t, dim: int | None = None) -> ComplexMatrix:
    """Symbol of the two-sided diagonal-unitary average of a CP map.

    Averaging D* T(D . D') D'* over independent diagonal unitaries leaves a
    Schur multiplier with symbol b_ij = [T(E_ij)]_ij; this reads the symbol
    off the Choi matrix and raises NotCP if that matrix is not PSD.
    """
    choi = choi_of(t, dim)
    if not choi.cp_check()[1]:
        raise NotCP("Choi matrix has a negative eigenvalue beyond tolerance")
    i, j = np.ogrid[:choi.k, :choi.k]
    return to_blocks(choi.matrix, choi.k, choi.k)[i, j, i, j]  # entry (i, j) of block (i, j)


def biaverage_pm_oracle(t, dim: int | None = None) -> ComplexMatrix:
    """Diagonal biaverage computed literally from +-1 sign matrices.

    Enumerates all 2^k sign diagonals on each side, averages the conjugated
    action on every E_ij (read off the Choi matrix) over the 4^k sign pairs,
    checks the result is supported on E_ij alone and reads off the
    coefficient. Matching the
    continuous-average symbol exactly is the point: +-1 signs already have
    the second moments the torus average uses.
    """
    choi = choi_of(t, dim)
    k = choi.k
    if k > SIGN_ORACLE_MAX_K:
        raise DimensionTooLarge(f"sign enumeration capped at k={SIGN_ORACLE_MAX_K}, got k={k}")
    blocks = to_blocks(choi.matrix, k, k)
    n = 1 << k
    signs = 1.0 - 2.0 * (
        (np.arange(n)[:, None] >> np.arange(k)[None, :]) & 1
    )  # all 2^k sign vectors, one per row
    second = (signs.T @ signs) / n  # E[s_a s_b] over the enumeration
    b = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            y = blocks[i, j]
            avg = second[i][:, None] * y * second[j][None, :]
            b[i, j] = avg[i, j]
            avg[i, j] = 0.0
            if not np.abs(avg).max() <= SIGN_SUPPORT_TOL * (1.0 + np.abs(y).max()):
                raise MufactError("sign biaverage is not a Schur multiplier")
    return b
