"""Mixed-unitary factorisations of depolarise-tensor-Schur channels.

A tuple (U_1, ..., U_k) of d x d unitaries has Gram matrix
c_ij = tr_d(U_i* U_j); averages of such Grams are exactly the correlation
matrices whose lifted channel is mixed unitary. This module moves between
the two descriptions in both directions, repairs approximate factorisations
by dilating the compressed blocks, and searches for Gram-average
representations of a given correlation matrix.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    MufactError,
    NotAFactorisation,
    NotBlockDiagonal,
    NotUnitary,
    NormTooLarge,
    ShapeMismatch,
)
from .linalg import (
    _check_counts,
    _check_tols,
    _first_block,
    as_matrix,
    frob,
    random_haar_unitaries,
    require_finite,
    rng_from_seed,
    unitarity_defects,
)
from .channels import (
    MixedUnitaryEnsemble,
    _check_ensemble,
    _gram_choi,
    d_biaverage,
    delta_compress,
    to_blocks,
    weyl_sandwich,
)
from .norms import NormEstimate, schur_cb_norm

GRAM_RECOMPUTE_TOL = 1e-12
# norm slack of halmos_dilate's input, and unitarity test of its output
DILATION_TOL = 1e-9
# largest entry gap between correction_pipeline's two routes to c_tilde
BIAVERAGE_CROSSCHECK_TOL = 1e-9
# recent dist_upper_bound results kept: one target's walk from d = 1 to 128
DIST_MEMO_SIZE = 8
# relative misfit decrease at or below which _gn_polish stops: MINPACK's
# default ftol, sqrt of the float64 machine epsilon; and its iteration cap
_GN_FTOL = float(np.sqrt(np.finfo(float).eps))
_GN_ITERS = 60


# ---------------------------------------------------------------------------
# tuples and their Gram matrices


@dataclass
class UnitaryTupleEnsemble:
    """Weighted collection of unitary tuples, stored as a (M, k, d, d) stack."""

    weights: np.ndarray
    tuples: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.tuples = _tuple_stack(self.tuples, "Mkdd")
        if len(self.weights) != self.tuples.shape[0]:
            raise ShapeMismatch("weight count does not match tuple count")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def k(self) -> int:
        return self.tuples.shape[1]

    @property
    def d(self) -> int:
        return self.tuples.shape[2]

    def check(self):
        _check_ensemble(self.weights, self.tuples, "tuple {} entry {}")
        return self

    def gram_average(self) -> np.ndarray:
        return np.einsum("m,mij->ij", self.weights, _grams(self.tuples))


def _tuple_stack(a, axes: str) -> np.ndarray:
    """a as a complex stack with one axis per letter of axes, the last two
    d x d with d >= 1, else ShapeMismatch.

    k = 0 and M = 0 are allowed; d = 0 is not, since every Gram entry would
    then be 0/0.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != len(axes) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ShapeMismatch(f"expected a ({', '.join(axes)}) stack with d >= 1, got {a.shape}")
    return a


def _grams(stack: np.ndarray) -> np.ndarray:
    """Gram matrices tr_d(U_i* U_j) of a (..., k, d, d) stack of tuples."""
    return np.einsum("...iab,...jab->...ij", np.conj(stack), stack) / stack.shape[-1]


def gram_matrix(t) -> np.ndarray:
    """Gram matrix c_ij = tr_d(U_i* U_j) of a (k, d, d) stack of matrices."""
    return _grams(_tuple_stack(t, "kdd"))


def random_tuple_ensemble(k: int, d: int, atoms: int, rng) -> UnitaryTupleEnsemble:
    """Seeded ensemble of Haar tuples with Dirichlet weights."""
    _check_counts(k=k, d=d, atoms=atoms)
    weights = rng.dirichlet(np.ones(atoms))
    return UnitaryTupleEnsemble(weights, random_haar_unitaries((atoms, k), d, rng)).check()


# ---------------------------------------------------------------------------
# certificates


@dataclass
class GramCertificate:
    """A tuple ensemble together with the correlation matrix it achieves."""

    ensemble: UnitaryTupleEnsemble
    achieved: np.ndarray
    target: np.ndarray
    residual_fro: float
    residual_max: float

    @classmethod
    def build(cls, ensemble: UnitaryTupleEnsemble, target) -> "GramCertificate":
        tgt = as_matrix(target)
        achieved = ensemble.gram_average()
        diff = tgt - achieved
        return cls(
            ensemble=ensemble,
            achieved=achieved,
            target=tgt,
            residual_fro=frob(diff),
            residual_max=float(np.abs(diff).max(initial=0.0)),
        )

    def check(self, tol: float = GRAM_RECOMPUTE_TOL):
        """Re-derive everything from the ensemble and compare with the stored copy."""
        _check_tols(tol=tol)
        self.ensemble.check()
        fresh = self.ensemble.gram_average()
        drift = np.abs(fresh - self.achieved).max(initial=0.0)
        # written as not (x <= tol), so a NaN anywhere fails the check
        if not drift <= tol:
            raise MufactError(f"stored Gram average off by {drift:.3e} on recompute")
        diff = self.target - self.achieved
        if not (
            abs(frob(diff) - self.residual_fro) <= tol
            and abs(float(np.abs(diff).max(initial=0.0)) - self.residual_max) <= tol
        ):
            raise MufactError("stored residuals do not match the stored matrices")
        return self


def verify_certificate(cert: GramCertificate, tol: float = GRAM_RECOMPUTE_TOL):
    """Validate a certificate's internal consistency; raises on failure, and
    MufactError first on a tol that is not finite and >= 0."""
    return cert.check(tol)


# ---------------------------------------------------------------------------
# exact constructions in both directions


def mu_ensemble_from_tuples(ensemble: UnitaryTupleEnsemble) -> MixedUnitaryEnsemble:
    """Mixed-unitary ensemble realising the lifted channel of the Gram average.

    Each tuple member contributes d^4 block-diagonal unitaries: the block
    diagonal of its adjoint entries sandwiched between all pairs of Weyl
    unitaries (weyl_sandwich), with weight p_m / d^4. The two Weyl averages
    depolarise the blocks, leaving block (i, j) of the input multiplied by
    c_ij = tr_d(U_i* U_j).
    """
    ensemble.check()
    k, d = ensemble.k, ensemble.d
    adj = np.zeros((ensemble.size, d * k, d * k), dtype=complex)
    to_blocks(adj, d, k)[:, range(k), range(k)] = np.conj(ensemble.tuples.swapaxes(-1, -2))
    return weyl_sandwich(ensemble.weights, adj, d, k)


def tuples_from_ensemble(
    ensemble: MixedUnitaryEnsemble, c, d: int, k: int, tol: float = 1e-9
) -> UnitaryTupleEnsemble:
    """Recover unitary tuples from an ensemble realising the lifted channel of c.

    Demands every member be block diagonal (NotBlockDiagonal) with unitary
    diagonal blocks V_i (NotUnitary), then checks the action on those blocks
    (NotAFactorisation): X -> sum_m p_m V_i X V_j* must be c_ij tr_d(X) I_d.
    With row m of W the blocks of member m laid end to end, that is the
    Gram product (W^T * p) @ conj(W) equalling kron(c / d, I_{d^2}). The
    extracted tuples store the adjoints of the blocks, so their Gram average
    reproduces c. A tol that is not finite and >= 0 raises MufactError
    first; a NaN or infinite entry of c, or a Frobenius norm that
    overflows, once the ensemble has passed its checks.
    """
    _check_tols(tol=tol)
    ensemble.check()
    target = as_matrix(c)
    if target.shape != (k, k):
        raise ShapeMismatch(f"expected a {k}x{k} correlation matrix, got {target.shape}")
    if ensemble.dim != d * k:
        raise ShapeMismatch(
            f"ensemble acts on dimension {ensemble.dim}, expected {d * k}"
        )
    blocks = to_blocks(ensemble.unitaries, d, k)
    off = blocks.copy()
    off[:, range(k), range(k)] = 0.0
    worst_off = np.abs(off).max(initial=0.0)
    if not worst_off <= tol:
        raise NotBlockDiagonal(f"off-diagonal block of size {worst_off:.3e}")
    diag = blocks[:, range(k), range(k)]  # (size, k, d, d)
    bad = _first_block(~(unitarity_defects(diag) <= tol))
    if bad is not None:
        raise NotUnitary(f"diagonal block {bad} is not unitary")
    require_finite(target, "target")
    # entry ((i, r, a), (j, s, b)) is sum_m p_m V_i[r, a] conj(V_j[s, b])
    got = _gram_choi(ensemble.weights, diag.reshape(ensemble.size, k * d, d).swapaxes(1, 2))
    worst = np.abs(got - np.kron(target / d, np.eye(d * d))).max(initial=0.0)
    if not worst <= tol:
        raise NotAFactorisation(
            f"ensemble action deviates from the lifted channel by {worst:.3e}"
        )
    tuples = np.conj(diag.transpose(0, 1, 3, 2))
    return UnitaryTupleEnsemble(ensemble.weights.copy(), tuples)


# ---------------------------------------------------------------------------
# Halmos dilation and the correction pipeline


def halmos_dilate(x) -> np.ndarray:
    """Unitary 2d x 2d dilation of a contraction with both diagonal corners X.

    W = [[X, CU], [-UD, X]] with C = sqrt(I - XX*), D = sqrt(I - X*X) and U
    the unitary polar factor of X. Both off-diagonal corners collapse to
    the single matrix P diag(sqrt(1 - s^2)) Q* of an SVD X = P diag(s) Q*,
    which is how they are computed: taking C and D from separate square
    roots would break their intertwining relation at the sqrt(eps) level
    for nearly unitary X. Inputs with operator norm in (1, 1 + DILATION_TOL]
    are rescaled to contractions; larger norms raise NormTooLarge, and NaN
    or infinite entries, or a Frobenius norm that overflows, MufactError.

    X may also be a (..., d, d) stack; every block is dilated on its own,
    exactly as if passed alone, into a (..., 2d, 2d) stack. Errors name the
    first offending block in index order.
    """
    m = np.asarray(x, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeMismatch(f"dilation needs square matrices, got shape {m.shape}")
    require_finite(m, "dilation input")
    d = m.shape[-1]
    p, s, qh = np.linalg.svd(m)
    nrm = s.max(axis=-1, initial=0.0)
    at = _first_block(~(nrm <= 1.0 + DILATION_TOL))
    if at is not None:
        where = f"block {at} " if at else ""
        raise NormTooLarge(
            f"{where}operator norm {float(nrm[at])!r} exceeds 1 beyond tolerance"
        )
    # dividing by 1.0 leaves the blocks of norm at most 1 unchanged bit for bit
    scale = np.where(nrm > 1.0, nrm, 1.0)[..., None]
    m = m / scale[..., None]
    s = s / scale
    defect = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    b = (p * defect[..., None, :]) @ qh
    w = np.empty(m.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    w[..., :d, :d] = w[..., d:, d:] = m
    w[..., :d, d:] = b
    w[..., d:, :d] = -b
    at = _first_block(~(unitarity_defects(w) <= DILATION_TOL))
    if at is not None:
        where = f" at block {at}" if at else ""
        raise MufactError(f"dilation failed to produce a unitary{where}")
    return w


@dataclass
class CorrectionReport:
    """Outcome of the correction pipeline on an approximate factorisation."""

    c_tilde: np.ndarray
    certificate: GramCertificate
    max_abs_delta: float
    epsilon_in: float
    bound_ok: bool


def correction_pipeline(
    c, phi: MixedUnitaryEnsemble, epsilon: float, d: int
) -> CorrectionReport:
    """Repair an approximate mixed-unitary factorisation of a lifted channel.

    The diagonal d x d blocks of each ensemble member are what survives the
    two-sided diagonal average of the compressed map; their weighted Gram
    matrix c_tilde is computed twice (directly, and through compression plus
    biaverage) and cross-checked. Dilating each block to a 2d x 2d unitary
    yields an exact factorisation at dimension 2d whose Gram average c_hat
    (certificate.achieved) deviates from c by less than 2*epsilon whenever
    phi was epsilon-close to exact (bound_ok records whether that happened).

    c_hat depends on each dilated tuple only through its Gram matrix, so
    the certificate holds one atom per distinct Gram matrix (within
    GRAM_RECOMPUTE_TOL in Frobenius norm), carrying the pooled weight of
    its members, heaviest first. A mu ensemble's d^4 Weyl-sandwiched copies
    of a tuple share one Gram matrix, and so do their dilations. An epsilon
    that is not finite and >= 0 raises MufactError first; a NaN or
    infinite entry of c, or a Frobenius norm that overflows, once the
    shapes and phi have passed their checks.
    """
    _check_tols(epsilon=epsilon)
    target = as_matrix(c)
    k = target.shape[0]
    if target.shape != (k, k) or phi.dim != d * k:
        raise ShapeMismatch(
            f"ensemble dimension {phi.dim} does not match d={d} and k={k}"
        )
    phi.check()
    require_finite(target, "target")
    blocks = to_blocks(phi.unitaries, d, k)
    diag = blocks[:, range(k), range(k)]  # (M, k, d, d)

    c_tilde = np.einsum("m,mij->ij", phi.weights, _grams(np.conj(diag)))
    via_choi = d_biaverage(delta_compress(phi, d, k))
    if not np.abs(c_tilde - via_choi).max() <= BIAVERAGE_CROSSCHECK_TOL:
        raise MufactError("compressed-map biaverage disagrees with block Grams")

    dil = np.ascontiguousarray(np.conj(np.swapaxes(halmos_dilate(diag), -1, -2)))
    weights, reps = _merge_atoms(phi.weights, dil, _grams(dil), GRAM_RECOMPUTE_TOL)
    cert = GramCertificate.build(UnitaryTupleEnsemble(weights, reps), target)
    return CorrectionReport(
        c_tilde=c_tilde,
        certificate=cert,
        max_abs_delta=cert.residual_max,
        epsilon_in=float(epsilon),
        bound_ok=bool(cert.residual_max < 2.0 * epsilon),
    )


# ---------------------------------------------------------------------------
# membership search


def _weight_update(p, grams, target):
    """Exact minimisation of the Gram-average misfit over the weight simplex.

    The misfit of weights w is w Q w with Q_mn = Re<G_m - T, G_n - T>, the
    squared distance from the origin to a point of the polytope spanned by
    the G_m - T. Wolfe's nearest-point algorithm finds the minimum, starting
    at the vertex with the smallest Q_mm: a major step adds the atom with
    the smallest (Q w)_m, and minor steps solve the affine KKT system on the
    support, stepping back to the boundary and dropping an atom whenever the
    affine minimiser leaves the simplex. The small solves use lstsq, since Q
    is singular once atoms outnumber the dimension of the Gram matrices. It
    stops when the Frank-Wolfe gap is at most 1e-15 max Q_mm or a step no
    longer lowers the misfit; p comes back unchanged unless the new misfit
    is strictly lower.
    """
    diff = grams - target
    q = np.real(np.einsum("mij,nij->mn", np.conj(diff), diff))
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
            # move towards alpha until the first weight reaches zero, drop it
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


def _atom_sweep(p, atoms, grams, resid):
    """One Gauss-Seidel pass of per-atom, per-index unitary updates.

    For entry i of atom m the misfit is, up to a constant, the squared row
    2 * sum_j |p_m tr_d(U* V_j) + r_j|^2 with r_j the residual excluding
    this atom. Its linear part is minimised by U = -P Q*, minus the unitary
    polar factor of Z = P S Q* = sum_{j != i} conj(r_j) V_j. Candidates are
    kept only if the exact misfit drops; a Z of norm 0, inf or nan is skipped.
    """
    m_cnt, k, d = atoms.shape[0], atoms.shape[1], atoms.shape[2]
    for m in range(m_cnt):
        pm = p[m]
        if pm <= 0.0:
            continue
        flat, gm = atoms[m].reshape(k, d * d), grams[m]
        for i in range(k):
            old_r = resid[i]
            r = old_r - pm * gm[i]
            rr = np.conj(r)
            rr[i] = 0.0
            z = (rr @ flat).reshape(d, d)
            if not 1e-300 <= frob(z) < np.inf:
                continue
            if d == 1:
                cand = -z / abs(z[0, 0])
            else:
                pz, _, qz = np.linalg.svd(z)
                cand = -(pz @ qz)
            row = (flat @ np.conj(cand).ravel()) / d
            row[i] = 1.0  # tr_d(cand* cand), exact by unitarity
            new_r = r + pm * row
            delta = np.abs(new_r) ** 2 - np.abs(old_r) ** 2
            delta[i] = 0.0
            if delta.sum() < 0.0:  # the misfit changes by 2 * delta.sum()
                atoms[m, i] = cand
                flat[i] = cand.ravel()  # flat is a copy if atoms[m] is not contiguous
                gm[i] = row
                gm[:, i] = np.conj(row)
                resid[i] = new_r
                resid[:, i] = np.conj(new_r)
    return atoms, grams, resid


@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthogonal real basis of d x d Hermitian matrices, shape (d*d, d, d),
    read-only."""
    out = np.zeros((d * d, d, d), dtype=complex)
    n = 0
    for a in range(d):
        out[n, a, a] = 1.0
        n += 1
    for a in range(d):
        for b in range(a + 1, d):
            out[n, a, b] = out[n, b, a] = 1.0
            n += 1
            out[n, a, b] = 1.0j
            out[n, b, a] = -1.0j
            n += 1
    out.flags.writeable = False  # every caller shares the cached array
    return out


def _jacobian_map(m_cnt: int, k: int, d: int) -> np.ndarray:
    """Float indices that gather [J | r] for _gn_polish.

    They index the float view of the complex source that _gn_system fills:
    [grams - achieved | resid | dg | conj(dg) | 0], each block C-ordered,
    with grams (m_cnt, k, k) and dg (m_cnt, k, d*d, k). Rows (i, j), i < j,
    take real parts in the first half and imaginary parts in the second.
    Column m is (grams - achieved)[m, i, j]. Column (m, e, x) is
    dg[m, i, x, j] if e = i, conj(dg[m, j, x, i]) if e = j, and the trailing
    0 otherwise. The last column is resid[i, j]. m_cnt, k and d are fixed
    within one polish, which builds the map once and drops it on return.
    """
    nb = d * d
    # the pairs i < j in row-major order, as np.triu_indices(k, 1), in a
    # seventh of its time
    iu, ju = np.nonzero(np.arange(k)[:, None] < np.arange(k))
    rows = np.arange(len(iu))
    m = np.arange(m_cnt)[:, None]
    x = np.arange(nb)
    n_w, n_dg = (m_cnt + 1) * k * k, m_cnt * k * nb * k
    rot = np.full((len(iu), m_cnt, k, nb), n_w + 2 * n_dg)
    rot[rows, :, iu] = n_w + ((m * k + iu[:, None, None]) * nb + x) * k + ju[:, None, None]
    rot[rows, :, ju] = n_w + n_dg + ((m * k + ju[:, None, None]) * nb + x) * k + iu[:, None, None]
    pair = (iu * k + ju)[:, None]
    cols = np.concatenate(
        [m.T * k * k + pair, rot.reshape(len(iu), m_cnt * k * nb), m_cnt * k * k + pair], axis=1
    )
    return np.concatenate([2 * cols, 2 * cols + 1])


def _pair_products(atoms) -> np.ndarray:
    """U_j U_i* for each pair of entries of each atom, at row (m, i, j) of a
    (M k k, d^2) array."""
    m_cnt, k, d = atoms.shape[0], atoms.shape[1], atoms.shape[2]
    flat = atoms.reshape(m_cnt, k * d, d)
    uu = (flat @ np.conj(flat.swapaxes(1, 2))).reshape(m_cnt, k, d, k, d)
    return uu.transpose(0, 3, 1, 2, 4).reshape(-1, d * d)


def _gn_system(p, grams, achieved, resid, pairs, d: int, idx):
    """The Jacobian J and residual vector r of one _gn_polish iteration.

    d gram_ij / d theta_x at entry i of atom m is dg[m, i, x, j] =
    -i p_m tr(U_i* B_x U_j)/d, the trace read off the _pair_products as
    sum_bc B_x[b, c] (U_j U_i*)[c, b]; row (i, j) depends on entry i through
    dg[m, i, :, j] and on entry j through conj(dg[m, j, :, i]). At d = 1, B
    is the 1 x 1 identity and the trace is the Gram entry conj(u_i) u_j
    itself, so pairs is not read. Columns are the weights of all atoms,
    then the rotations (m, i, x); rows are the real, then the imaginary
    parts of the entries above the diagonal. Both come from one gather
    through idx, the _jacobian_map of this shape.
    """
    m_cnt, k = grams.shape[0], grams.shape[1]
    n_w = (m_cnt + 1) * k * k
    src = np.zeros(n_w + 2 * m_cnt * k * d * d * k + 1, dtype=complex)
    w = src[:n_w].reshape(m_cnt + 1, k, k)
    np.subtract(grams, achieved, out=w[:m_cnt])
    w[m_cnt] = resid
    if d == 1:
        tr = grams[:, :, None, :]
    else:
        cols = _hermitian_basis(d).transpose(2, 1, 0).reshape(d * d, -1)
        tr = (pairs @ cols).reshape(m_cnt, k, k, -1).transpose(0, 1, 3, 2)
    dg = src[n_w:-1].reshape(2, m_cnt, k, d * d, k)
    np.divide(-1j * p[:, None, None, None] * tr, d, out=dg[0])
    np.conjugate(dg[0], out=dg[1])
    jr = src.view(float)[idx]
    return jr[:, :-1], jr[:, -1]


@functools.cache
def _basis_pairs(d: int) -> np.ndarray:
    """P with K.view(float) @ P = Re tr(B_x B_y K) at column (x, y), for a
    flattened d x d K and the _hermitian_basis B; read-only."""
    basis = _hermitian_basis(d)
    pair = np.einsum("xab,ybc->caxy", basis, basis).reshape(d * d, -1)
    out = np.stack([pair.real, -pair.imag], axis=1).reshape(2 * d * d, -1)
    out.flags.writeable = False  # every caller shares the cached array
    return out


def _hessian_blocks(p, pairs, resid, jac, rvec, d: int) -> np.ndarray:
    """Per-atom blocks of S = sum_a r_a grad^2 r_a, the Hessian term that
    Gauss-Newton drops, at 0, for the misfit the damping tries evaluate:
    f(exp(iH) U, (p + delta) / sum(p + delta)), atoms of weight 0 held still.

    Block m holds atom m's weight shift, then its rotations (i, x) as in J.
    With rc = conj(r) off the diagonal (r is Hermitian for a Hermitian
    target) and K_ij = rc_ij U_j U_i* (pairs: _pair_products, or the Grams
    at d = 1), entries i != j couple through p_m Re tr(B_x B_y K_ij) / d, and
    entry i with itself through -p_m Re tr({B_x, B_y}/2 sum_j K_ij) / d. The
    renormalisation couples weight m to its rotations through (J^T r) / p_m
    (0 at weight 0), and adds the rank-2 term -(e g^T + g e^T) outside the
    blocks, with g = J^T r and e the weights' indicator.
    """
    m_cnt, k = len(p), len(resid)
    nb = d * d
    rc = np.conj(resid)
    rc.flat[:: k + 1] = 0.0
    kk = (pairs.reshape(m_cnt, k, k, nb) * rc[:, :, None]).reshape(-1, nb)
    rot = (kk.view(float) @ _basis_pairs(d)).reshape(m_cnt, k, k, nb, nb)
    within = rot.sum(axis=2)
    diag = np.arange(k)
    rot[:, diag, diag] = -0.5 * (within + within.swapaxes(-1, -2))
    out = np.zeros((m_cnt, 1 + k * nb, 1 + k * nb))
    np.multiply(
        rot.transpose(0, 1, 3, 2, 4),
        (p / d)[:, None, None, None, None],
        out=out[:, 1:, 1:].reshape(m_cnt, k, nb, k, nb),
    )
    grad = (jac[:, m_cnt:].T @ rvec).reshape(m_cnt, -1)
    out[:, 0, 1:] = out[:, 1:, 0] = np.divide(
        grad, p[:, None], out=np.zeros_like(grad), where=p[:, None] > 0.0
    )
    return out


def _newton_step(jac, rvec, hess):
    """The step on J^T J + S as a function of the damping lam.

    s solves (J^T J + S + lam I) s = -J^T r, with S = Hb - e g^T - g e^T
    for the blocks Hb of _hessian_blocks and e the weights whose column of
    J is not zeroed by a pin. With V = [J^T | e] and C = [[I, -r],
    [-r^T, 0]] that is (Hb + lam I + V C V^T) s = -V (r, 0), so by the
    push-through form of Woodbury's identity
    s = -(Hb + lam I)^-1 V (I + C V^T (Hb + lam I)^-1 V)^-1 (r, 0): one
    solve of the per-atom blocks, then one of side k(k-1) + 1. No array of
    side M(1 + k d^2) is formed.
    """
    m_cnt, side, rows = hess.shape[0], hess.shape[1], len(rvec)
    cnt = rows + 1
    # V laid out by atom as the blocks: weight m, then its rotations
    vcols = np.zeros((m_cnt, side, cnt))
    vcols[:, 0, :rows] = jac[:, :m_cnt].T
    vcols[:, 0, rows] = jac[:, :m_cnt].any(axis=0)
    vcols[:, 1:, :rows] = jac[:, m_cnt:].T.reshape(m_cnt, side - 1, rows)
    flat = vcols.reshape(-1, cnt)
    cmat = np.eye(cnt)
    cmat[:rows, rows] = cmat[rows, :rows] = -rvec
    cmat[rows, rows] = 0.0
    c_vt = cmat @ flat.T
    eye_b, eye_c, neg_rt = np.eye(side), np.eye(cnt), np.append(-rvec, 0.0)

    def step_at(lam):
        x = np.linalg.solve(hess + lam * eye_b, vcols).reshape(-1, cnt)
        s = (x @ np.linalg.solve(eye_c + c_vt @ x, neg_rt)).reshape(m_cnt, side)
        return np.concatenate([s[:, 0], s[:, 1:].ravel()])

    return step_at


def _prefers_newton(p, pairs, resid, jac, rvec, hess, taken, drop, d: int) -> bool:
    """Whether the next iteration of _gn_polish steps on J^T J + S.

    drop is the actual decrease of |r|^2 by the accepted step s (taken).
    Gauss-Newton predicted -2 r.Js - |Js|^2, missing by miss, and J^T J + S
    predicted s^T S s less, missing by miss + s^T S s. After a step on
    J^T J + S (hess its blocks), the nearer prediction wins, a tie going to
    Gauss-Newton: NL2SOL's test. After a Gauss-Newton step (hess None),
    J^T J + S must also show a large residual at work: both the miss and
    s^T S s must exceed |Js|^2. The miss is tested first, so S is built
    only when the test can pass.
    """
    m_cnt = len(p)
    js = jac @ taken
    r_js, quad = rvec @ js, js @ js
    miss = drop + 2.0 * r_js + quad
    after_gauss_newton = hess is None
    if after_gauss_newton:
        if not abs(miss) > quad:
            return False
        hess = _hessian_blocks(p, pairs, resid, jac, rvec, d)
    # s^T S s: the blocks, less the rank-2 term 2 (e.s)(g.s) with g.s = r.Js
    blocks = np.concatenate([taken[:m_cnt, None], taken[m_cnt:].reshape(m_cnt, -1)], axis=1)
    curv = np.vdot(blocks, hess @ blocks[..., None]) - 2.0 * taken[:m_cnt].sum() * r_js
    if after_gauss_newton and not abs(curv) > quad:
        return False
    return abs(miss + curv) < abs(miss)


def _gn_polish(p, atoms, target, d: int, tol: float):
    """Damped Gauss-Newton refinement around an alternating-descent iterate.

    Parameters are tangent rotations exp(iH) per tuple entry plus additive
    weight shifts renormalised on the simplex; the Jacobian is analytic and
    the step is rebased after every accepted move. Accept/reject on the
    exact misfit keeps the objective non-increasing. Near a zero-residual
    configuration this converges quadratically where the coordinate scheme
    crawls along the flat directions of the Gram parametrisation.

    Each iteration steps on one of two models of the misfit (Dennis, Gay
    and Welsch, NL2SOL, ACM TOMS 7, 1981; Nocedal and Wright, Numerical
    Optimization, 2nd ed., section 10.3). Gauss-Newton takes J^T J for the
    Hessian: each damping try solves (J J^T + lam I) v = r, with J J^T the
    k(k-1)-square row Gram of the Jacobian J, by one LU factorisation, and
    steps by s = -J^T v, the minimiser of |J s + r|^2 + lam |s|^2. The
    second model adds the term S = sum_a r_a grad^2 r_a that Gauss-Newton
    drops, which is large where the residual stays large, as for a target
    outside the set; there Gauss-Newton crawls. S is block diagonal over
    atoms but for a rank-2 weight term, so each of its tries solves the
    per-atom blocks and a Woodbury system of side k(k-1) + 1
    (_newton_step). Every polish starts on Gauss-Newton, and
    _prefers_newton picks each later iteration's model from the last
    accepted step; a zero-residual polish stays on Gauss-Newton.

    A zero weight that the Gauss-Newton step at the iteration's first lam
    would push negative is held at its bound for that iteration (a
    projected, active-set step; Kanzow, Yamashita and Fukushima, J. Comput.
    Appl. Math. 172, 2004): its column of J is zeroed and the step formed
    again, so every damping try keeps it at exactly 0. A zero weight whose
    step points inward keeps its column and can revive. The pin test runs
    only in an iteration that starts with a weight at 0; on Gauss-Newton,
    when it pins nothing, its solve is the first try's. While every weight
    is live, every atom turns. The polish ends after _GN_ITERS iterations,
    when no damping try lowers the misfit f, when f <= 0.01 tol^2, or once
    an accepted step lowers f by at most sqrt(eps) f (MINPACK's default
    ftol); that step is kept.
    """
    m_cnt, k = atoms.shape[0], atoms.shape[1]
    nb = d * d
    basis = _hermitian_basis(d)
    eye = np.eye(k * (k - 1))
    idx = _jacobian_map(m_cnt, k, d)

    grams = _grams(atoms)
    achieved = np.einsum("m,mij->ij", p, grams)
    resid = achieved - target
    f = float(np.vdot(resid, resid).real)
    lam = 1e-4
    newton, last = False, None
    for _ in range(_GN_ITERS):
        if f <= 0.01 * tol * tol:
            break
        if last is not None:
            newton = _prefers_newton(*last, d)
        live = p > 0.0
        all_live = live.all()
        pairs = grams.reshape(-1, 1) if d == 1 else _pair_products(atoms)
        jac, rvec = _gn_system(p, grams, achieved, resid, pairs, d, idx)
        # the Gauss-Newton solve at lam decides the pins on either model
        if not newton or not all_live:
            gram = jac @ jac.T
            v = np.linalg.solve(gram + lam * eye, rvec)
        if not all_live:
            pin = ~live & (jac[:, :m_cnt].T @ v >= 0.0)
            if pin.any():
                jac[:, :m_cnt][:, pin] = 0.0
                if not newton:
                    gram = jac @ jac.T
                    v = np.linalg.solve(gram + lam * eye, rvec)
        hess = None
        if newton:
            hess = _hessian_blocks(p, pairs, resid, jac, rvec, d)
            step_at = _newton_step(jac, rvec, hess)
            step = step_at(lam)
        else:
            neg_jt = -jac.T
            step = neg_jt @ v
            step_at = lambda lam: neg_jt @ np.linalg.solve(gram + lam * eye, rvec)
        f_in = f
        for n_try in range(8):
            if n_try:
                step = step_at(lam)
            raw = np.maximum(p + step[:m_cnt], 0.0)
            s = raw.sum()
            if s > 0.0:
                q = raw / s
                if d == 1:
                    new_atoms = np.exp(1j * step[m_cnt:]).reshape(m_cnt, k, 1, 1) * atoms
                else:
                    h = step[m_cnt:].reshape(-1, nb) @ basis.reshape(nb, nb)
                    vals, vecs = np.linalg.eigh(h.reshape(m_cnt, k, d, d))
                    expo = vecs * np.exp(1j * vals)[..., None, :]
                    new_atoms = expo @ np.conj(np.swapaxes(vecs, -1, -2)) @ atoms
                if not all_live:
                    new_atoms = np.where(live[:, None, None, None], new_atoms, atoms)
                new_grams = _grams(new_atoms)
                new_ach = np.einsum("m,mij->ij", q, new_grams)
                new_resid = new_ach - target
                new_f = float(np.vdot(new_resid, new_resid).real)
                if new_f < f:
                    # the step as taken, its clip included, and the decrease
                    # of |r|^2 (half that of f), for the next model choice
                    step[:m_cnt] = raw - p
                    last = (p, pairs, resid, jac, rvec, hess, step, 0.5 * (f - new_f))
                    p, atoms, grams = q, new_atoms, new_grams
                    achieved, resid, f = new_ach, new_resid, new_f
                    lam = max(lam / 3.0, 1e-12)
                    break
            lam *= 10.0
        # no try accepted (f == f_in), or the accepted step crawled
        if not f_in - f > _GN_FTOL * f_in:
            break
    return f, p, atoms


def _merge_atoms(p, atoms, grams, thresh: float):
    """Pool atoms whose Gram matrices are within thresh in Frobenius norm.

    Gram matrices are invariant under the per-atom gauge freedoms, so
    nearby Grams mean interchangeable atoms; weights are pooled onto the
    heaviest member of each cluster. Zero-weight atoms are dropped.

    The loop runs over clusters, not atoms: each pass makes the heaviest
    unassigned atom a representative, and one vectorised distance claims
    every unassigned atom within thresh of it. A cluster's weight is summed
    in descending-weight order, so it equals adding the members one by one
    in that order. Representatives come out heaviest first.
    """
    order = np.argsort(p)[::-1]
    order = order[p[order] > 0.0]
    left = grams[order]
    rep_idx: list[int] = []
    weights: list[float] = []
    while len(order):
        near = np.linalg.norm(left - left[0], axis=(-2, -1)) <= thresh
        near[0] = True  # the representative itself, even if its Gram is not finite
        rep_idx.append(order[0])
        weights.append(np.cumsum(p[order[near]])[-1])
        order, left = order[~near], left[~near]
    return np.array(weights), atoms[rep_idx].copy()


def _solve_single(target, d: int, m_cnt: int, max_iters: int, tol: float, rng):
    atoms = random_haar_unitaries((m_cnt, target.shape[0]), d, rng)
    p = np.full(m_cnt, 1.0 / m_cnt)
    grams = _grams(atoms)
    resid = np.einsum("m,mij->ij", p, grams) - target
    f = float(np.vdot(resid, resid).real)
    for _ in range(max_iters):
        f_prev = f
        p, _ = _weight_update(p, grams, target)
        resid = np.einsum("m,mij->ij", p, grams) - target
        atoms, grams, resid = _atom_sweep(p, atoms, grams, resid)
        resid = np.einsum("m,mij->ij", p, grams) - target  # guard against drift
        f = float(np.vdot(resid, resid).real)
        if f <= tol * tol:
            return f, p, atoms
        stalled = f_prev - f < max(tol * tol, 1e-3 * f)
        # escape: pool atoms of equal Gram, polish, keep only a lower misfit
        q, reps = _merge_atoms(p, atoms, grams, 0.0)
        escape = _gn_polish(q / q.sum(), reps, target, d, tol)
        if escape[0] < f:
            f, p, atoms = escape
        if f <= tol * tol or stalled:
            return f, p, atoms
        grams = _grams(atoms)
    return f, p, atoms


def membership_solve(
    c,
    d: int,
    atoms: int | None = None,
    restarts: int = 20,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> GramCertificate:
    """Search for a tuple ensemble whose Gram average matches c.

    Each iteration, from `restarts` independent seeded starts, takes an
    exact weight step on the simplex (Wolfe's nearest-point algorithm,
    started cold at the best single atom), one sweep of per-atom polar
    updates, and an escape: atoms of equal Gram matrix are pooled, those of
    zero weight dropped, and the rest Gauss-Newton-polished, kept only if
    that lowers the misfit. A restart ends when it reaches tol, after the
    escape of a stalled iteration (one whose sweep lowered the misfit by
    less than max(tol^2, 1e-3 misfit)), or after max_iters iterations.
    Restarts run in index order and the search stops at the first one whose
    Frobenius residual reaches tol; if none does, the best misfit wins with
    ties broken by the lowest index. Restart r draws from its own stream
    rng_from_seed(seed, (r,)), so its run does not depend on the others. A
    tol that is not finite and >= 0, a NaN or infinite entry of c, or a
    Frobenius norm that overflows raises MufactError.
    """
    _check_counts(d=d, atoms=1 if atoms is None else atoms, restarts=restarts, max_iters=max_iters)
    _check_tols(tol=tol)
    target = require_finite(as_matrix(c), "target")
    k = target.shape[0]
    if target.shape != (k, k):
        raise ShapeMismatch("target must be square")
    m_cnt = atoms if atoms is not None else k * k + 1
    best = None
    for r in range(restarts):
        res = _solve_single(target, d, m_cnt, max_iters, tol, rng_from_seed(seed, (r,)))
        # strict: an earlier restart keeps a tie; a hit beats every earlier miss
        if best is None or res[0] < best[0]:
            best = res
        if res[0] <= tol * tol:
            break
    _, p, us = best
    keep = p > 0.0
    ensemble = UnitaryTupleEnsemble(p[keep], us[keep])
    return GramCertificate.build(ensemble, target)


# ---------------------------------------------------------------------------
# distance bounds with dimension doubling


@dataclass
class DistanceBound:
    """Upper bound on the cb distance from c to the Gram averages at size d."""

    d: int
    value: float
    certificate: GramCertificate
    cb: NormEstimate


def dist_upper_bound(
    c,
    d: int,
    atoms: int | None = None,
    restarts: int = 20,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> DistanceBound:
    """Certified upper bound on the cb distance from c to the d-dimensional set.

    Runs the membership search at d, and additionally (for even d) reuses
    the best certificate from d/2 with every tuple entry embedded as
    U + U block diagonally. The embedded candidate achieves the identical
    Gram average, so the bound can never increase along d -> 2d.

    The last DIST_MEMO_SIZE bounds, the rungs d/2, d/4, ... included, are
    memoised by their exact inputs: the bytes and shape of c and every
    other argument. So walking d = 1, 2, 4, ... on one target runs each
    search once. A hit returns a deep copy that is bit for bit what a cold
    call returns, and shares no array with the memo or with c. A tol that
    is not finite and >= 0, a NaN or infinite entry of c, or a Frobenius
    norm that overflows raises MufactError before the memo is consulted.
    """
    _check_counts(d=d, atoms=1 if atoms is None else atoms, restarts=restarts, max_iters=max_iters)
    _check_tols(tol=tol)
    target = require_finite(as_matrix(c), "target")
    bound = _bound(target.shape, target.tobytes(), d, atoms, restarts, max_iters, tol, seed)
    return copy.deepcopy(bound)


# typed: a hit returns d as the type it was given (np.int64(2) is not 2)
@functools.lru_cache(maxsize=DIST_MEMO_SIZE, typed=True)
def _bound(shape, data, d, atoms, restarts, max_iters, tol, seed) -> DistanceBound:
    # entries share arrays between rungs and are never mutated (target is a
    # read-only view of the key); callers get deep copies
    target = np.frombuffer(data, complex).reshape(shape)
    solver = (atoms, restarts, max_iters, tol, seed)
    # positional, as in dist_upper_bound: lru_cache keys keyword calls apart
    sub = _bound(shape, data, d // 2, *solver) if d % 2 == 0 else None
    fresh = membership_solve(target, d, *solver)
    cb = schur_cb_norm(target - fresh.achieved)
    # the fresh search must beat the embedded certificate: a tie keeps the latter
    if sub is None or cb.upper < sub.value:
        return DistanceBound(d=d, value=cb.upper, certificate=fresh, cb=cb)
    small = sub.certificate.ensemble
    lifted = np.zeros((small.size, small.k, d, d), dtype=complex)
    to_blocks(lifted, d // 2, 2)[:, :, range(2), range(2)] = small.tuples[:, :, None]  # U + U
    cert = replace(sub.certificate, ensemble=UnitaryTupleEnsemble(small.weights, lifted))
    return replace(sub, d=d, certificate=cert)
