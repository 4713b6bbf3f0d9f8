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
from dataclasses import dataclass

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
    as_matrix,
    frob,
    random_haar_unitaries,
    require_finite,
    rng_from_seed,
    unitarity_defects,
)
from .channels import (
    UNITARY_TOL,
    MixedUnitaryEnsemble,
    check_weights,
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
        check_weights(self.weights)
        bad = _first_block(~(unitarity_defects(self.tuples) <= UNITARY_TOL))
        if bad is not None:
            raise NotUnitary(f"tuple {bad[0]} entry {bad[1]} is not unitary within tolerance")
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


def _first_block(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of a mask over a stack, or None; () on 0-d."""
    hits = np.argwhere(mask)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


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
    """Validate a certificate's internal consistency; raises on failure."""
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
    reproduces c. A NaN or infinite entry of c, or a Frobenius norm that
    overflows, raises MufactError once the ensemble has passed its checks.
    """
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
    w = diag.reshape(ensemble.size, k * d * d)
    got = (w.T * ensemble.weights) @ np.conj(w)
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
    at = _first_block(nrm > 1.0 + DILATION_TOL)
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
    at = _first_block(unitarity_defects(w) > DILATION_TOL)
    if at is not None:
        where = f" at block {at}" if at else ""
        raise MufactError(f"dilation failed to produce a unitary{where}")
    return w


@dataclass
class CorrectionReport:
    """Outcome of the correction pipeline on an approximate factorisation."""

    c_tilde: np.ndarray
    c_hat: np.ndarray
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
    deviates from c by less than 2*epsilon whenever phi was epsilon-close
    to exact (bound_ok records whether that happened).

    c_hat depends on each dilated tuple only through its Gram matrix, so
    the certificate holds one atom per distinct Gram matrix (within
    GRAM_RECOMPUTE_TOL in Frobenius norm), carrying the pooled weight of
    its members, heaviest first. A mu ensemble's d^4 Weyl-sandwiched copies
    of a tuple share one Gram matrix, and so do their dilations. A NaN or
    infinite entry of c, or a Frobenius norm that overflows, raises
    MufactError once the shapes and phi have passed their checks.
    """
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
    if np.abs(c_tilde - via_choi).max() > BIAVERAGE_CROSSCHECK_TOL:
        raise MufactError("compressed-map biaverage disagrees with block Grams")

    dil = np.ascontiguousarray(np.conj(np.swapaxes(halmos_dilate(diag), -1, -2)))
    weights, reps = _merge_atoms(phi.weights, dil, _grams(dil), GRAM_RECOMPUTE_TOL)
    cert = GramCertificate.build(UnitaryTupleEnsemble(weights, reps), target)
    return CorrectionReport(
        c_tilde=c_tilde,
        c_hat=cert.achieved,
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
    """Orthogonal real basis of d x d Hermitian matrices, shape (d*d, d, d)."""
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
    return out


def _gn_polish(p, atoms, target, d: int, tol: float, iters: int = 60):
    """Damped Gauss-Newton refinement around an alternating-descent iterate.

    Parameters are tangent rotations exp(iH) per tuple entry plus additive
    weight shifts renormalised on the simplex; the Jacobian is analytic and
    the step is rebased after every accepted move. Accept/reject on the
    exact misfit keeps the objective non-increasing. Near a zero-residual
    configuration this converges quadratically where the coordinate scheme
    crawls along the flat directions of the Gram parametrisation.
    """
    m_cnt, k = atoms.shape[0], atoms.shape[1]
    nb = d * d
    basis = _hermitian_basis(d)
    iu, ju = np.triu_indices(k, 1)
    rows = np.arange(len(iu))

    grams = _grams(atoms)
    achieved = np.einsum("m,mij->ij", p, grams)
    resid = achieved - target
    f = float(np.vdot(resid, resid).real)
    lam = 1e-4
    for _ in range(iters):
        if f <= 0.01 * tol * tol:
            break
        r = resid[iu, ju]
        rvec = np.concatenate([r.real, r.imag])
        live = p > 0.0
        # d gram_ij / d theta_x at entry i of atom m: -i p_m tr(U_i* B_x U_j)/d;
        # row (i, j) depends on entry i through dg[m, i, :, j] and on entry j
        # through conj(dg[m, j, :, i])
        tr = np.einsum("miba,xbc,mjca->mixj", np.conj(atoms), basis, atoms)
        dg = -1j * p[:, None, None, None] * tr / d
        dg[~live] = 0.0
        rot = np.zeros((len(rows), m_cnt, k, nb), dtype=complex)
        rot[rows, :, iu] = dg[:, iu, :, ju]
        rot[rows, :, ju] = np.conj(dg[:, ju, :, iu])
        # weight columns for all atoms first, then rotation columns (m, i, x)
        cols = np.concatenate(
            [(grams - achieved)[:, iu, ju].T, rot.reshape(len(rows), m_cnt * k * nb)], axis=1
        )
        jac = np.concatenate([cols.real, cols.imag])
        # one thin SVD J = U S V^T serves every damping try: the minimiser
        # of |J s + r|^2 + lam |s|^2 is s = -V diag(S / (S^2 + lam)) U^T r
        u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        ur = u.T @ rvec
        accepted = False
        for _ in range(8):
            step = -vt.T @ (sv / (sv * sv + lam) * ur)
            q = np.clip(p + step[:m_cnt], 0.0, None)
            s = q.sum()
            if s > 0.0:
                q = q / s
                h = (step[m_cnt:].reshape(-1, nb) @ basis.reshape(nb, nb)).reshape(m_cnt, k, d, d)
                if d == 1:
                    turned = np.exp(1j * h.real) * atoms
                else:
                    vals, vecs = np.linalg.eigh(h)
                    expo = vecs * np.exp(1j * vals)[..., None, :]
                    turned = expo @ np.conj(np.swapaxes(vecs, -1, -2)) @ atoms
                new_atoms = np.where(live[:, None, None, None], turned, atoms)
                new_grams = _grams(new_atoms)
                new_ach = np.einsum("m,mij->ij", q, new_grams)
                new_resid = new_ach - target
                new_f = float(np.vdot(new_resid, new_resid).real)
                if new_f < f:
                    p, atoms, grams = q, new_atoms, new_grams
                    achieved, resid, f = new_ach, new_resid, new_f
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
            lam *= 10.0
        if not accepted:
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


def _check_counts(**counts) -> None:
    """MufactError unless each count is an int or np.integer (no bool) at its
    floor: 0 for k and max_iters, 1 for the rest."""
    for name, value in counts.items():
        floor = 0 if name in ("k", "max_iters") else 1
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise MufactError(f"{name} must be an integer, got {value!r}")
        if value < floor:
            raise MufactError(f"{name} must be at least {floor}, got {value}")


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
    NaN or infinite entry of c, or a Frobenius norm that overflows, raises
    MufactError.
    """
    _check_counts(d=d, atoms=1 if atoms is None else atoms, restarts=restarts, max_iters=max_iters)
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
    call returns, and shares no array with the memo or with c. A NaN or
    infinite entry of c, or a Frobenius norm that overflows, raises
    MufactError before the memo is consulted.
    """
    _check_counts(d=d, atoms=1 if atoms is None else atoms, restarts=restarts, max_iters=max_iters)
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
    half = d // 2
    lifted[:, :, :half, :half] = small.tuples
    lifted[:, :, half:, half:] = small.tuples
    cert = GramCertificate(
        ensemble=UnitaryTupleEnsemble(small.weights, lifted),
        achieved=sub.certificate.achieved,
        target=target,
        residual_fro=sub.certificate.residual_fro,
        residual_max=sub.certificate.residual_max,
    )
    return DistanceBound(d=d, value=sub.value, certificate=cert, cb=sub.cb)
