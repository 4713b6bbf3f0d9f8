"""Mixed-unitary factorisations of depolarise-tensor-Schur channels.

A tuple (U_1, ..., U_k) of d x d unitaries has Gram matrix
c_ij = tr_d(U_i* U_j); averages of such Grams are exactly the correlation
matrices whose lifted channel is mixed unitary. This module moves between
the two descriptions in both directions, repairs approximate factorisations
by dilating the compressed blocks, and searches for Gram-average
representations of a given correlation matrix.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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
    dagger,
    frob,
    op_norm,
    polar,
    random_haar_unitary,
    rng_from_seed,
    svd,
)
from .channels import (
    MixedUnitaryEnsemble,
    choi_of,
    d_biaverage,
    delta_compress,
    lift_schur,
    to_blocks,
    weyl_unitaries,
)
from .norms import NormEstimate, schur_cb_norm

GRAM_RECOMPUTE_TOL = 1e-12


# ---------------------------------------------------------------------------
# tuples and their Gram matrices


@dataclass
class UnitaryTuple:
    """A k-tuple of d x d unitaries, stored as a (k, d, d) stack."""

    unitaries: np.ndarray

    def __post_init__(self):
        self.unitaries = np.asarray(self.unitaries, dtype=complex)
        if self.unitaries.ndim != 3 or self.unitaries.shape[1] != self.unitaries.shape[2]:
            raise ShapeMismatch(f"expected a (k, d, d) stack, got {self.unitaries.shape}")

    @property
    def k(self) -> int:
        return self.unitaries.shape[0]

    @property
    def d(self) -> int:
        return self.unitaries.shape[1]

    def check(self, tol: float = 1e-10):
        eye = np.eye(self.d)
        for i, u in enumerate(self.unitaries):
            if frob(dagger(u) @ u - eye) > tol:
                raise NotUnitary(f"tuple entry {i} is not unitary within tolerance")
        return self


@dataclass
class UnitaryTupleEnsemble:
    """Weighted collection of unitary tuples, stored as a (M, k, d, d) stack."""

    weights: np.ndarray
    tuples: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.tuples = np.asarray(self.tuples, dtype=complex)
        if self.tuples.ndim != 4 or self.tuples.shape[2] != self.tuples.shape[3]:
            raise ShapeMismatch(f"expected a (M, k, d, d) stack, got {self.tuples.shape}")
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

    def member(self, m: int) -> UnitaryTuple:
        return UnitaryTuple(self.tuples[m])

    def check(self, weight_tol: float = 1e-12, unitary_tol: float = 1e-10):
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > weight_tol:
            raise MufactError(f"weights sum to {total!r}, expected 1")
        if self.weights.min(initial=1.0) <= 0.0:
            raise MufactError("weights must be strictly positive")
        for m in range(self.size):
            self.member(m).check(unitary_tol)
        return self

    def gram_average(self) -> np.ndarray:
        grams = np.einsum("miab,mjab->mij", np.conj(self.tuples), self.tuples) / self.d
        return np.einsum("m,mij->ij", self.weights, grams)


def gram_matrix(t) -> np.ndarray:
    """Gram matrix c_ij = tr_d(U_i* U_j) of a tuple of d x d matrices."""
    u = t.unitaries if isinstance(t, UnitaryTuple) else np.asarray(t, dtype=complex)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise ShapeMismatch(f"expected a (k, d, d) stack, got {u.shape}")
    return np.einsum("iab,jab->ij", np.conj(u), u) / u.shape[1]


def random_tuple_ensemble(k: int, d: int, atoms: int, rng) -> UnitaryTupleEnsemble:
    """Seeded ensemble of Haar tuples with Dirichlet weights."""
    weights = rng.dirichlet(np.ones(atoms))
    tuples = np.stack(
        [[random_haar_unitary(d, rng) for _ in range(k)] for _ in range(atoms)]
    )
    return UnitaryTupleEnsemble(weights, tuples).check()


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
        if drift > tol:
            raise MufactError(f"stored Gram average off by {drift:.3e} on recompute")
        diff = self.target - self.achieved
        if abs(frob(diff) - self.residual_fro) > tol or (
            abs(float(np.abs(diff).max(initial=0.0)) - self.residual_max) > tol
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

    Each tuple member contributes d^4 block-diagonal unitaries: its adjoint
    entries sandwiched between all pairs of Weyl unitaries, with weight
    p_m / d^4. The two Weyl averages depolarise the blocks, leaving
    block (i, j) of the input multiplied by c_ij = tr_d(U_i* U_j).
    """
    ensemble.check()
    m_cnt, k, d = ensemble.size, ensemble.k, ensemble.d
    w = weyl_unitaries(d)
    n_w = d * d
    adj = np.conj(ensemble.tuples.transpose(0, 1, 3, 2))  # per-entry adjoints
    out_w = np.empty(m_cnt * n_w * n_w)
    out_u = np.zeros((m_cnt * n_w * n_w, d * k, d * k), dtype=complex)
    for m in range(m_cnt):
        # sandwich[a, b, i] = W_a @ adj[m, i] @ W_b
        sandwich = np.einsum("axy,iyz,bzw->abixw", w, adj[m], w)
        base = m * n_w * n_w
        flat = sandwich.reshape(n_w * n_w, k, d, d)
        for i in range(k):
            out_u[base:base + n_w * n_w, i * d:(i + 1) * d, i * d:(i + 1) * d] = flat[:, i]
        out_w[base:base + n_w * n_w] = ensemble.weights[m] / (n_w * n_w)
    return MixedUnitaryEnsemble(out_w, out_u).check()


def tuples_from_ensemble(
    ensemble: MixedUnitaryEnsemble, c, d: int, k: int, tol: float = 1e-9
) -> UnitaryTupleEnsemble:
    """Recover unitary tuples from an ensemble realising the lifted channel of c.

    Pre-verifies the ensemble action against the lifted channel on the full
    matrix-unit basis (NotAFactorisation), then demands every member be
    block diagonal (NotBlockDiagonal) with unitary diagonal blocks
    (NotUnitary). The extracted tuples store the adjoints of those blocks,
    so their Gram average reproduces c.
    """
    ensemble.check()
    target = as_matrix(c)
    if target.shape != (k, k):
        raise ShapeMismatch(f"expected a {k}x{k} correlation matrix, got {target.shape}")
    if ensemble.dim != d * k:
        raise ShapeMismatch(
            f"ensemble acts on dimension {ensemble.dim}, expected {d * k}"
        )
    got = choi_of(ensemble)
    want = choi_of(lambda x: lift_schur(target, d, x), d * k)
    worst = np.abs(got.matrix - want.matrix).max()
    if worst > tol:
        raise NotAFactorisation(
            f"ensemble action deviates from the lifted channel by {worst:.3e}"
        )
    blocks = np.stack([to_blocks(u, d, k) for u in ensemble.unitaries])
    off = blocks.copy()
    off[:, range(k), range(k)] = 0.0
    worst_off = np.abs(off).max(initial=0.0)
    if worst_off > tol:
        raise NotBlockDiagonal(f"off-diagonal block of size {worst_off:.3e}")
    diag = blocks[:, range(k), range(k)]  # (size, k, d, d)
    eye = np.eye(d)
    for m in range(ensemble.size):
        for i in range(k):
            if frob(dagger(diag[m, i]) @ diag[m, i] - eye) > tol:
                raise NotUnitary(f"diagonal block ({m}, {i}) is not unitary")
    tuples = np.conj(diag.transpose(0, 1, 3, 2))
    return UnitaryTupleEnsemble(ensemble.weights.copy(), tuples)


# ---------------------------------------------------------------------------
# Halmos dilation and the correction pipeline


def halmos_dilate(x, tol: float = 1e-9) -> np.ndarray:
    """Unitary 2d x 2d dilation of a contraction with both diagonal corners X.

    W = [[X, CU], [-UD, X]] with C = sqrt(I - XX*), D = sqrt(I - X*X) and U
    the unitary polar factor of X. Both off-diagonal corners collapse to
    the single matrix P diag(sqrt(1 - s^2)) Q* of an SVD X = P diag(s) Q*,
    which is how they are computed: taking C and D from separate square
    roots would break their intertwining relation at the sqrt(eps) level
    for nearly unitary X. Inputs with operator norm in (1, 1 + tol] are
    rescaled to contractions; larger norms raise NormTooLarge.
    """
    m = as_matrix(x)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"dilation needs a square matrix, got {m.shape}")
    d = m.shape[0]
    nrm = op_norm(m)
    if nrm > 1.0 + tol:
        raise NormTooLarge(f"operator norm {nrm!r} exceeds 1 beyond tolerance")
    if nrm > 1.0:
        m = m / nrm
    p, s, qh = svd(m)
    defect = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    b = (p * defect) @ qh
    w = np.block([[m, b], [-b, m]])
    if frob(dagger(w) @ w - np.eye(2 * d)) > tol:
        raise MufactError("dilation failed to produce a unitary")
    return w


@dataclass
class CorrectionReport:
    """Outcome of the correction pipeline on an approximate factorisation."""

    c: np.ndarray
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
    """
    target = as_matrix(c)
    k = target.shape[0]
    if target.shape != (k, k) or phi.dim != d * k:
        raise ShapeMismatch(
            f"ensemble dimension {phi.dim} does not match d={d} and k={k}"
        )
    phi.check()
    m_cnt = phi.size
    blocks = np.stack([to_blocks(u, d, k) for u in phi.unitaries])
    diag = blocks[:, range(k), range(k)]  # (M, k, d, d)

    grams = np.einsum("miab,mjab->mij", diag, np.conj(diag)) / d
    c_tilde = np.einsum("m,mij->ij", phi.weights, grams)
    compressed = delta_compress(phi, d, k)
    via_choi = d_biaverage(compressed.choi)
    if np.abs(c_tilde - via_choi).max() > 1e-9:
        raise MufactError("compressed-map biaverage disagrees with block Grams")

    dil = np.empty((m_cnt, k, 2 * d, 2 * d), dtype=complex)
    for m in range(m_cnt):
        for i in range(k):
            dil[m, i] = dagger(halmos_dilate(diag[m, i]))
    cert = GramCertificate.build(UnitaryTupleEnsemble(phi.weights.copy(), dil), target)
    return CorrectionReport(
        c=target,
        c_tilde=c_tilde,
        c_hat=cert.achieved,
        certificate=cert,
        max_abs_delta=cert.residual_max,
        epsilon_in=float(epsilon),
        bound_ok=bool(cert.residual_max < 2.0 * epsilon),
    )


# ---------------------------------------------------------------------------
# membership search


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def _weight_update(p, grams, target, sweeps: int = 50, tol: float = 1e-10):
    """Projected-gradient minimisation of the Gram-average misfit over weights."""
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


def _atom_sweep(p, atoms, grams, resid):
    """One Gauss-Seidel pass of per-atom, per-index unitary updates.

    For entry i of atom m the misfit is, up to a constant, the squared row
    2 * sum_j |p_m tr_d(U* V_j) + r_j|^2 with r_j the residual excluding
    this atom. Its linear part is minimised by U = -polar(Z) with
    Z = sum_{j != i} conj(r_j) V_j; candidates are kept only when the exact
    misfit decreases.
    """
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
                cand = -polar(z).unitary_factor
            row = (flat @ np.conj(cand).ravel()) / d
            row[i] = 1.0  # tr_d(cand* cand), exact by unitarity
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
    return atoms, grams, resid


_HERM_BASIS: dict[int, np.ndarray] = {}


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthogonal real basis of d x d Hermitian matrices, shape (d*d, d, d)."""
    if d not in _HERM_BASIS:
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
        _HERM_BASIS[d] = out
    return _HERM_BASIS[d]


def _unitary_exp(h, u):
    """exp(iH) U for Hermitian H."""
    if h.shape[0] == 1:
        return np.exp(1j * h[0, 0].real) * u
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ dagger(vecs) @ u


def _residual_vec(resid, k):
    iu, ju = np.triu_indices(k, 1)
    r = resid[iu, ju]
    return np.concatenate([r.real, r.imag])


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
    pairs = k * (k - 1) // 2
    iu, ju = np.triu_indices(k, 1)

    p = p.copy()
    atoms = atoms.copy()
    grams = np.einsum("miab,mjab->mij", np.conj(atoms), atoms) / d
    achieved = np.einsum("m,mij->ij", p, grams)
    resid = achieved - target
    f = float(np.vdot(resid, resid).real)
    lam = 1e-4
    for _ in range(iters):
        if f <= 0.01 * tol * tol:
            break
        rvec = _residual_vec(resid, k)
        # layout: weight columns for all atoms first, then rotation
        # columns blocked (m, i, basis element) to match the step unpack
        cols = np.zeros((pairs, m_cnt * (1 + k * nb)), dtype=complex)
        for m in range(m_cnt):
            cols[:, m] = (grams[m] - achieved)[iu, ju]
            if p[m] <= 0.0:
                continue
            # d gram_ij / d theta_a at entry i: -i p_m tr(U_i* B_a U_j)/d
            tr = np.einsum("iba,xbc,jca->ixj", np.conj(atoms[m]), basis, atoms[m])
            dg = -1j * p[m] * tr / d
            for i in range(k):
                block = np.zeros((pairs, nb), dtype=complex)
                lo = iu == i
                hi = ju == i
                block[lo, :] = dg[i, :, ju[lo]]
                block[hi, :] = np.conj(dg[i, :, iu[hi]])
                col = m_cnt + (m * k + i) * nb
                cols[:, col : col + nb] = block
        jac = np.concatenate([cols.real, cols.imag])
        accepted = False
        for _ in range(8):
            lhs = np.concatenate([jac, np.sqrt(lam) * np.eye(jac.shape[1])])
            rhs = np.concatenate([-rvec, np.zeros(jac.shape[1])])
            step = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            q = np.clip(p + step[:m_cnt], 0.0, None)
            s = q.sum()
            if s > 0.0:
                q = q / s
                new_atoms = atoms.copy()
                th = step[m_cnt:].reshape(m_cnt, k, nb)
                for m in range(m_cnt):
                    if p[m] <= 0.0:
                        continue
                    for i in range(k):
                        h = np.tensordot(th[m, i].real, basis, axes=(0, 0))
                        new_atoms[m, i] = _unitary_exp(h, atoms[m, i])
                new_grams = np.einsum("miab,mjab->mij", np.conj(new_atoms), new_atoms) / d
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
    """
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


def _polish_escape(f, p, atoms, grams, target, d: int, tol: float):
    """Merge near-duplicate atoms and Gauss-Newton-polish the result.

    The alternating scheme crawls along the flat directions left by
    redundant atoms; collapsing close Grams makes the configuration rigid
    and the polish then converges fast. The whole escape is one
    accept/reject move, so the objective stays monotone.
    """
    k = atoms.shape[1]
    best = None
    seen_sizes: set[int] = set()
    for thresh in (0.0, 0.2, 0.5):
        q, reps = _merge_atoms(p, atoms, grams, thresh)
        if reps.shape[0] in seen_sizes:
            continue
        seen_sizes.add(reps.shape[0])
        if reps.shape[0] * (1 + k * d * d) > 600:  # keep the polish cheap
            continue
        q = q / q.sum()
        nf, nq, na = _gn_polish(q, reps, target, d, tol)
        if best is None or nf < best[0]:
            best = (nf, nq, na)
        if best[0] <= tol * tol:
            break
    if best is not None and best[0] < f:
        return best
    return f, p, atoms


def _solve_single(target, d: int, m_cnt: int, max_iters: int, tol: float, rng):
    k = target.shape[0]
    atoms = np.stack(
        [[random_haar_unitary(d, rng) for _ in range(k)] for _ in range(m_cnt)]
    )
    p = np.full(m_cnt, 1.0 / m_cnt)
    grams = np.einsum("miab,mjab->mij", np.conj(atoms), atoms) / d
    resid = np.einsum("m,mij->ij", p, grams) - target
    f = float(np.vdot(resid, resid).real)
    next_escape = 40
    for it in range(1, max_iters + 1):
        f_prev = f
        p, _ = _weight_update(p, grams, target, tol=tol)
        resid = np.einsum("m,mij->ij", p, grams) - target
        atoms, grams, resid = _atom_sweep(p, atoms, grams, resid)
        resid = np.einsum("m,mij->ij", p, grams) - target  # guard against drift
        f = float(np.vdot(resid, resid).real)
        if f <= tol * tol:
            return f, p, atoms
        stalled = f_prev - f < max(tol * tol, 1e-3 * f)
        if it >= next_escape or stalled:
            f, p, atoms = _polish_escape(f, p, atoms, grams, target, d, tol)
            if f <= tol * tol or stalled:
                return f, p, atoms
            grams = np.einsum("miab,mjab->mij", np.conj(atoms), atoms) / d
            next_escape = 2 * it
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

    Alternates projected-gradient weight updates with per-atom polar
    updates, from `restarts` independent seeded starts. The first restart
    (by index) whose Frobenius residual reaches tol wins; if none does,
    the best misfit wins with ties broken by the lowest index. Either way
    the result does not depend on scheduling: the MUFACT_THREADS
    environment variable only caps how many restarts run concurrently,
    while the serial path merely skips restarts the selection rule could
    never pick.
    """
    target = as_matrix(c)
    k = target.shape[0]
    if target.shape != (k, k):
        raise ShapeMismatch("target must be square")
    m_cnt = atoms if atoms is not None else k * k + 1
    if m_cnt < 1:
        raise MufactError("at least one atom is required")
    goal = tol * tol

    def run(r: int):
        return _solve_single(
            target, d, m_cnt, max_iters, tol, rng_from_seed(seed, (r,))
        )

    try:
        workers = int(os.environ.get("MUFACT_THREADS", "1"))
    except ValueError:
        workers = 1
    if workers > 1 and restarts > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(restarts)))
    else:
        results = []
        for r in range(restarts):
            results.append(run(r))
            if results[-1][0] <= goal:
                break

    hits = [r for r, res in enumerate(results) if res[0] <= goal]
    if hits:
        best = hits[0]
    else:
        best = min(range(len(results)), key=lambda r: (results[r][0], r))
    _, p, us = results[best]
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
    split: float


def _psd_split_bound(delta) -> float:
    """cb bound via the positive and negative parts of a Hermitian residual."""
    h = 0.5 * (delta + dagger(delta))
    vals, vecs = np.linalg.eigh(h)
    pos = (vecs * np.clip(vals, 0.0, None)) @ dagger(vecs)
    neg = (vecs * np.clip(-vals, 0.0, None)) @ dagger(vecs)
    top = float(max(0.0, np.real(np.diagonal(pos)).max(initial=0.0)))
    bot = float(max(0.0, np.real(np.diagonal(neg)).max(initial=0.0)))
    return top + bot


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
    """
    target = as_matrix(c)
    candidates = []
    if d % 2 == 0:
        sub = dist_upper_bound(
            target, d // 2, atoms=atoms, restarts=restarts,
            max_iters=max_iters, tol=tol, seed=seed,
        )
        small = sub.certificate.ensemble
        lifted = np.zeros((small.size, small.k, d, d), dtype=complex)
        half = d // 2
        lifted[:, :, :half, :half] = small.tuples
        lifted[:, :, half:, half:] = small.tuples
        cert = GramCertificate(
            ensemble=UnitaryTupleEnsemble(small.weights.copy(), lifted),
            achieved=sub.certificate.achieved.copy(),
            target=target,
            residual_fro=sub.certificate.residual_fro,
            residual_max=sub.certificate.residual_max,
        )
        candidates.append((sub.value, 0, cert, sub.cb, sub.split))

    fresh = membership_solve(
        target, d, atoms=atoms, restarts=restarts,
        max_iters=max_iters, tol=tol, seed=seed,
    )
    delta = target - fresh.achieved
    cb = schur_cb_norm(delta)
    split = _psd_split_bound(delta)
    candidates.append((min(cb.upper, split), 1, fresh, cb, split))

    value, _, cert, cb_best, split_best = min(candidates, key=lambda t: (t[0], t[1]))
    return DistanceBound(d=d, value=value, certificate=cert, cb=cb_best, split=split_best)
