"""Operator and completely bounded norms of Schur multipliers.

The cb norm is bracketed by bisection over the classical two-block
characterisation: ||S_A||_cb <= t iff some PSD matrix [[P, A], [A*, Q]]
exists with diag(P) <= t and diag(Q) <= t. Feasibility at a given t is
decided by Dykstra's alternating projections; a feasible point doubles as a
certificate, so the returned upper bound is sound even when the iteration
is stopped early. The lower bound from bisection is heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MufactError, NotPSD
from .linalg import as_matrix, dagger, frob, herm_eig, polar, random_haar_unitary, rng_from_seed
from .channels import choi_of, to_blocks


@dataclass
class NormEstimate:
    """Bracket [lower, upper] for a norm, tagged with how it was computed."""

    lower: float
    upper: float
    method: str

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise MufactError(
                f"norm bracket is inverted: lower={self.lower!r} upper={self.upper!r}"
            )


def schur_norm_psd(c) -> float:
    """Norm of a Schur multiplier with PSD symbol: the largest diagonal entry.

    For PSD symbols the operator and cb norms coincide with max_i c_ii.
    Raises NotPSD when the symbol is not PSD within tolerance.
    """
    a = as_matrix(c)
    es = herm_eig(a)
    if es.values.min(initial=0.0) < -1e-10 * (1.0 + frob(a)):
        raise NotPSD(f"symbol has eigenvalue {es.values.min():.3e}")
    if a.shape[0] == 0:
        return 0.0
    return float(max(0.0, np.real(np.diagonal(a)).max()))


def _proj_box(m, a, t: float):
    """Project onto {Hermitian M: corner blocks = A, A*; diag real and <= t}."""
    k = a.shape[0]
    h = 0.5 * (m + dagger(m))
    h[:k, k:] = a
    h[k:, :k] = dagger(a)
    np.fill_diagonal(h, np.minimum(np.real(np.diagonal(h)), t))
    return h


def _cb_probe(a, t: float, x0, max_iters: int, feas_tol: float):
    """Dykstra probe of the two-block witness set at level t.

    Every PSD-projected iterate y certifies an upper bound on its own: the
    corner block B of y has cb norm at most maxdiag(y), and switching the
    corner from B to A costs at most sqrt(k) * max|A - B| via the row
    factorisation bound. Returns (feasible, best certified upper bound,
    iterations used, final iterate); infeasibility is declared when the
    constraint violation plateaus across a 300-iteration window, which is a
    heuristic and only influences the bisection bracket.
    """
    k = a.shape[0]
    scale = 1.0 + float(np.abs(a).max())
    sqrt_k = float(np.sqrt(k))
    if x0 is None:
        x = np.zeros((2 * k, 2 * k), dtype=complex)
        np.fill_diagonal(x, t)
    else:
        x = x0
    x = _proj_box(x, a, t)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    upper = np.inf
    window = 300
    best = np.inf
    best_at_mark = np.inf
    for it in range(1, max_iters + 1):
        h = x + p
        h = 0.5 * (h + dagger(h))
        vals, vecs = np.linalg.eigh(h)
        y = (vecs * np.clip(vals, 0.0, None)) @ dagger(vecs)
        corner_err = float(np.abs(y[:k, k:] - a).max())
        maxdiag = float(np.real(np.diagonal(y)).max())
        upper = min(upper, maxdiag + sqrt_k * corner_err)
        viol = max(corner_err, maxdiag - t, 0.0)
        if viol <= feas_tol * scale:
            return True, upper, it, x
        best = min(best, viol)
        if it % window == 0:
            if best > best_at_mark * 0.98:
                return False, upper, it, x
            best_at_mark = best
        p = h - y
        z = _proj_box(y + q, a, t)
        q = y + q - z
        x = z
    return False, upper, max_iters, x


def schur_cb_norm(
    a,
    rel_gap: float = 1e-4,
    budget: int = 10000,
    feas_tol: float = 1e-8,
    max_depth: int = 20,
) -> NormEstimate:
    """Bracket the cb norm of the Schur multiplier with symbol a.

    The upper bound is always sound: every probe iterate yields a certified
    bound, and the closed-form row/column factorisation bound caps it from
    the start. The lower bound starts at max|a_ij| (always valid) and is
    then pushed up by bisection levels the probe failed to certify, which
    is heuristic. `budget` caps the total Dykstra iterations spent across
    the whole bisection.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise MufactError(f"symbol must be square, got {m.shape}")
    k = m.shape[0]
    scale = float(np.abs(m).max(initial=0.0))
    if scale == 0.0 or k == 0:
        return NormEstimate(0.0, 0.0, "dykstra-bisection")
    # a_ij = <conj(row_i), e_j> gives cb <= max row norm; columns likewise
    row = float(np.linalg.norm(m, axis=1).max())
    col = float(np.linalg.norm(m, axis=0).max())
    hi = min(k * scale, row, col)
    lo = scale
    upper = hi
    warm = None
    depth = 0
    left = budget
    while depth < max_depth and left > 0 and hi - lo > rel_gap * hi:
        mid = 0.5 * (lo + hi)
        cap = min(left, max(600, left // 3))
        ok, cand, used, x = _cb_probe(m, mid, warm, cap, feas_tol)
        left -= used
        upper = min(upper, cand)
        if ok:
            hi = mid
            warm = x
        else:
            lo = mid
        hi = min(hi, upper)
        if hi <= lo:
            break
        depth += 1
    return NormEstimate(min(lo, upper), upper, "dykstra-bisection")


def superop_norm_lb(
    phi,
    dim: int | None = None,
    seed: int = 0,
    starts: int = 4,
    iters: int = 60,
) -> float:
    """Lower bound on the operator norm of a map on n x n matrices.

    Ascends sigma_max(Phi(U)) over the unitary group with polar retraction;
    every evaluation happens at a unitary, so the bound is sound. The norm
    over the unit ball is attained at a unitary (the extreme points), so
    the restriction loses nothing in principle. Deterministic starts are
    the n cyclic shift permutations (the identity among them), followed by
    `starts` seeded Haar unitaries.
    """
    choi = choi_of(phi, dim)
    n = choi.k
    if n == 0:
        return 0.0
    basis = to_blocks(choi.matrix, n, n)

    def value(u):
        return np.einsum("ab,abrs->rs", u, basis)

    shift = np.roll(np.eye(n), 1, axis=0)
    inits = []
    u = np.eye(n, dtype=complex)
    for _ in range(n):
        inits.append(u)
        u = shift @ u
    rng = rng_from_seed(seed, (0xD0,))
    for _ in range(starts):
        inits.append(random_haar_unitary(n, rng))

    best = 0.0
    for u0 in inits:
        u = np.asarray(u0, dtype=complex)
        w = value(u)
        pmat, s, qh = np.linalg.svd(w)
        f = float(s[0])
        best = max(best, f)
        step = 0.2
        for _ in range(iters):
            lvec = np.conj(pmat[:, 0])
            rvec = np.conj(qh[0])
            grad = np.conj(np.einsum("r,abrs,s->ab", lvec, basis, rvec))
            cand = polar(u + step * grad).unitary_factor
            wc = value(cand)
            pc, sc, qc = np.linalg.svd(wc)
            if sc[0] > f + 1e-14:
                u, w, pmat, s, qh = cand, wc, pc, sc, qc
                f = float(s[0])
                best = max(best, f)
                step = min(step * 1.5, 10.0)
            else:
                step *= 0.4
                if step < 1e-8:
                    break
    return best
