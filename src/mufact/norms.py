"""Operator and completely bounded norms of Schur multipliers.

For a Schur multiplier the norm and the cb norm coincide, and both equal
the least max_i ||r_i|| * max_j ||c_j|| over factorisations
a_ij = <r_i, c_j> (Haagerup; see Paulsen, *Completely Bounded Maps and
Operator Algebras*, ch. 8). So every factorisation certifies an upper end,
and every trace norm ||D_x A D_y||_1 at positive unit x, y (equal to
|x^T (A o W) y| for a unitary W) is a lower end. One SVD of D_x A D_y
gives both, a factorisation from its factors and the trace norm from its
singular values, so `schur_cb_norm` brackets the norm with one loop of
such steps; both ends are sound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MufactError, NotPSD
from .linalg import as_matrix, dagger, herm_eig, polar, random_haar_unitary, rng_from_seed
from .linalg import below_psd_floor
from .channels import choi_of, to_blocks

# certificate steps per bracket; acceptance 10's slowest symbol takes 1,473
_MAX_STEPS = 4000
# least certificate weight: at 1e-12 rounding in RC swamps the E term
_FLOOR = 1e-4
# seeded Haar starts, and ascent steps per start, of superop_norm_lb
_SUPEROP_STARTS = 4
_SUPEROP_ITERS = 60


@dataclass
class NormEstimate:
    """Bracket [lower, upper] for a norm, tagged with how it was computed.

    `iterations` counts the certificate steps spent on the bracket.
    """

    lower: float
    upper: float
    method: str
    iterations: int = 0

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-9):
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
    if below_psd_floor(es.values, a):
        raise NotPSD(f"symbol has eigenvalue {es.values.min():.3e}")
    return float(max(0.0, np.real(np.diagonal(a)).max(initial=0.0)))


def split_bound(a) -> float:
    """cb bound from the positive and negative parts of a symbol.

    Write A = H + iK with H and K Hermitian, and split each into its
    positive and negative parts, H = P - N. A PSD symbol's multiplier has
    cb norm max_i p_ii, so ||S_A||_cb is at most the sum, over the four
    parts, of each part's largest diagonal entry. For a PSD symbol this is
    max_i a_ii.
    """
    m = as_matrix(a)
    total = 0.0
    for h in (0.5 * (m + dagger(m)), 0.5j * (dagger(m) - m)):
        vals, vecs = np.linalg.eigh(h)
        weight = np.abs(vecs) ** 2
        for part in (np.clip(vals, 0.0, None), np.clip(-vals, 0.0, None)):
            total += float((weight @ part).max(initial=0.0))
    return total


def _row_col_bound(m) -> float:
    """cb bound min(max row norm, max column norm) of a symbol.

    a_ij = <conj(row_i), e_j> gives the row bound; columns likewise.
    """
    return float(min(np.linalg.norm(m, axis=1).max(), np.linalg.norm(m, axis=0).max()))


def _reweigh(w, norms, trace: float):
    """Damped step toward norms_i**2 == trace, floored, then made unit."""
    w = np.maximum(w * (norms ** 2 / trace) ** 0.25, _FLOOR)
    return w / np.linalg.norm(w)


def schur_cb_norm(a, rel_gap: float = 1e-4) -> NormEstimate:
    """Bracket the cb norm of the Schur multiplier with symbol a.

    The lower end starts at max|a_ij| and the upper end at the lesser
    closed-form cap (the row and column norms, the split bound), so a PSD
    symbol closes on max_i a_ii with no step. Otherwise certificate steps
    move both ends. Each takes positive unit weights x, y (uniform at
    first), B = D_x A D_y = U S V* (one k x k SVD), and the factorisation
    A = RC with R = D_x^-1 U S^1/2 and C = S^1/2 V* D_y^-1. The upper end
    falls to max_i ||R_i|| * max_j ||C^j|| plus the cb bound of E = A - RC
    (the smaller of its largest row and column norms): RC equals A only up
    to rounding, and the E term keeps the bound sound. The lower end rises
    to ||B||_1. Then x_i is scaled by (||R_i||^2 / ||B||_1)^(1/4), y
    likewise; at the fixed point ||R_i||^2 = ||C^j||^2 = ||B||_1 and the
    bracket closes. Weights are floored at 1e-4 before they are normalised,
    because a weight near 1e-9 blows the rounding in RC, and the E term
    with it, up to the order of ||A||. Steps stop once upper - lower <=
    rel_gap * upper, or after a fixed cap, in which case the gap can stay
    above `rel_gap`.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise MufactError(f"symbol must be square, got {m.shape}")
    k = m.shape[0]
    scale = float(np.abs(m).max(initial=0.0))
    if scale == 0.0 or k == 0:
        return NormEstimate(0.0, 0.0, "haagerup-certificate")
    lower = scale
    # rounding can leave a cap a hair below max|a_ij| (0.9999999999999998
    # for [[0, 1], [1, 0]])
    upper = max(min(_row_col_bound(m), split_bound(m)), lower)
    x = y = np.full(k, k ** -0.5)
    steps = 0
    while steps < _MAX_STEPS and upper - lower > rel_gap * upper:
        steps += 1
        u, s, vh = np.linalg.svd(x[:, None] * m * y[None, :])
        root = np.sqrt(s)
        r = (u * root) / x[:, None]
        c = (root[:, None] * vh) / y[None, :]
        rows = np.linalg.norm(r, axis=1)
        cols = np.linalg.norm(c, axis=0)
        trace = float(s.sum())
        upper = min(upper, float(rows.max() * cols.max()) + _row_col_bound(m - r @ c))
        lower = max(lower, min(trace, upper))
        x = _reweigh(x, rows, trace)
        y = _reweigh(y, cols, trace)
    return NormEstimate(lower, upper, "haagerup-certificate", iterations=steps)


def superop_norm_lb(phi, dim: int | None = None, seed: int = 0) -> float:
    """Lower bound on the operator norm of a map on n x n matrices.

    Ascends sigma_max(Phi(U)) over the unitary group with polar retraction;
    every evaluation happens at a unitary, so the bound is sound. The norm
    over the unit ball is attained at a unitary (the extreme points), so
    the restriction loses nothing in principle. Deterministic starts are
    the n cyclic shift permutations (the identity among them), followed by
    _SUPEROP_STARTS seeded Haar unitaries; each start takes at most
    _SUPEROP_ITERS ascent steps.
    """
    choi = choi_of(phi, dim)
    n = choi.k
    if n == 0:
        return 0.0
    basis = to_blocks(choi.matrix, n, n)

    def value(u):
        return np.einsum("ab,abrs->rs", u, basis)

    inits = [np.roll(np.eye(n, dtype=complex), s, axis=0) for s in range(n)]
    rng = rng_from_seed(seed, (0xD0,))
    inits += [random_haar_unitary(n, rng) for _ in range(_SUPEROP_STARTS)]

    best = 0.0
    for u0 in inits:
        u = np.asarray(u0, dtype=complex)
        w = value(u)
        pmat, s, qh = np.linalg.svd(w)
        f = float(s[0])
        best = max(best, f)
        step = 0.2
        for _ in range(_SUPEROP_ITERS):
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
