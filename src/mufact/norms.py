"""Operator and completely bounded norms of Schur multipliers.

For a Schur multiplier the norm and the cb norm coincide (Haagerup; see
Paulsen, *Completely Bounded Maps and Operator Algebras*, ch. 8), so both
ends of the bracket from `schur_cb_norm` are sound bounds on that one
number.

- The lower end is max(max|a_ij|, ascent), where the ascent maximises the
  trace norm of D_x A D_y over unit vectors x, y; every value it reaches is
  |x^T (A o W) y| for a unitary W.
- The upper end starts at closed-form caps (k * max|a_ij|, the row and
  column norms, and the split bound) and is lowered by probes of the
  two-block characterisation: ||S_A||_cb <= t iff some PSD matrix
  [[P, A], [A*, Q]] exists with diag(P) <= t and diag(Q) <= t. Each probe
  runs Dykstra's alternating projections at a level t, and every iterate
  certifies an upper bound of its own, so the upper end is sound even when
  a probe stops early.

A probe that fails only raises the level the next probe tries; it never
moves the reported lower end. When the iteration budget runs out the gap
can stay above `rel_gap`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MufactError, NotPSD
from .linalg import as_matrix, dagger, frob, herm_eig, polar, random_haar_unitary, rng_from_seed
from .channels import choi_of, to_blocks


@dataclass
class NormEstimate:
    """Bracket [lower, upper] for a norm, tagged with how it was computed.

    `iterations` counts the Dykstra steps spent on the bracket.
    """

    lower: float
    upper: float
    method: str
    iterations: int = 0

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


def _ascent_lb(a) -> float:
    """Sound lower bound on ||S_A||: ascent of ||D_x A D_y||_1 over unit x, y.

    With D_x A D_y = U S V* and B = conj(U V*) o A, the trace norm equals
    x^T B y, and |x^T B y| <= ||A o conj(U V*)|| <= ||S_A|| since conj(U V*)
    is unitary. For fixed B the best x is conj(B y)/||B y||, then y is
    conj(B^T x)/||B^T x||, so every step is an ascent; it stops when a step
    gains less than 1e-12 relative. The starts are deterministic: uniform,
    and the normalised row and column norms.
    """
    k = a.shape[0]
    rows = np.linalg.norm(a, axis=1)
    cols = np.linalg.norm(a, axis=0)
    flat = np.full(k, k ** -0.5)
    best = 0.0
    for x, y in ((flat, flat), (rows / np.linalg.norm(rows), cols / np.linalg.norm(cols))):
        value = 0.0
        for _ in range(200):
            u, _, vh = np.linalg.svd(x[:, None] * a * y[None, :])
            b = np.conj(u @ vh) * a
            bx = b @ y
            x = np.conj(bx) / np.linalg.norm(bx)
            by = b.T @ x
            step = float(np.linalg.norm(by))
            y = np.conj(by) / step
            if step <= value * (1.0 + 1e-12):
                break
            value = step
        best = max(best, value)
    return best


def _proj_box(m, a, t: float):
    """Project onto {Hermitian M: corner blocks = A, A*; diag real and <= t}."""
    k = a.shape[0]
    h = 0.5 * (m + dagger(m))
    h[:k, k:] = a
    h[k:, :k] = dagger(a)
    np.fill_diagonal(h, np.minimum(np.real(np.diagonal(h)), t))
    return h


def _cb_probe(a, t: float, x0, max_iters: int, feas_tol: float, lo: float, rel_gap: float):
    """Dykstra probe of the two-block witness set at level t.

    Every PSD-projected iterate y certifies an upper bound on its own: the
    corner block B of y has cb norm at most maxdiag(y), and switching the
    corner from B to A costs at most sqrt(k) * max|A - B| via the row
    factorisation bound. The probe returns as soon as that bound is within
    `rel_gap` of `lo`, or the iterate is feasible at t within `feas_tol`.
    Returns (feasible or closed, best certified upper bound, iterations
    used, final iterate). Infeasibility is declared when the constraint
    violation plateaus across a 300-iteration window; that is a heuristic
    and only moves the level of the next probe.
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
        if upper - lo <= rel_gap * upper or viol <= feas_tol * scale:
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

    Both ends are sound. The lower end is max(max|a_ij|, ascent) and is
    never moved by probing. The upper end is the least of the closed-form
    caps and every certified probe bound, so a PSD symbol closes on
    max_i a_ii without any probe. Otherwise the first probe runs just above
    the lower end, at lo * (1 + rel_gap / 2); if it does not close the
    bracket, later probes bisect between the highest failed level and the
    lowest level found feasible. Probing stops once upper - lower <=
    rel_gap * upper, or when `budget` (Dykstra iterations in total) or
    `max_depth` (probes) runs out, in which case the gap can stay above
    `rel_gap`.
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
    hi = min(k * scale, row, col, split_bound(m))
    # rounding can leave a cap a hair below max|a_ij| (0.9999999999999998
    # for [[0, 1], [1, 0]]) or the ascent a hair above a cap
    lo = max(scale, min(_ascent_lb(m), hi))
    upper = max(hi, lo)
    floor, top = lo, upper
    level = lo * (1.0 + 0.5 * rel_gap)
    warm = None
    left = budget
    for _ in range(max_depth):
        if left <= 0 or upper - lo <= rel_gap * upper or floor >= top:
            break
        cap = min(left, max(600, left // 3))
        ok, cand, used, x = _cb_probe(m, level, warm, cap, feas_tol, lo, rel_gap)
        left -= used
        upper = max(lo, min(upper, cand))
        warm = x
        if ok:
            top = level
        else:
            floor = level
        top = min(top, upper)
        level = 0.5 * (floor + top)
    return NormEstimate(lo, upper, "dykstra-bisection", iterations=budget - left)


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
