"""Operator and completely bounded norms of Schur multipliers.

For a Schur multiplier the norm and the cb norm coincide, and both equal
the least max_i ||r_i|| * max_j ||c_j|| over factorisations
a_ij = <r_i, c_j> (Haagerup; see Paulsen, *Completely Bounded Maps and
Operator Algebras*, ch. 8). So every factorisation certifies an upper end,
and every trace norm ||D_x A D_y||_1 at positive unit x, y (equal to
|x^T (A o W) y| for a unitary W) is a lower end. One SVD of D_x A D_y
gives both, a factorisation from its factors and the trace norm from its
singular values, so `schur_cb_norm` brackets the norm with one loop of
such steps; both ends are sound. Three factorisations with closed-form
bounds start the upper end: A = A I (the row norms), A = I A (the column
norms), and the split of A into the positive and negative parts of its
Hermitian and skew parts. So every upper end is a factorisation. The bracket keeps a witness for each end (the weights and
unitary (x, y, W) of the lower end, the factors (R, C) of the upper end),
and `NormEstimate.check` recomputes both ends from them. Since W is
unitary, ||A o W|| lies between the two ends: one more SVD gives a sound
lower bound on the operator norm of S_A, `NormEstimate.witness_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MufactError, NotPSD, ShapeMismatch
from .linalg import as_matrix, dagger, herm_eig, op_norm, rng_from_seed
from .linalg import below_psd_floor, random_haar_unitaries, require_finite, unitarity_defects
from .channels import UNITARY_TOL, choi_of, to_blocks

# certificate steps per bracket; acceptance 10's slowest symbol takes 1,473
_MAX_STEPS = 4000
# least certificate weight: at 1e-12 rounding in RC swamps the E term
_FLOOR = 1e-4
# drift that NormEstimate.check allows: in the ends, relative to the upper
# end, and in the weights' unit norms
WITNESS_TOL = 1e-12
# seeded Haar starts, and alternating steps per start, of superop_norm_lb
_SUPEROP_STARTS = 4
_SUPEROP_ITERS = 60


@dataclass
class NormEstimate:
    """Bracket [lower, upper] for a norm.

    `iterations` counts the certificate steps spent on the bracket. The
    witnesses are left out of equality. `lower_witness` is (x, y, w), unit
    nonnegative weights and a unitary with lower == |x^T (A o w) y|.
    `upper_witness` is the factors (r, c), a = rc up to rounding, of the
    factorisation that set the upper end: a certificate step's, or one of
    the three that start it. A zero symbol has neither.
    """

    lower: float
    upper: float
    iterations: int = 0
    lower_witness: tuple | None = field(default=None, compare=False, repr=False)
    upper_witness: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-9):
            raise MufactError(
                f"norm bracket is inverted: lower={self.lower!r} upper={self.upper!r}"
            )

    def witness_norm(self, a) -> float:
        """||A o w|| at the lower-end witness, 0.0 for a zero symbol.

        A sound lower bound on the operator norm of S_A, since w is
        unitary, and at least |x^T (A o w) y| = lower, since x and y are
        unit vectors; so it lies in [lower, upper]. One SVD. A symbol of
        another size than w raises ShapeMismatch; a NaN or infinite entry,
        or a Frobenius norm that overflows, MufactError.
        """
        if self.lower_witness is None:
            return 0.0
        m, w = as_matrix(a), self.lower_witness[2]
        if m.shape != np.shape(w):
            raise ShapeMismatch(f"the witness fits a symbol of shape {np.shape(w)}, not {m.shape}")
        return op_norm(require_finite(m, "symbol") * w)

    def check(self, a) -> None:
        """Recompute both ends of a's bracket from the witnesses.

        Raises MufactError unless the witnesses fit a's size, the weights
        are nonnegative with norm 1 within WITNESS_TOL, w is unitary within
        UNITARY_TOL, and both recomputed ends are within WITNESS_TOL * upper
        of the reported ones.
        """
        m = as_matrix(a)
        if self.lower_witness is None or self.upper_witness is None:
            if self.lower == self.upper == 0.0 == np.abs(m).max(initial=0.0):
                return
            raise MufactError("only a zero symbol's bracket may lack witnesses")
        misfit = MufactError(f"the witnesses do not fit a symbol of shape {m.shape}")
        forms = ((self.lower_witness, 3), (self.upper_witness, 2))
        if not all(isinstance(v, tuple) and len(v) == n for v, n in forms):
            raise misfit
        (x, y, w), (r, c) = self.lower_witness, self.upper_witness
        k = m.shape[0]
        fits = m.shape == (k, k) and np.shape(x) == np.shape(y) == (k,) and np.shape(w) == (k, k)
        fits = fits and np.ndim(r) == np.ndim(c) == 2 and (
            np.shape(r)[0] == np.shape(c)[1] == k and np.shape(r)[1] == np.shape(c)[0]
        )
        if not fits:
            raise misfit
        for v in (x, y):
            if not (v.min() >= 0.0 and abs(np.linalg.norm(v) - 1.0) <= WITNESS_TOL):
                raise MufactError("lower-end weights are not unit and nonnegative")
        if not unitarity_defects(w) <= UNITARY_TOL:
            raise MufactError("lower-end witness is not unitary")
        lower = abs(x @ (m * w) @ y)
        upper = _factor_bound(m, r, c)[0]
        for end, fresh, given in (("lower", lower, self.lower), ("upper", upper, self.upper)):
            if not abs(fresh - given) <= WITNESS_TOL * self.upper:
                raise MufactError(f"{end} end {given!r} does not reproduce: witness gives {fresh!r}")


def schur_norm_psd(c) -> float:
    """Norm of a Schur multiplier with PSD symbol: the largest diagonal entry.

    For PSD symbols the operator and cb norms coincide with max_i c_ii.
    Raises NotPSD when the symbol is not PSD within tolerance.
    """
    a = as_matrix(c)
    vals = herm_eig(a)[0]
    if below_psd_floor(vals, a):
        raise NotPSD(f"symbol has eigenvalue {vals.min():.3e}")
    return float(max(0.0, np.real(np.diagonal(a)).max(initial=0.0)))


def _split_factors(m):
    """Factors (R, C) of A = H + iK from the eigendecompositions of H, K.

    With H = V diag(l) V*, R = V |l|^1/2 and C = sign(l) |l|^1/2 V*, so
    RC = H; iK's factors are stacked beside them, with an i in C. Row i of
    R and column i of C both have squared norm sum_t (P_t)_ii, summed over
    the positive and negative parts P_t of H and K, so their Haagerup bound
    is max_i sum_t (P_t)_ii: max_i a_ii for a PSD symbol.
    """
    rs, cs = [], []
    for h, phase in ((0.5 * (m + dagger(m)), 1.0), (0.5j * (dagger(m) - m), 1j)):
        vals, vecs = np.linalg.eigh(h)
        root = np.sqrt(np.abs(vals))
        rs.append(vecs * root)
        cs.append((phase * np.sign(vals) * root)[:, None] * dagger(vecs))
    return np.hstack(rs), np.vstack(cs)


def _row_col_bound(m) -> float:
    """cb bound min(max row norm, max column norm) of a symbol.

    a_ij = <conj(row_i), e_j> gives the row bound; columns likewise.
    """
    return float(min(np.linalg.norm(m, axis=1).max(), np.linalg.norm(m, axis=0).max()))


def _factor_bound(m, r, c):
    """cb bound of A from A ~ RC, with R's row and C's column norms.

    max_i ||R_i|| * max_j ||C^j|| bounds RC; the cb bound of E = A - RC
    (its smaller largest row or column norm) covers the rounding.
    """
    rows = np.linalg.norm(r, axis=1)
    cols = np.linalg.norm(c, axis=0)
    return float(rows.max() * cols.max()) + _row_col_bound(m - r @ c), rows, cols


def _reweigh(w, norms, trace: float):
    """Damped step toward norms_i**2 == trace, floored, then made unit."""
    w = np.maximum(w * (norms ** 2 / trace) ** 0.25, _FLOOR)
    return w / np.linalg.norm(w)


def schur_cb_norm(a, rel_gap: float = 1e-4) -> NormEstimate:
    """Bracket the cb norm of the Schur multiplier with symbol a.

    The lower end starts at max|a_ij|. The upper end starts at the least
    bound of three factorisations: A = A I (the row norms), A = I A (the
    column norms) and the split (see _split_factors), which gives a PSD
    symbol max_i a_ii, so it closes with no step. Otherwise certificate steps
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

    The estimate carries a witness for each end (see NormEstimate). The
    lower end's is (x, y, conj(U V*)) of the step that set it, since
    ||B||_1 = tr(U* B V) = x^T (A o conj(U V*)) y; while max|a_ij| still
    sets it, it is (e_i, e_j) and the cyclic shift with w_ij = 1. The upper
    end's is the (R, C) of the factorisation that set it. A non-square
    symbol raises ShapeMismatch; a NaN or infinite entry, or a Frobenius
    norm that overflows, MufactError.
    """
    m = require_finite(as_matrix(a), "symbol")
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"symbol must be square, got {m.shape}")
    k = m.shape[0]
    mag = np.abs(m)
    scale = float(mag.max(initial=0.0))
    if scale == 0.0 or k == 0:
        return NormEstimate(0.0, 0.0)
    i, j = divmod(int(mag.argmax()), k)
    eye = np.eye(k)
    lower, lower_by = scale, (eye[i], eye[j], np.roll(eye, j - i, axis=1))
    starts = ((m, eye), (eye, m), _split_factors(m))
    upper, upper_by = min(((_factor_bound(m, *rc)[0], rc) for rc in starts), key=lambda t: t[0])
    # rounding can leave a bound a hair below max|a_ij| (the split of a PSD
    # symbol, by an ulp)
    upper = max(upper, lower)
    x = y = np.full(k, k ** -0.5)
    steps = 0
    while steps < _MAX_STEPS and upper - lower > rel_gap * upper:
        steps += 1
        u, s, vh = np.linalg.svd(x[:, None] * m * y[None, :])
        root = np.sqrt(s)
        r = (u * root) / x[:, None]
        c = (root[:, None] * vh) / y[None, :]
        bound, rows, cols = _factor_bound(m, r, c)
        trace = float(s.sum())
        if bound < upper:
            upper, upper_by = bound, (r, c)
        if min(trace, upper) > lower:
            lower, lower_by = min(trace, upper), (x, y, np.conj(u @ vh))
        x = _reweigh(x, rows, trace)
        y = _reweigh(y, cols, trace)
    return NormEstimate(lower, upper, iterations=steps,
                        lower_witness=lower_by, upper_witness=upper_by)


def superop_norm_lb(phi, dim: int | None = None, seed: int = 0) -> float:
    """Lower bound on the operator norm of a map on n x n matrices.

    Climbs sigma_max(Phi(U)) over the unitary group by alternating
    maximisation. With B_ab = Phi(E_ab) and (u, v) the top singular pair
    of Phi(U), sigma_max(Phi(U)) = Re sum_ab U_ab G_ab, G_ab = u* B_ab v.
    A step sets U to P Q*, where conj(G) = P S Q*: the unitary that
    maximises that sum. At the new U, sigma_max(Phi(U)) >= Re u* Phi(U) v
    >= the old value, so no step lowers the bound and none needs a step
    size or an accept test. Every value is taken at a unitary, so the
    bound is sound; the norm over the unit ball is attained at a unitary
    (the extreme points), so the restriction loses nothing in principle.
    Deterministic starts are the n cyclic shift permutations (the identity
    among them), followed by _SUPEROP_STARTS seeded Haar unitaries; each
    start stops once a step gains at most 1e-14, or after _SUPEROP_ITERS
    steps. A Choi matrix with a NaN or infinite entry, or a Frobenius norm
    that overflows, raises MufactError.
    """
    choi = choi_of(phi, dim)
    require_finite(choi.matrix, "Choi matrix")
    n = choi.k
    if n == 0:
        return 0.0
    basis = to_blocks(choi.matrix, n, n)
    inits = [np.roll(np.eye(n, dtype=complex), s, axis=0) for s in range(n)]
    rng = rng_from_seed(seed, (0xD0,))
    inits += [*random_haar_unitaries((_SUPEROP_STARTS,), n, rng)]

    best = 0.0
    for u in inits:
        f = -np.inf
        for step in range(_SUPEROP_ITERS + 1):
            pmat, s, qh = np.linalg.svd(np.einsum("ab,abrs->rs", u, basis))
            best = max(best, float(s[0]))
            if step == _SUPEROP_ITERS or s[0] <= f + 1e-14:
                break
            f = s[0]
            g = np.einsum("r,abrs,s->ab", np.conj(pmat[:, 0]), basis, np.conj(qh[0]))
            pg, _, qg = np.linalg.svd(np.conj(g))
            u = pg @ qg
    return best
