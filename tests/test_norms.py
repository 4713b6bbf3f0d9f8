"""Unit tests for Schur multiplier norm brackets and the superoperator bound."""

from dataclasses import replace

import numpy as np
import pytest

from mufact import (
    MufactError,
    NormEstimate,
    NotPSD,
    ShapeMismatch,
    random_correlation,
    rng_from_seed,
    schur_apply,
    schur_cb_norm,
    schur_norm_psd,
    superop_norm_lb,
)
from mufact import norms
from mufact.channels import KrausChannel, choi_of, to_blocks
from mufact.linalg import random_haar_unitaries


# Indefinite residuals C - achieved of the d = 1 solver on the 4x4 targets
# random_correlation(4, rng_from_seed(seed)), recorded bit for bit from
# membership_solve(c, 1, atoms=5, restarts=2, max_iters=40, tol=1e-6, seed=0)
# at the projected-gradient weight step. Row-major (re, im) pairs as
# float.hex, so the pinned bounds below do not move with solver bits.
_RESIDUALS = {
    0: (
        "0x1.0000000000000p-53 0x0.0p+0 0x1.5489000000000p-37 -0x1.63cfe00000000p-38",
        "0x1.ada8d00000000p-34 0x1.2e5ac00000000p-33 -0x1.380f400000000p-36 -0x1.4048b80000000p-33",
        "0x1.5489000000000p-37 0x1.63cfe00000000p-38 0x1.8000000000000p-52 0x0.0p+0",
        "0x1.43f5400000000p-37 -0x1.0aa7000000000p-37 -0x1.87fc800000000p-38 0x1.2652100000000p-36",
        "0x1.ada8d00000000p-34 -0x1.2e5ac00000000p-33 0x1.43f5400000000p-37 0x1.0aa7000000000p-37",
        "0x1.0000000000000p-52 0x0.0p+0 0x1.8f86a00000000p-33 0x1.bdbd300000000p-34",
        "-0x1.380f400000000p-36 0x1.4048b80000000p-33 -0x1.87fc800000000p-38 -0x1.2652100000000p-36",
        "0x1.8f86a00000000p-33 -0x1.bdbd300000000p-34 -0x1.0000000000000p-51 0x0.0p+0",
    ),
    12: (
        "-0x1.0000000000000p-51 0x0.0p+0 -0x1.0700e70000000p-30 0x1.31a9f18000000p-29",
        "-0x1.8ccfb80000000p-33 -0x1.96bcf80000000p-30 0x1.2baa400000000p-31 -0x1.54ee298000000p-30",
        "-0x1.0700e70000000p-30 -0x1.31a9f18000000p-29 0x0.0p+0 0x0.0p+0",
        "0x1.3f12010000000p-30 -0x1.ee2c7b0000000p-30 0x1.1ff4500000000p-29 -0x1.5726280000000p-32",
        "-0x1.8ccfb80000000p-33 0x1.96bcf80000000p-30 0x1.3f12010000000p-30 0x1.ee2c7b0000000p-30",
        "-0x1.0000000000000p-52 0x0.0p+0 -0x1.948bd10000000p-32 -0x1.22ec340000000p-30",
        "0x1.2baa400000000p-31 0x1.54ee298000000p-30 0x1.1ff4500000000p-29 0x1.5726280000000p-32",
        "-0x1.948bd10000000p-32 0x1.22ec340000000p-30 0x0.0p+0 0x0.0p+0",
    ),
    40: (
        "-0x1.0000000000000p-52 0x0.0p+0 0x1.76c4f33d49f40p-7 0x1.03a91971c0a10p-7",
        "-0x1.859683bd5f800p-12 0x1.a822c059a9890p-8 -0x1.5e976bc49c7c0p-7 0x1.8e5b0a46bd000p-13",
        "0x1.76c4f33d49f40p-7 -0x1.03a91971c0a10p-7 0x1.0000000000000p-51 0x0.0p+0",
        "0x1.9495feb59e700p-8 -0x1.c8920e159abc0p-8 0x1.3cfdf98d1d600p-11 -0x1.5f76e355a4140p-7",
        "-0x1.859683bd5f800p-12 -0x1.a822c059a9890p-8 0x1.9495feb59e700p-8 0x1.c8920e159abc0p-8",
        "0x1.0000000000000p-52 0x0.0p+0 0x1.ef8da54c791b0p-9 0x1.adf11d45c8f00p-9",
        "-0x1.5e976bc49c7c0p-7 -0x1.8e5b0a46bd000p-13 0x1.3cfdf98d1d600p-11 0x1.5f76e355a4140p-7",
        "0x1.ef8da54c791b0p-9 -0x1.adf11d45c8f00p-9 0x1.0000000000000p-52 0x0.0p+0",
    ),
}


def _residual(seed):
    """The recorded 4x4 solver residual of seed 0, 12 or 40."""
    pairs = " ".join(_RESIDUALS[seed]).split()
    return np.array([float.fromhex(t) for t in pairs]).view(complex).reshape(4, 4)


def _split_cap(a):
    """The closed-form split cap the split factorisation replaced: the sum,
    over the positive and negative parts P_t of A's Hermitian and skew
    parts, of max_i (P_t)_ii."""
    total = 0.0
    for h in (0.5 * (a + a.conj().T), 0.5j * (a.conj().T - a)):
        vals, vecs = np.linalg.eigh(h)
        weight = np.abs(vecs) ** 2
        for part in (np.clip(vals, 0.0, None), np.clip(-vals, 0.0, None)):
            total += float((weight @ part).max(initial=0.0))
    return total


def _caps(a):
    """Closed-form upper ends, plus the few ulps by which rounding can leave
    one below max|a_ij|, where `schur_cb_norm` lifts it."""
    rows = float(np.linalg.norm(a, axis=1).max())
    cols = float(np.linalg.norm(a, axis=0).max())
    return min(rows, cols, _split_cap(a)) * (1.0 + 1e-15)


def test_bracket_invariant():
    NormEstimate(1.0, 1.0)
    with pytest.raises(MufactError):
        NormEstimate(1.0, 0.5)
    # the check is relative: a tenfold inversion at 1e-10 is still inverted
    NormEstimate(1e-10 * (1.0 + 1e-12), 1e-10)
    with pytest.raises(MufactError):
        NormEstimate(1e-9, 1e-10)


def test_cb_norm_zero_symbol():
    est = schur_cb_norm(np.zeros((3, 3)))
    assert est.lower == est.upper == 0.0


def test_cb_norm_rejects_non_square():
    for fill in (0.0, 1.0):
        with pytest.raises(ShapeMismatch, match="must be square"):
            schur_cb_norm(np.full((2, 3), fill))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cb_norm_rejects_a_non_finite_symbol(bad):
    # a NaN once came back as a NaN bracket
    with pytest.raises(MufactError, match="^symbol has an entry that is not finite$"):
        schur_cb_norm([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cb_norm_rejects_a_symbol_whose_frobenius_norm_overflows():
    with pytest.raises(MufactError, match="^symbol has a non-finite Frobenius norm$"):
        schur_cb_norm([[1e308, 1e308], [0.0, 1.0]])


def test_cb_norm_of_identity_symbol():
    # S_I keeps the diagonal: cb norm 1, closed by the caps of a PSD symbol
    est = schur_cb_norm(np.eye(4))
    assert est.lower == est.upper == 1.0
    assert est.iterations == 0


def test_cb_norm_of_all_ones_symbol():
    # S_J is the identity map
    est = schur_cb_norm(np.ones((4, 4)))
    assert est.lower >= 1.0 - 1e-9
    assert est.upper <= 1.0 + 1e-3


def test_cb_norm_of_offdiagonal_symbol_is_exact():
    # row and column bounds pinch the bracket shut without a certificate step
    est = schur_cb_norm(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert est.lower == est.upper == 1.0
    assert est.iterations == 0


def test_cb_norm_of_sign_rank_one():
    s = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    est = schur_cb_norm(np.outer(s, s))
    assert est.lower >= 1.0 - 1e-9
    assert est.upper <= 1.0 + 1e-3


def test_cb_norm_is_deterministic():
    # an indefinite symbol, so the certificate steps run
    a = _residual(12)
    e1 = schur_cb_norm(a)
    assert e1.iterations > 0
    assert schur_cb_norm(a) == e1


@pytest.mark.parametrize("symbol", ["indefinite", "psd"])
def test_every_svd_of_the_bracket_is_a_certificate_step(monkeypatch, symbol):
    # one SVD per certificate step sets both ends; nothing else decomposes
    if symbol == "indefinite":
        a = _residual(12)
    else:
        a = 1.7 * random_correlation(5, rng_from_seed(13))
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    est = schur_cb_norm(a)
    assert len(calls) == est.iterations
    assert (est.iterations > 0) == (symbol == "indefinite")


def _witness_symbols(family):
    """Acceptance 10's PSD or Hermitian symbols, or complex k = 2-6 ones."""
    for s in range(50):
        if family == "psd":
            rng = rng_from_seed(s)
            k = int(rng.integers(2, 7))
            scale = abs(rng.normal()) + 0.5
            yield scale * random_correlation(k, rng)
            continue
        rng = rng_from_seed(100 + s) if family == "hermitian" else np.random.default_rng(900 + s)
        k = int(rng.integers(2, 7))
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        yield 0.5 * (z + z.conj().T) if family == "hermitian" else z


@pytest.mark.parametrize("family", ["psd", "hermitian", "complex"])
def test_witnesses_reproduce_both_ends_and_bound_the_operator_norm(family):
    for a in _witness_symbols(family):
        est = schur_cb_norm(a)
        est.check(a)
        x, y, w = est.lower_witness
        assert x.min() >= 0.0 and y.min() >= 0.0
        # ||A o w|| >= |x^T (A o w) y| = lower; rounding can put it an ulp under
        assert est.lower * (1.0 - 1e-12) <= est.witness_norm(a) <= est.upper
        if family == "psd":
            # no step runs: max|a_ij| and a starting factorisation are the witnesses
            r, c = est.upper_witness
            assert est.iterations == 0 and r.shape[0] == c.shape[1] == a.shape[0]


def test_a_tampered_witness_fails_check():
    a = _residual(12)
    est = schur_cb_norm(a)
    est.check(a)
    x, y, w = est.lower_witness
    r, c = est.upper_witness
    scaled = replace(est, lower_witness=(x, y, 1.01 * w))
    with pytest.raises(MufactError, match="unitary"):
        scaled.check(a)
    nudged = r.copy()
    nudged[0, 0] += 1e-6 * np.abs(r).max()
    with pytest.raises(MufactError, match="upper end"):
        replace(est, upper_witness=(nudged, c)).check(a)
    with pytest.raises(MufactError, match="lower end"):
        replace(est, lower=0.99 * est.lower).check(a)
    # a string is no factorisation, nor is a third factor; neither may
    # leak numpy's ValueError
    for other in ("split", "rc", (r, c, c)):
        with pytest.raises(MufactError, match="do not fit"):
            replace(est, upper_witness=other).check(a)
    with pytest.raises(MufactError, match="do not fit"):
        replace(est, lower_witness=(x, y)).check(a)
    for other in (a[:-1, :-1], np.pad(a, ((0, 1), (0, 1))), a[:, :-1]):
        with pytest.raises(MufactError, match="do not fit"):
            est.check(other)
        with pytest.raises(ShapeMismatch, match="witness fits a symbol of shape"):
            est.witness_norm(other)
    with pytest.raises(MufactError, match="do not fit"):
        replace(est, upper_witness=(r[:, :-1], c)).check(a)


@pytest.mark.parametrize("where", ["x", "y", "w", "r", "c"])
def test_a_nan_witness_fails_check(where):
    a = _residual(12)
    est = schur_cb_norm(a)
    parts = dict(zip("xyw", est.lower_witness)) | dict(zip("rc", est.upper_witness))
    parts = {name: v.copy() for name, v in parts.items()}
    parts[where].flat[0] = np.nan
    tampered = replace(
        est,
        lower_witness=(parts["x"], parts["y"], parts["w"]),
        upper_witness=(parts["r"], parts["c"]),
    )
    with pytest.raises(MufactError):
        tampered.check(a)


def test_witness_norm_rejects_a_symbol_that_is_not_finite():
    # a NaN symbol once reached numpy's "SVD did not converge"
    est = schur_cb_norm(np.array([[1.0, 0.5], [0.5, -1.0]]))
    with pytest.raises(MufactError, match="^symbol has an entry that is not finite$"):
        est.witness_norm(np.full((2, 2), np.nan))


def test_the_entry_witness_is_a_cyclic_shift_at_the_largest_entry():
    a = np.array([[0.5, 0.1, 0.0], [0.2, 0.3, -2.0j], [1.0, 0.0, 0.4]])
    est = schur_cb_norm(a)
    est.check(a)
    x, y, w = est.lower_witness
    assert est.lower == 2.0
    assert x.tolist() == [0.0, 1.0, 0.0] and y.tolist() == [0.0, 0.0, 1.0]
    assert w.tolist() == np.roll(np.eye(3), 1, axis=1).tolist()


@pytest.mark.parametrize("shape", [(3, 3), (0, 0)])
def test_a_zero_symbol_has_no_witness_and_passes_check(shape):
    z = np.zeros(shape)
    est = schur_cb_norm(z)
    assert est.lower_witness is None and est.upper_witness is None
    est.check(z)
    assert est.witness_norm(z) == 0.0
    with pytest.raises(MufactError, match="zero symbol"):
        est.check(np.eye(3))


def test_cb_bracket_contains_max_diagonal_for_psd():
    rng = rng_from_seed(13)
    a = 1.7 * random_correlation(5, rng)
    md = schur_norm_psd(a)
    est = schur_cb_norm(a, rel_gap=1e-5)
    assert est.lower <= md + 1e-4
    assert est.upper >= md - 1e-4
    assert est.upper - est.lower <= 1e-3


def test_cb_bracket_of_a_psd_gram_symbol_closes_on_its_norm():
    # for a PSD symbol max|a_ij| = max a_ii is the norm, so the bracket
    # closes on it with no certificate step; the diagonal here is not constant
    g = np.random.default_rng(1).standard_normal((4, 4))
    a = g.T @ g
    est = schur_cb_norm(a)
    assert est.lower == pytest.approx(schur_norm_psd(a), abs=1e-12)
    assert est.upper - est.lower <= 1e-4 * est.upper
    assert est.iterations == 0


def test_cb_lower_never_exceeds_max_diagonal_on_psd_symbols():
    # the seeds and sizes of acceptance criterion 10, plus a Gram symbol
    # with a non-constant diagonal drawn from the same stream
    for s in range(50):
        rng = rng_from_seed(s)
        k = int(rng.integers(2, 7))
        scale = abs(rng.normal()) + 0.5
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        for a in (scale * random_correlation(k, rng), g.conj().T @ g):
            md = float(np.real(np.diagonal(a)).max())
            est = schur_cb_norm(a)
            assert est.lower <= md + 1e-12
            assert est.upper - est.lower <= 1e-4 * est.upper


def test_certificate_steps_close_an_indefinite_bracket_inside_the_caps():
    rng = rng_from_seed(17)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (z + z.conj().T)
    est = schur_cb_norm(h)
    assert est.iterations > 0
    assert np.abs(h).max() <= est.lower <= est.upper < _caps(h)
    assert est.upper - est.lower <= 1e-4 * est.upper
    assert superop_norm_lb(lambda x: schur_apply(h, x), dim=4) <= est.upper


def test_cb_bracket_closes_on_every_hermitian_symbol_of_acceptance_10():
    # the seeds and draws of acceptance criterion 10's Hermitian symbols
    for s in range(100, 150):
        rng = rng_from_seed(s)
        k = int(rng.integers(2, 7))
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        h = 0.5 * (z + z.conj().T)
        est = schur_cb_norm(h)
        assert np.abs(h).max() <= est.lower <= est.upper <= _caps(h)
        assert est.upper - est.lower <= 1e-4 * est.upper, s


def test_cb_bracket_closes_on_a_residual_of_order_1e_10():
    a = _residual(0)
    assert 1e-11 < np.abs(a).max() < 1e-9
    est = schur_cb_norm(a)
    assert np.abs(a).max() <= est.lower <= est.upper
    assert est.upper - est.lower <= 1e-4 * est.upper


def _degenerate_and_random_symbols():
    rng = rng_from_seed(19)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    zero_row_col = cplx(5, 5)
    zero_row_col[2, :] = 0.0
    zero_row_col[:, 2] = 0.0
    u, v = cplx(4), cplx(4)
    cases = {
        "k1": np.array([[-0.7 + 0.2j]]),
        "k1-psd": np.array([[2.5]]),
        "zero-row-and-column": zero_row_col,
        "rank-one": np.outer(u, v),
        "rank-one-psd": np.outer(v, v.conj()),
    }
    for k in range(2, 9):
        cases[f"random-k{k}"] = cplx(k, k)
    return cases


SYMBOLS = _degenerate_and_random_symbols()


@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_cb_bracket_is_sound_on_degenerate_and_random_symbols(name):
    a = SYMBOLS[name]
    est = schur_cb_norm(a)
    scale = float(np.abs(a).max())
    assert scale <= est.lower <= est.upper <= _caps(a)
    assert est.upper - est.lower <= 1e-4 * est.upper
    lb = superop_norm_lb(lambda x: schur_apply(a, x), dim=a.shape[0])
    assert lb <= est.upper + 1e-9 * (1.0 + scale)
    if name.endswith("psd"):
        md = float(np.real(np.diagonal(a)).max())
        assert est.lower == pytest.approx(md, rel=1e-12)
        assert est.iterations == 0


def test_cb_lower_stays_below_a_tighter_certified_upper_on_a_residual():
    # an indefinite residual of the d = 1 solver; the bounds are the lower
    # end and the best upper end that a 60,000-step Dykstra bisection
    # certified on it
    a = _residual(40)
    est = schur_cb_norm(a)
    tight = schur_cb_norm(a, rel_gap=1e-6)
    assert np.abs(a).max() <= est.lower <= est.upper <= 0.016512014469712545
    assert est.lower == pytest.approx(0.016508159481513324, rel=1e-12)
    assert est.upper - est.lower <= 1e-4 * est.upper
    assert tight.lower <= tight.upper <= est.upper
    assert tight.upper - tight.lower <= 1e-6 * tight.upper


def _split_symbols():
    """Complex, Hermitian, real, PSD and rank-one symbols, k = 1-6."""
    rng = rng_from_seed(18)
    for k in range(1, 7):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        yield "complex", g
        yield "hermitian", g + g.conj().T
        yield "real", g.real
        yield "psd", g.conj().T @ g
        yield "psd", np.outer(v, v.conj())
        yield "rank-one", np.outer(v, g[0])


def test_split_factors_factor_the_symbol_and_undercut_the_split_cap():
    for family, a in _split_symbols():
        r, c = norms._split_factors(a)
        assert np.abs(r @ c - a).max() <= 1e-12 * (1.0 + np.linalg.norm(a))
        rows, cols = np.linalg.norm(r, axis=1), np.linalg.norm(c, axis=0)
        assert rows == pytest.approx(cols, rel=1e-14, abs=0.0)
        bound = norms._factor_bound(a, r, c)[0]
        assert bound <= _split_cap(a) * (1.0 + 1e-12)
        if family == "psd":
            assert bound == pytest.approx(np.real(np.diagonal(a)).max(), rel=1e-12)
        # the bracket starts no higher; rounding can leave the bound an ulp
        # under max|a_ij|, which lifts the upper end
        est = schur_cb_norm(a)
        assert est.lower <= est.upper <= max(bound, est.lower)


def test_schur_norm_psd_is_max_diagonal():
    rng = rng_from_seed(14)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = g.conj().T @ g
    assert schur_norm_psd(a) == pytest.approx(np.diagonal(a).real.max(), abs=1e-12)
    # an eigenvalue above the PSD floor -1e-10 (1 + ||A||_F) still passes
    assert schur_norm_psd(np.diag([1.0, -1e-12])) == 1.0
    with pytest.raises(NotPSD):
        schur_norm_psd([[1.0, 2.0], [2.0, 1.0]])


def test_schur_norm_psd_rejects_a_symbol_whose_norm_squares_overflow():
    # squaring its entries overflows, though ||C||_F = 1.4e308 is a float
    with pytest.raises(NotPSD):
        schur_norm_psd([[1.0, 1e308], [1e308, 1.0]])


def test_superop_lb_on_identity_like_maps():
    # S_J is the identity map on 3x3 matrices: norm exactly 1
    j = np.ones((3, 3))
    lb = superop_norm_lb(lambda x: schur_apply(j, x), dim=3)
    assert abs(lb - 1.0) <= 1e-9


def test_superop_lb_on_unitary_conjugation():
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    lb = superop_norm_lb(lambda x: u @ x @ u.conj().T, dim=2)
    assert abs(lb - 1.0) <= 1e-9


def test_superop_lb_never_exceeds_cb_upper():
    rng = rng_from_seed(15)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (z + z.conj().T)
    est = schur_cb_norm(h)
    lb = superop_norm_lb(lambda x: schur_apply(h, x), dim=4)
    assert lb <= est.upper + 1e-6


def test_superop_lb_is_pinned_on_a_fixed_symbol_and_seed(monkeypatch):
    # pins the seeded Haar starts: drawing them any other way moves this value
    a = np.array([[1.0, 0.5, -0.25], [0.5, 1.0, 0.75], [-0.25, 0.75, 1.0]])

    def lb(seed):
        return superop_norm_lb(lambda x: schur_apply(a, x), dim=3, seed=seed)

    assert lb(5) == 1.0192306777076252
    assert lb(6) == 1.0192295975436054
    # the cyclic shifts alone stay at the identity's value
    monkeypatch.setattr(norms, "_SUPEROP_STARTS", 0)
    assert lb(5) == 1.0


def test_superop_lb_of_a_map_on_empty_matrices_is_zero():
    assert superop_norm_lb(lambda x: x, dim=0) == 0.0


def test_superop_lb_rejects_a_map_whose_choi_matrix_is_not_finite():
    # a NaN Choi matrix once reached numpy's "SVD did not converge"
    with pytest.raises(MufactError, match="^Choi matrix has an entry that is not finite$"):
        superop_norm_lb(lambda x: np.nan * x, dim=2)


def _polar(x):
    """Unitary polar factor P @ Qh of X = P diag(s) Qh; I for X = 0."""
    p, _, qh = np.linalg.svd(np.asarray(x, dtype=complex))
    return p @ qh


def _superop_ascent_reference(phi, dim=None, seed=0):
    """Reference `superop_norm_lb`: the gradient ascent with a tuned step
    schedule and a `polar` retraction that the alternating steps replaced,
    from the same starts and under the same step cap."""
    choi = choi_of(phi, dim)
    n = choi.k
    if n == 0:
        return 0.0
    basis = to_blocks(choi.matrix, n, n)

    def value(u):
        return np.einsum("ab,abrs->rs", u, basis)

    inits = [np.roll(np.eye(n, dtype=complex), s, axis=0) for s in range(n)]
    rng = rng_from_seed(seed, (0xD0,))
    inits += [*random_haar_unitaries((norms._SUPEROP_STARTS,), n, rng)]

    best = 0.0
    for u0 in inits:
        u = np.asarray(u0, dtype=complex)
        w = value(u)
        pmat, s, qh = np.linalg.svd(w)
        f = float(s[0])
        best = max(best, f)
        step = 0.2
        for _ in range(norms._SUPEROP_ITERS):
            lvec = np.conj(pmat[:, 0])
            rvec = np.conj(qh[0])
            grad = np.conj(np.einsum("r,abrs,s->ab", lvec, basis, rvec))
            cand = _polar(u + step * grad)
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


def _comparison_symbols():
    """Acceptance 10's Hermitian symbols (seeds 100-149, k in 2..6) and
    complex symbols of seeds 200-299 with k in 2..8, with their seeds."""
    for s in range(100, 300):
        rng = rng_from_seed(s)
        k = int(rng.integers(2, 7 if s < 150 else 9))
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        if s < 150:
            yield s, 0.5 * (z + z.conj().T)
        elif s >= 200:
            yield s, z


def test_superop_lb_is_sound_and_no_looser_than_the_ascent_it_replaced():
    for s, a in _comparison_symbols():
        k = a.shape[0]
        lb = superop_norm_lb(lambda x: schur_apply(a, x), dim=k, seed=s)
        want = _superop_ascent_reference(lambda x: schur_apply(a, x), dim=k, seed=s)
        assert lb <= schur_cb_norm(a).upper * (1.0 + 1e-9), s
        assert lb >= want * (1.0 - 1e-5), s


def test_superop_lb_matches_the_ascent_it_replaced_on_kraus_maps():
    # a CP map attains its norm at the identity, one of the starts
    for s in range(400, 450):
        rng = rng_from_seed(s)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        phi = KrausChannel(rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        want = _superop_ascent_reference(phi, seed=s)
        assert superop_norm_lb(phi, seed=s) == pytest.approx(want, rel=1e-12, abs=0.0), s
