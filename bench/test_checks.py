"""Each benchmark check accepts mufact's real output and rejects a wrong one.

    python3 -m pytest bench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from mufact import (  # noqa: E402
    correction_pipeline,
    dist_upper_bound,
    membership_solve,
    mu_ensemble_from_tuples,
    random_tuple_ensemble,
    rng_from_seed,
    schur_apply,
    schur_cb_norm,
    schur_norm_psd,
    superop_norm_lb,
    tuples_from_ensemble,
)


def _lifted(d=2, k=3, atoms=2):
    ens = random_tuple_ensemble(k, d, atoms, rng_from_seed(5))
    mu = mu_ensemble_from_tuples(ens)
    x = np.random.default_rng(0).standard_normal((d * k, d * k)) + 0j
    return ens, mu, x


def test_mu_ensemble_check():
    ens, mu, x = _lifted()
    c = ens.gram_average()
    checks.check_mu_ensemble(mu.weights, mu.unitaries, c, 2, 2, x)
    with pytest.raises(CheckFailed, match="members"):
        checks.check_mu_ensemble(mu.weights[1:], mu.unitaries[1:], c, 2, 2, x)
    leaky = mu.unitaries.copy()
    leaky[3, 0, 5] = 1e-6  # an entry of off-diagonal block (0, 2)
    with pytest.raises(CheckFailed, match="off-diagonal"):
        checks.check_mu_ensemble(mu.weights, leaky, c, 2, 2, x)
    wrong_c = c.copy()
    wrong_c[0, 1] += 1e-6
    with pytest.raises(CheckFailed, match="lifted multiplier"):
        checks.check_mu_ensemble(mu.weights, mu.unitaries, wrong_c, 2, 2, x)


def test_extracted_check():
    ens, mu, _ = _lifted()
    c = ens.gram_average()
    rec = tuples_from_ensemble(mu, c, 2, 3)
    checks.check_extracted(rec.weights, rec.tuples, c)
    bent = rec.tuples.copy()
    bent[0, 1] *= np.exp(1e-6j)
    with pytest.raises(CheckFailed, match="planted C"):
        checks.check_extracted(rec.weights, bent, c)


def _repair(eps=0.1, d=2, k=3):
    rng = rng_from_seed(9)
    e0 = random_tuple_ensemble(k, d, 2, rng)
    e1 = random_tuple_ensemble(k, d, 2, rng)
    c = (1 - eps / 2) * e0.gram_average() + eps / 2 * e1.gram_average()
    rep = correction_pipeline(c, mu_ensemble_from_tuples(e0), eps, d)
    return c, rep.certificate.ensemble


def test_repair_check():
    c, ens = _repair()
    checks.check_repair(ens.weights, ens.tuples, c, 0.1)
    bad = ens.tuples.copy()
    bad[1, 2] *= 1.0 + 1e-6  # a non-unitary dilation
    with pytest.raises(CheckFailed, match="not unitary"):
        checks.check_repair(ens.weights, bad, c, 0.1)
    far = c.copy()
    far[0, 1] += 0.5
    far[1, 0] += 0.5
    with pytest.raises(CheckFailed, match="2\\*eps"):
        checks.check_repair(ens.weights, ens.tuples, far, 0.1)


def test_certificate_check():
    target = random_tuple_ensemble(4, 1, 1, rng_from_seed(3)).gram_average()
    cert = membership_solve(target, 1, tol=1e-8, seed=0)
    w, t = cert.ensemble.weights, cert.ensemble.tuples
    checks.check_certificate(w, t, cert.achieved, target, 1e-8)
    perturbed = cert.achieved.copy()
    perturbed[0, 2] += 1e-8
    with pytest.raises(CheckFailed, match="Gram average"):
        checks.check_certificate(w, t, perturbed, target, 1e-8)
    moved = target.copy()
    moved[0, 1] += 1e-7
    with pytest.raises(CheckFailed, match="above tol|> tol"):
        checks.check_certificate(w, t, cert.achieved, moved, 1e-8)


def _extreme(seed=4):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    v /= np.linalg.norm(v, axis=0)
    return v, np.conj(v).T @ v


def test_extremality_and_distance_checks():
    v, c = _extreme()
    assert checks.hermitian_span_rank(v) == 4
    assert checks.hermitian_span_rank(v[:, [0, 1, 2, 2]]) == 3
    solver = dict(atoms=5, restarts=2, max_iters=40, tol=1e-6, seed=0)
    b1 = dist_upper_bound(c, 1, **solver)
    b2 = dist_upper_bound(c, 2, **solver)
    r1 = checks.check_gram(b1.certificate.ensemble.weights, b1.certificate.ensemble.tuples,
                           b1.certificate.achieved, c)
    r2 = c - b2.certificate.achieved
    checks.check_outside(r1, 1e-6)
    checks.check_distances(b1.value, b2.value, r1, r2)
    with pytest.raises(CheckFailed, match="outside the d=1 set"):
        checks.check_outside(r1 * 1e-9, 1e-6)
    with pytest.raises(CheckFailed, match="rose"):
        checks.check_distances(b1.value, b1.value * 1.01, r1, r1)
    with pytest.raises(CheckFailed, match="below max"):
        checks.check_distances(0.5 * np.abs(r1).max(), 0.0, r1, 0 * r1)


def test_bracket_check():
    _, c = _extreme()
    a = c - membership_solve(c, 1, atoms=5, restarts=2, max_iters=40, tol=1e-6).achieved
    est = schur_cb_norm(a)
    lb = superop_norm_lb(lambda x: schur_apply(a, x), dim=4)
    checks.check_bracket(a, est.lower, est.upper, lb)
    with pytest.raises(CheckFailed, match="inverted"):
        checks.check_bracket(a, est.upper * 1.1, est.upper, lb)
    with pytest.raises(CheckFailed, match="max\\|a_ij\\|"):
        checks.check_bracket(a, 0.5 * np.abs(a).max(), est.upper, lb)
    with pytest.raises(CheckFailed, match="row-norm"):
        checks.check_bracket(a, est.lower, 2 * np.linalg.norm(a, axis=1).max(), 2 * lb)
    with pytest.raises(CheckFailed, match="superop lb"):
        checks.check_bracket(a, est.lower, est.upper, est.upper * 1.1)
    with pytest.raises(CheckFailed, match="k \\* superop"):
        checks.check_bracket(a, est.lower, est.upper, est.upper / 5)

    g = np.random.default_rng(1).standard_normal((4, 4)) + 0j
    g /= np.linalg.norm(g, axis=0)
    psd = 1.7 * (g.T @ g)  # a scaled correlation matrix, as in the workload
    md = float(np.real(np.diagonal(psd)).max())
    est = schur_cb_norm(psd)
    lb = superop_norm_lb(lambda x: schur_apply(psd, x), dim=4)
    checks.check_bracket(psd, est.lower, est.upper, lb, schur_norm_psd(psd))
    with pytest.raises(CheckFailed, match="close on"):
        checks.check_bracket(psd, est.lower, md * 1.01, lb, md)
    with pytest.raises(CheckFailed, match="psd norm"):
        checks.check_bracket(psd, est.lower, est.upper, lb, 0.9 * md)
