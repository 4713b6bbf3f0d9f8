"""Acceptance gate: end-to-end checks of the package's mathematical guarantees.

Each test prints exactly one line, `ACCEPTANCE <n> <name>: PASS|FAIL`, before
asserting, so a full run always shows the per-criterion outcome. Tolerances
and instance counts are pinned in the test bodies.
"""

import time

import numpy as np

from mufact import (
    ChoiMatrix,
    MixedUnitaryEnsemble,
    MufactError,
    biaverage_pm_oracle,
    choi_of,
    correction_pipeline,
    d_biaverage,
    delta_apply,
    delta_compress,
    depolarizing_ensemble,
    dist_upper_bound,
    halmos_dilate,
    kraus_from_choi,
    lift_channel,
    lift_schur,
    membership_solve,
    mu_ensemble_from_tuples,
    op_norm,
    random_correlation,
    random_haar_unitary,
    random_tuple_ensemble,
    rng_from_seed,
    schur_apply,
    schur_cb_norm,
    schur_norm_psd,
    superop_norm_lb,
    to_blocks,
    tuples_from_ensemble,
    verify_certificate,
    verify_channel,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {tag}{suffix}")
    return ok


def _rand_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_01_weyl_ensemble_depolarises():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 7):
        ens = depolarizing_ensemble(d)
        rng = rng_from_seed(d, (11,))
        for _ in range(100):
            x = _rand_complex((d, d), rng)
            want = np.trace(x) / d * np.eye(d)
            worst = max(worst, float(np.abs(ens.apply(x) - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    assert _report(
        1, "Weyl ensemble depolarises, d<=6, 100 inputs each, tol 1e-12",
        ok, f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_02_mu_ensemble_matches_lifted_multiplier():
    t0 = time.perf_counter()
    worst = 0.0
    for d, k in [(1, 4), (2, 2), (2, 3), (3, 2)]:
        ens = random_tuple_ensemble(k, d, 3, rng_from_seed(100 + 10 * d + k))
        c = ens.gram_average()
        mu = mu_ensemble_from_tuples(ens)
        got = choi_of(mu.apply, d * k)
        want = choi_of(lambda x: lift_schur(c, d, x), d * k)
        worst = max(worst, float(np.abs(got.matrix - want.matrix).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert _report(
        2, "tuple ensembles realise the lifted multiplier on the full basis, tol 1e-9",
        ok, f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_03_extraction_round_trip():
    worst = 0.0
    worst_off = 0.0
    for s in range(50):
        rng = rng_from_seed(200 + s)
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        ens = random_tuple_ensemble(k, d, m, rng)
        c = ens.gram_average()
        mu = mu_ensemble_from_tuples(ens)
        off = np.stack([to_blocks(u, d, k) for u in mu.unitaries])
        off[:, range(k), range(k)] = 0.0
        worst_off = max(worst_off, float(np.abs(off).max(initial=0.0)))
        rec = tuples_from_ensemble(mu, c, d, k)
        worst = max(worst, float(np.abs(rec.gram_average() - c).max()))
    ok = worst <= 1e-9 and worst_off <= 1e-10
    assert _report(
        3, "extraction round trip on 50 instances, Gram tol 1e-9, block tol 1e-10",
        ok, f"worst={worst:.2e}, worst_off={worst_off:.2e}",
    )


def test_04_delta_compression_identity_and_norm_bound():
    worst = 0.0
    flags_ok = True
    for s in range(50):
        rng = rng_from_seed(300 + s)
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        phi = MixedUnitaryEnsemble(
            rng.dirichlet(np.ones(n)),
            [random_haar_unitary(d * k, rng) for _ in range(n)],
        )
        compressed = kraus_from_choi(delta_compress(phi, d, k))
        rep = verify_channel(compressed)
        flags_ok = flags_ok and rep.cp and rep.tp and rep.unital
        nn = d * k
        e = np.zeros((nn, nn), dtype=complex)
        for a in range(nn):
            for b in range(nn):
                e[a, b] = 1.0
                lhs = delta_apply(phi.apply(delta_apply(e, d, k)), d, k)
                rhs = lift_channel(compressed, d, e)
                worst = max(worst, float(np.abs(lhs - rhs).max()))
                e[a, b] = 0.0
    excess = 0.0
    rng = rng_from_seed(333)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        g = _rand_complex((k, k), rng)
        a = g.conj().T @ g
        x = _rand_complex((d * k, d * k), rng)
        x = x / op_norm(x) * rng.uniform(0.2, 1.0)
        excess = max(excess, op_norm(lift_schur(a, d, x)) - schur_norm_psd(a))
    ok = worst <= 1e-9 and flags_ok and excess <= 1e-9
    assert _report(
        4, "compression gives a unital channel with the sandwich identity, tol 1e-9",
        ok, f"worst={worst:.2e}, norm excess={excess:.2e}",
    )


def test_05_diagonal_biaverage_matches_sign_oracle():
    worst = 0.0
    psd_ok = True
    for s in range(50):
        k = 2 + s % 3
        rng = rng_from_seed(400 + s)
        g = _rand_complex((k * k, k * k), rng)
        choi = ChoiMatrix(g.conj().T @ g, k)
        b = d_biaverage(choi)
        worst = max(worst, float(np.abs(b - biaverage_pm_oracle(choi)).max()))
        psd_ok = psd_ok and (
            np.linalg.eigvalsh(b).min() >= -1e-10 * (1.0 + np.linalg.norm(b))
        )
    ok = worst <= 1e-10 and psd_ok
    assert _report(
        5, "diagonal biaverage equals the sign-enumeration oracle, tol 1e-10",
        ok, f"worst={worst:.2e}, outputs PSD={psd_ok}",
    )


def test_06_unitary_dilation_of_contractions():
    t0 = time.perf_counter()
    worst_u = 0.0
    worst_c = 0.0
    for s in range(200):
        rng = rng_from_seed(500 + s)
        d = int(rng.integers(1, 9))
        z = _rand_complex((d, d), rng)
        x = z / op_norm(z)
        if s % 2:
            x = x * rng.uniform(0.1, 1.0)
        w = halmos_dilate(x)
        worst_u = max(worst_u, float(np.linalg.norm(w.conj().T @ w - np.eye(2 * d))))
        worst_c = max(
            worst_c,
            float(np.abs(w[:d, :d] - x).max()),
            float(np.abs(w[d:, d:] - x).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_u <= 1e-9 and worst_c <= 1e-12 and elapsed < 5.0
    assert _report(
        6, "200 contractions dilate to unitaries with both corners intact, tol 1e-9",
        ok, f"unitarity={worst_u:.2e}, corners={worst_c:.2e}, {elapsed:.2f}s",
    )


def test_07_correction_pipeline_bound_and_fixed_point():
    combos = [
        (d, k, eps) for d in (1, 2) for k in (2, 3, 4) for eps in (0.02, 0.1, 0.3)
    ]
    bound_ok = True
    certs_ok = True
    worst_ratio = 0.0
    for s in range(50):
        d, k, eps = combos[s % len(combos)]
        t = eps / 2.0
        rng = rng_from_seed(600 + s)
        e0 = random_tuple_ensemble(k, d, 3, rng)
        e1 = random_tuple_ensemble(k, d, 3, rng)
        c = (1.0 - t) * e0.gram_average() + t * e1.gram_average()
        rep = correction_pipeline(c, mu_ensemble_from_tuples(e0), eps, d)
        bound_ok = bound_ok and rep.max_abs_delta < 2.0 * eps
        worst_ratio = max(worst_ratio, rep.max_abs_delta / (2.0 * eps))
        try:
            verify_certificate(rep.certificate, tol=1e-10)
        except MufactError:
            certs_ok = False
    worst_exact = 0.0
    for d, k in [(1, 3), (2, 2)]:
        ens = random_tuple_ensemble(k, d, 2, rng_from_seed(660 + d))
        rep = correction_pipeline(
            ens.gram_average(), mu_ensemble_from_tuples(ens), 1e-6, d
        )
        worst_exact = max(worst_exact, rep.max_abs_delta)
    ok = bound_ok and certs_ok and worst_exact <= 1e-9
    assert _report(
        7, "correction stays below 2*epsilon with verifying certificates, cert tol 1e-10",
        ok, f"worst delta/2eps={worst_ratio:.3f}, exact={worst_exact:.2e}",
    )


def test_08_membership_recovers_planted_rank_one_mixtures():
    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for s in range(20):
        target = random_tuple_ensemble(4, 1, 3, rng_from_seed(1000 + s)).gram_average()
        cert = membership_solve(
            target, 1, restarts=20, max_iters=300, tol=1e-5, seed=s
        )
        if cert.residual_fro <= 1e-4:
            hits += 1
        worst = max(worst, cert.residual_fro)
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and elapsed < 60.0
    assert _report(
        8, "planted k=4 mixtures recovered at d=1, residual 1e-4, >=18/20 seeds",
        ok, f"hits={hits}/20, worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_09_distance_bound_monotone_under_dimension_doubling():
    target = random_tuple_ensemble(4, 2, 3, rng_from_seed(3100)).gram_average()
    b2 = dist_upper_bound(target, 2, restarts=20, max_iters=300, tol=1e-6, seed=0)
    b4 = dist_upper_bound(target, 4, restarts=20, max_iters=300, tol=1e-6, seed=0)
    ok = b2.value <= 1e-4 and b4.value <= 1e-4 and b4.value <= b2.value
    assert _report(
        9, "planted distance bounds at d=2 and d=4 below 1e-4 and non-increasing",
        ok, f"d2={b2.value:.2e}, d4={b4.value:.2e}",
    )


def test_10_cb_norm_brackets():
    worst_gap = 0.0
    for s in range(50):
        rng = rng_from_seed(s)
        k = int(rng.integers(2, 7))
        scale = abs(rng.normal()) + 0.5
        a = scale * random_correlation(k, rng)
        md = schur_norm_psd(a)
        est = schur_cb_norm(a, rel_gap=1e-5)
        worst_gap = max(worst_gap, est.upper - md, md - est.lower, 0.0)
    sandwich_ok = True
    for s in range(100, 150):
        rng = rng_from_seed(s)
        k = int(rng.integers(2, 7))
        z = _rand_complex((k, k), rng)
        h = 0.5 * (z + z.conj().T)
        est = schur_cb_norm(h)
        lb = superop_norm_lb(lambda x: schur_apply(h, x), dim=k, seed=s)
        sandwich_ok = sandwich_ok and (
            lb <= est.upper + 1e-6 and est.upper <= k * lb + 1e-4
        )
    ok = worst_gap <= 1e-4 and sandwich_ok
    assert _report(
        10, "cb bracket hits max-diagonal on PSD symbols (1e-4) and the k-sandwich",
        ok, f"worst PSD gap={worst_gap:.2e}, sandwich={sandwich_ok}",
    )
