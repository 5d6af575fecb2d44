"""Acceptance gate: one end-to-end check per shipped guarantee.

Each test prints one summary line (visible under ``pytest -s``):

    [acceptance] C<i> <name>: measured=... threshold=... PASS/FAIL [t<budget]

The measured statistic, its threshold, and the runtime budget are asserted
together, so a FAIL line always accompanies a test failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np

from credal_cert import (
    ConcentrationExperiment,
    CoverageExperiment,
    CredalSpec,
    GeometryExperiment,
    KernelSpec,
    PosteriorComplexity,
    ShiftScenario,
    UnbiasednessExperiment,
    analytic_mixture_mmd2,
    analytic_mmd2,
    brute_force_mmd2,
    complexity_term,
    estimate_rkhs_norm,
    gram_matrix,
    mmd2_unbiased,
    permutation_calibrate,
    risk_interval,
)

from conftest import DATA_DIR


def _report(idx, name, measured, threshold, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(
        f"[acceptance] C{idx} {name}: measured={measured} "
        f"threshold={threshold} {verdict} [{elapsed:.1f}s<{budget:g}s]",
        flush=True,
    )


def _scenario(seed=0):
    # canonical planar scenario: unit Gaussians, mean offset 0.5
    return ShiftScenario(
        d=2,
        mean_s=np.zeros(2),
        mean_t=np.array([0.5, 0.0]),
        var_s=1.0,
        var_t=1.0,
        gamma=0.5,
        seed=seed,
    )


def test_c01_estimator_oracle_equivalence():
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 9))
        spec = KernelSpec(gamma=float(rng.uniform(0.1, 2.0)))
        scale = float(rng.uniform(0.5, 2.0))
        Xs = scale * rng.standard_normal((m, d))
        Xt = scale * rng.standard_normal((n, d)) + rng.normal()
        u = mmd2_unbiased(Xs, Xt, spec).mmd2
        worst = max(worst, abs(u - brute_force_mmd2(Xs, Xt, spec)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < budget
    _report(1, "estimator_oracle_equivalence", f"{worst:.3e}", "<=1e-12", ok, elapsed, budget)
    assert ok


def test_c02_estimator_unbiasedness():
    budget, t0 = 60.0, time.perf_counter()
    scenario = _scenario()
    target = analytic_mmd2(scenario)

    # validate the closed form against a brute Monte-Carlo estimate of the
    # bilinear form E k(s,s') + E k(t,t') - 2 E k(s,t)
    N = 1_000_000
    rng = np.random.default_rng(404)
    gamma = scenario.gamma

    def pair_term(mean_a, var_a, mean_b, var_b):
        a = mean_a + math.sqrt(var_a) * rng.standard_normal((N, scenario.d))
        b = mean_b + math.sqrt(var_b) * rng.standard_normal((N, scenario.d))
        k = np.exp(-gamma * np.sum((a - b) ** 2, axis=1))
        return float(np.mean(k)), float(np.var(k, ddof=1)) / N

    e_ss, v_ss = pair_term(scenario.mean_s, scenario.var_s, scenario.mean_s, scenario.var_s)
    e_tt, v_tt = pair_term(scenario.mean_t, scenario.var_t, scenario.mean_t, scenario.var_t)
    e_st, v_st = pair_term(scenario.mean_s, scenario.var_s, scenario.mean_t, scenario.var_t)
    mc = e_ss + e_tt - 2.0 * e_st
    mc_se = math.sqrt(v_ss + v_tt + 4.0 * v_st)
    z_mc = abs(mc - target) / mc_se

    rows = UnbiasednessExperiment(scenario, trials=2000, m=50, n=50, seed=11).run()
    z_resample = rows[0].measured

    elapsed = time.perf_counter() - t0
    worst = max(z_mc, z_resample)
    ok = worst <= 3.0 and elapsed < budget
    _report(2, "estimator_unbiasedness", f"max_z={worst:.3f}", "<=3", ok, elapsed, budget)
    assert ok


def test_c03_concentration_validity():
    budget, t0 = 120.0, time.perf_counter()
    rows = ConcentrationExperiment(
        _scenario(),
        trials=1000,
        pairs=((50, 50), (100, 200)),
        alphas=(0.05, 0.2),
        seed=5,
    ).run()
    excess = max(r.measured - r.threshold for r in rows)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and elapsed < budget
    _report(3, "concentration_validity", f"max_rate_excess={excess:+.4f}", "<=0", ok, elapsed, budget)
    assert ok


def test_c04_bound_coverage():
    budget, t0 = 180.0, time.perf_counter()
    rows = CoverageExperiment(
        _scenario(), trials=500, n_labeled=200, delta=0.1, seed=3
    ).run()
    coverage = rows[0].measured
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and elapsed < budget
    _report(4, "bound_coverage", f"coverage={coverage:.3f}", ">=0.9", ok, elapsed, budget)
    assert ok


def test_c05_interval_identity():
    budget, t0 = 1.0, time.perf_counter()
    rng = np.random.default_rng(17)
    worst_ulps = 0.0
    for _ in range(1000):
        emp = float(rng.uniform(0.0, 1.0))
        kl = float(rng.uniform(0.0, 50.0))
        n_labeled = int(rng.integers(10, 100_000))
        delta = float(rng.uniform(0.01, 0.49))
        l_h = float(rng.uniform(0.0, 10.0))
        eps = float(rng.uniform(0.0, 2.0))
        c = PosteriorComplexity(kl=kl, n_labeled=n_labeled, delta=delta)
        iv = risk_interval(emp, c, l_h, CredalSpec(epsilon=eps))
        expected = 2.0 * complexity_term(c) + 2.0 * (l_h * eps)
        gap = abs(iv.width - expected)
        if gap:
            worst_ulps = max(worst_ulps, gap / math.ulp(expected))
    elapsed = time.perf_counter() - t0
    ok = worst_ulps <= 1.0 and elapsed < budget
    _report(5, "interval_identity", f"max_ulp_gap={worst_ulps:g}", "<=1", ok, elapsed, budget)
    assert ok


def test_c06_permutation_test_validity():
    budget, t0 = 300.0, time.perf_counter()
    spec = KernelSpec(gamma=0.5)
    trials, alpha = 200, 0.05

    def rejection_rate(offset, seed0):
        rejections = 0
        for t in range(trials):
            rng = np.random.default_rng(seed0 + t)
            Xs = rng.standard_normal((100, 2))
            Xt = rng.standard_normal((100, 2))
            Xt[:, 0] += offset
            cal = permutation_calibrate(
                Xs, Xt, spec, num_permutations=500, alpha=alpha, seed=seed0 + t
            )
            rejections += cal.p_value <= alpha
        return rejections / trials

    null_rate = rejection_rate(0.0, 50_000)
    power = rejection_rate(3.0, 90_000)
    elapsed = time.perf_counter() - t0
    ok = 0.02 <= null_rate <= 0.09 and power >= 0.99 and elapsed < budget
    _report(
        6,
        "permutation_test_validity",
        f"null_rate={null_rate:.3f},power={power:.3f}",
        "null in [0.02,0.09], power>=0.99",
        ok,
        elapsed,
        budget,
    )
    assert ok


def test_c07_norm_recovery():
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 101))
        d = int(rng.integers(1, 4))
        spec = KernelSpec(gamma=float(rng.uniform(0.2, 1.0)))
        X = rng.standard_normal((n, d))
        beta = rng.standard_normal(n) / math.sqrt(n)
        K = gram_matrix(X, None, spec)
        losses = K @ beta
        exact = math.sqrt(float(beta @ K @ beta))
        est = estimate_rkhs_norm(X, losses, spec, ridge_lambda=1e-8)
        worst = max(worst, abs(est.l_h - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < budget
    _report(7, "norm_recovery", f"max_rel_err={worst:.4f}", "<0.02", ok, elapsed, budget)
    assert ok


def test_c08_distortion_bound():
    budget, t0 = 60.0, time.perf_counter()
    rows = GeometryExperiment(
        _scenario(), trials=100, m=500, n=500, c_w=1.0, seed=29
    ).run()
    rate = rows[0].measured
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and elapsed < budget
    _report(8, "distortion_bound", f"hold_rate={rate:.3f}", ">=0.95", ok, elapsed, budget)
    assert ok


def test_c09_mixture_convexity():
    budget, t0 = 1.0, time.perf_counter()
    rng = np.random.default_rng(31)
    worst = -math.inf
    for _ in range(20):
        d = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.2, 1.0))
        mean_p = rng.normal(0.0, 1.0, d)
        var_p = float(rng.uniform(0.3, 2.0))
        means = rng.normal(0.0, 1.0, (2, d))
        vars_ = rng.uniform(0.3, 2.0, 2)
        radii = [
            math.sqrt(
                analytic_mixture_mmd2(
                    mean_p, var_p, means[i : i + 1], vars_[i : i + 1], [1.0], gamma
                )
            )
            for i in range(2)
        ]
        ball = max(radii)
        for lam in (0.25, 0.5, 0.75):
            mix = math.sqrt(
                analytic_mixture_mmd2(
                    mean_p, var_p, means, vars_, [lam, 1.0 - lam], gamma
                )
            )
            worst = max(worst, mix - ball)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < budget
    _report(9, "mixture_convexity", f"max_overrun={worst:+.3e}", "<=0", ok, elapsed, budget)
    assert ok


def test_c10_determinism(tmp_path):
    budget, t0 = 5.0, time.perf_counter()
    src = str(DATA_DIR / "source_features.csv")
    lss = str(DATA_DIR / "source_losses.csv")
    tgt = str(DATA_DIR / "target_features.csv")
    cfg = str(DATA_DIR / "config.json")
    stream = str(DATA_DIR / "monitor_stream.txt")

    def run(*args, out):
        proc = subprocess.run(
            [sys.executable, "-m", "credal_cert", *args, "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return out.read_bytes()

    certs = {
        run("certify", src, lss, tgt, cfg, out=tmp_path / f"c{i}.json")
        for i in range(3)
    }
    certs.add((DATA_DIR / "expected_certificate.json").read_bytes())

    monitors = {
        run("monitor", stream, src, lss, cfg, out=tmp_path / f"m{i}.ndjson")
        for i in range(2)
    }
    monitors.add((DATA_DIR / "expected_monitor.ndjson").read_bytes())

    # the seedless-config path must be deterministic under --seed as well
    seedless = json.loads((DATA_DIR / "config.json").read_text())
    del seedless["seed"]
    cfg2 = tmp_path / "config_no_seed.json"
    cfg2.write_text(json.dumps(seedless))
    seeded = {
        run("monitor", stream, src, lss, str(cfg2), "--seed", "5",
            out=tmp_path / f"s{i}.ndjson")
        for i in range(2)
    }

    distinct = max(len(certs), len(monitors), len(seeded))
    elapsed = time.perf_counter() - t0
    ok = distinct == 1 and elapsed < budget
    _report(10, "determinism", f"distinct_outputs={distinct}", "==1", ok, elapsed, budget)
    assert ok
