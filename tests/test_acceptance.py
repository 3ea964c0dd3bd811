"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Criterion 3 is expected to fail: at 2000 vertices the census mean
sits about two percent below the limiting rate (the conditional-rate gap
and the dependent-pair variance inflation are real finite-size effects,
larger than the Monte Carlo tolerance the criterion allows).  The test
cross-checks this with the exactly computed conditional mean, so the
failure message carries the full quantitative picture.
"""

import math
import subprocess
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import grgcycles as g
from grgcycles.experiments import (ExperimentConfig, replication_seed,
                                   run_bounds, run_census, run_ratio_study)
from grgcycles.ratios import rate_fit
from oracles import brute_force_count

MASTER_SEED = 1234
PARETO = g.WeightSpec.pareto_shifted(9.5, 10, 1)
TWO_POINT = g.WeightSpec.two_point(1, 2, 0.5)


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_01_reference_poisson_rate():
    """Rate for quadrilaterals under the heavy-tail weights: 2880.16 +- 0.01."""
    ratio = g.analytic_moments(PARETO).ratio
    lam4 = g.poisson_rate(ratio, 4).lam
    ok = report(1, abs(lam4 - 2880.16) <= 0.01,
                f"rate(4) = {lam4:.6f}, reference 2880.16 +- 0.01")
    assert ok, f"rate(4) = {lam4}"


def test_criterion_02_oracle_equivalence():
    """Canonical DFS census equals brute force on 200 random graphs."""
    rng = np.random.default_rng(MASTER_SEED)
    failures = []
    checked = 0
    for trial in range(200):
        n = int(rng.integers(3, 10))
        wv = g.sample_weights(PARETO, n, 10_000 + trial)
        graph = g.sample_grg(wv, 20_000 + trial)
        for k in range(3, n + 1):
            fast = g.count_k_cycles(graph, k).count
            slow = brute_force_count(graph, k).count
            checked += 1
            if fast != slow:
                failures.append((trial, k, fast, slow))
    ok = report(2, not failures,
                f"{checked} censuses on 200 graphs, {len(failures)} mismatches")
    assert ok, failures[:5]


def test_criterion_03_triangle_census_reproduction():
    """2000 vertices, 400 replications: census mean within 4 SE of the
    limiting rate and variance/mean inside the near-Poisson window.

    Expected to fail: the exact conditional mean at n=2000 is about 2%
    below the limit (edge probabilities carry the pair-product term in the
    denominator), which is around six standard errors at 400 replications,
    and shared-edge cycle pairs inflate the variance ratio to about 1.25.
    Both gaps are structural, not sampling noise; they shrink as n grows.
    """
    cfg = ExperimentConfig(spec=PARETO, n=2000, k=3, replications=400,
                           seed=MASTER_SEED)
    summary = run_census(cfg).summary
    mean = summary["mean"]
    target = summary["target_rate"]
    se = summary["std_error_of_mean"]
    dispersion = summary["dispersion"]
    mean_ok = abs(mean - target) <= 4 * se
    disp_ok = 0.85 <= dispersion <= 1.18
    detail = (f"mean = {mean:.3f} vs rate {target:.3f} "
              f"(|z| = {abs(mean - target) / se:.2f}, allowed 4); "
              f"dispersion = {dispersion:.4f} (allowed [0.85, 1.18])")
    ok = report(3, mean_ok and disp_ok, detail)
    if not ok:
        # cross-check: the conditional census mean given the weights is
        # exactly computable, so the gap can be certified independently
        # of the graph sampling, on the census's own stream-0 weight draws
        exact = [g.conditional_rate_exact(g.sample_weights(
            PARETO, cfg.n, replication_seed(MASTER_SEED, rep, 0)), 3)
            for rep in range(cfg.replications)]
        exact_mean = float(np.mean(exact))
        detail += (f"; exact conditional mean over the census's "
                   f"{len(exact)} weight draws = {exact_mean:.3f} "
                   f"(sd {np.std(exact, ddof=1):.3f}), census mean "
                   f"z = {(mean - exact_mean) / se:+.2f} against it, "
                   "so the gap to the limiting rate is structural at "
                   "n=2000, not sampling noise")
    assert ok, detail


def test_criterion_04_quadrilateral_qq_correlation():
    """2000 vertices, k=4, 400 replications: Q-Q correlation >= 0.99."""
    cfg = ExperimentConfig(spec=PARETO, n=2000, k=4, replications=400,
                           seed=MASTER_SEED)
    result = run_census(cfg)
    corr = result.summary["qq_correlation"]
    ok = report(4, corr >= 0.99, f"Q-Q correlation = {corr:.6f} (>= 0.99)")
    assert ok, f"qq correlation {corr}"


def test_criterion_05_bound_term_decay():
    """Exact b1+b2 for constant weights: slope -1 +- 0.2 over the grid, and
    the 4-vertex unit-weight instance reproduces b1 = 1.024e-3,
    b2 = 3.84e-3.

    The grid uses the edge-density calibration (constant weight n*lam/(n-lam),
    lam = 6) so every edge probability is exactly lam/n; an uncalibrated
    constant is still pre-asymptotic on this small grid.
    """
    cfg = ExperimentConfig(spec=g.WeightSpec.constant(1.0), k=3,
                           replications=1, seed=MASTER_SEED,
                           n_grid=(10, 20, 40, 80), er_lambda=6.0)
    result = run_bounds(cfg)
    slope = result.fit.slope
    slope_ok = -1.2 <= slope <= -0.8

    unit = g.WeightVector.from_values([1.0] * 4)
    dense = g.exact_bound_terms(unit, 3, method="dense")
    kernel = g.exact_bound_terms(unit, 3, method="candidates")
    b1_ref = 16 / 15625          # exhaustive enumeration over 4x4 pairs
    b2_ref = 12 / 3125           # 12 ordered pairs, 5-edge unions
    values_ok = all(
        math.isclose(got, want, rel_tol=1e-12)
        for got, want in ((dense.b1, b1_ref), (dense.b2, b2_ref),
                          (kernel.b1, b1_ref), (kernel.b2, b2_ref)))
    ok = report(5, slope_ok and values_ok,
                f"slope = {slope:.4f} (in [-1.2, -0.8]); "
                f"n=4 terms = {dense.b1:.6e}, {dense.b2:.6e}")
    assert ok, (slope, dense, kernel)


def test_criterion_06_t_moment_oracle():
    """Monte Carlo t-moments within 4 SE of the exact binomial oracle."""
    exact_22 = g.exact_t_moment(TWO_POINT, 2, 2)
    exact_ok = exact_22 == pytest.approx(float(Fraction(95, 36)), rel=1e-14)
    worst = 0.0
    for n in (2, 5, 10):
        for p in (2, 3):
            est = g.estimate_t_moment(
                TWO_POINT, n, p, 100_000,
                np.random.SeedSequence(MASTER_SEED, spawn_key=(n, p)))
            z = abs(est.value - g.exact_t_moment(TWO_POINT, n, p)) / est.std_error
            worst = max(worst, z)
    ok = report(6, exact_ok and worst <= 4,
                f"exact(2,2) = 95/36 = {exact_22:.6f}; worst |z| = {worst:.2f}")
    assert ok


def test_criterion_07_t_moment_rate():
    """Two-point t-moment errors over n = 64..4096 decay with slope <= -0.35."""
    cfg = ExperimentConfig(spec=TWO_POINT, p=2, replications=100_000,
                           seed=MASTER_SEED,
                           n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
                           statistic="t")
    result = run_ratio_study(cfg)
    limit = result.summary["limit"]
    fit = rate_fit([(n, err) for n, _, _, err in result.rows])
    ok = report(7, fit.slope <= -0.35,
                f"slope = {fit.slope:.3f} (<= -0.35) against limit "
                f"{limit:.6f} = 25/9")
    assert ok, fit


def test_criterion_08_lower_tail_certificate():
    """Exact binomial tails stay below the exponential bound."""
    # terms distributed as 2*Bernoulli(1/2): unit mean, unit variance
    exact_ref = Fraction(sum(comb(16, j) for j in range(5)), 2 ** 16)
    ref_ok = exact_ref == Fraction(2517, 65536)
    bound_ref = g.lower_tail_bound(0.5, 1.0, 1.0, 16)
    cert_ok = float(exact_ref) <= bound_ref and \
        math.isclose(bound_ref, math.exp(-1), rel_tol=1e-12)
    grid_ok = True
    for n in (8, 16, 32, 64):
        for lam in (0.25, 0.5, 0.75):
            cutoff = math.floor(lam * n / 2)
            tail = Fraction(sum(comb(n, j) for j in range(cutoff + 1)), 2 ** n)
            if not g.check_lower_tail(lam, 1.0, 1.0, n, float(tail)).holds:
                grid_ok = False
    ok = report(8, ref_ok and cert_ok and grid_ok,
                f"exact tail {float(exact_ref):.6f} <= bound {bound_ref:.6f}; "
                f"grid n in {{8,16,32,64}}, lam in {{0.25,0.5,0.75}} all hold")
    assert ok


def test_criterion_09_r_moment_rates():
    """Constant law: r = 1/n exactly (slope -1); bounded two-point law with
    p = 3 decays with fitted slope <= -0.6."""
    grid = (64, 128, 256, 512, 1024, 2048, 4096)
    const_fit = rate_fit([(n, g.r_statistic([1.0] * n, 3)) for n in grid])
    const_ok = abs(const_fit.slope + 1.0) <= 1e-9

    cfg = ExperimentConfig(spec=TWO_POINT, p=3, replications=100_000,
                           seed=MASTER_SEED, n_grid=grid, statistic="r")
    result = run_ratio_study(cfg)
    assert "log" in result.summary["regimes"]
    mc_ok = result.fit is not None and result.fit.slope <= -0.6
    ok = report(9, const_ok and mc_ok,
                f"constant slope = {const_fit.slope:.12f} (-1 +- 1e-9); "
                f"two-point slope = {result.fit.slope:.3f} (<= -0.6)")
    assert ok


def test_criterion_10_spectral_bound():
    """Bound equals the radius on small cliques / an edge, and never exceeds
    the power-iteration estimate on 50 sampled graphs."""
    exact_ok = (
        abs(g.spectral_lower_bound(3, 3, 1) - 2.0) <= 1e-9
        and abs(g.spectral_lower_bound(4, 6, 4) - 3.0) <= 1e-9
        and abs(g.spectral_lower_bound(2, 1, 0) - 1.0) <= 1e-9)
    violations = 0
    for seed in range(50):
        wv = g.sample_weights(PARETO, 200, 30_000 + seed)
        graph = g.sample_grg(wv, 40_000 + seed)
        rep = g.threshold_report(graph)
        if rep.radius_lower_bound > rep.radius_estimate + 1e-6:
            violations += 1
    ok = report(10, exact_ok and violations == 0,
                f"clique/edge values exact to 1e-9; "
                f"{violations}/50 sampled graphs violate bound <= estimate")
    assert ok


def test_criterion_11_worker_count_determinism(tmp_path):
    """Census via the CLI with 1 vs 3 workers: byte-identical outputs."""
    outputs = []
    for workers, sub in ((1, "w1"), (3, "w3")):
        outdir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "grgcycles", "census",
             "--family", "pareto_shifted", "--shape", "9.5", "--scale", "10",
             "--loc", "1", "--n", "60", "--k", "3", "--replications", "40",
             "--seed", str(MASTER_SEED), "--workers", str(workers),
             "--output-dir", str(outdir)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(outdir.iterdir())})
    same = outputs[0] == outputs[1]
    ok = report(11, same and len(outputs[0]) == 4,
                f"{len(outputs[0])} files byte-identical across worker counts: "
                f"{same}")
    assert ok
