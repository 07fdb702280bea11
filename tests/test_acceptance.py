"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines. Tolerances are pinned here; heavy Monte Carlo runs use
frozen master seeds so every number asserted below is reproducible
bit for bit.
"""

import itertools
import math

import numpy as np

from orderfuse.cli import main
from orderfuse.experiment import ExperimentConfig, monte_carlo, sweep
from orderfuse.field import Hypothesis, RoiConfig, SignalModel, oracle_amplitudes
from orderfuse.fusion import (
    counting_rule,
    system_pfa_approx,
    system_threshold,
    theory_curves,
    threshold_from_local_pfa,
)
from orderfuse.ordering import lr_schedule_and_run, run_ordered_counting

from test_fusion import binomial_tail_gt
from test_statmath import q_inverse_bisect

ROI = RoiConfig(side_b=100.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        n_sensors=100,
        roi=ROI,
        model=SignalModel(p0=1e5, alpha=0.02, n_exp=2.0),
        local_pfa=1e-3,
        system_pfa=1e-3,
        likelihood_r=0.5,
        n_trials=100_000,
        master_seed=0,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_criterion_1_decision_equivalence():
    # Exhaustive: every decision list up to n = 12, every half-integer
    # threshold from -0.5 to n + 0.5.
    mismatches = 0
    checked = 0
    for n in range(1, 13):
        thresholds = [k - 0.5 for k in range(0, n + 2)]
        for bits in itertools.product((0, 1), repeat=n):
            bits = list(bits)
            for t in thresholds:
                run = run_ordered_counting(bits, t)
                mismatches += run.decision is not counting_rule(bits, t)
                checked += 1
    # Randomized: 1e5 trials at N = 100 with random densities and thresholds.
    rng = np.random.default_rng(101)
    n = 100
    for _ in range(100_000):
        bits = (rng.random(n) < rng.random()).astype(np.int64)
        t = rng.uniform(-1.0, n + 1.0)
        run = run_ordered_counting(bits, t)
        mismatches += run.decision is not counting_rule(bits, t)
        checked += 1
    _report(1, mismatches == 0, f"{checked} ordered-vs-full decisions, {mismatches} mismatches")


def test_criterion_2_lr_baseline_equivalence():
    # The raw-LLR ordering baseline must reproduce the all-sensor Bayes
    # decision on every one of 1e5 randomized trials.
    rng = np.random.default_rng(202)
    n = 25
    priors = (0.3, 0.5, 0.7)
    powers = (5.0, 50.0, 500.0)
    mismatches = 0
    for i in range(100_000):
        model = SignalModel(p0=powers[i % 3], alpha=0.02)
        prior = priors[(i // 3) % 3]
        amps = oracle_amplitudes(rng.uniform(-50.0, 50.0, (n, 2)), ROI, model)
        under_h1 = rng.random() < 0.5
        z = rng.standard_normal(n) + (amps if under_h1 else 0.0)
        run = lr_schedule_and_run(z, amps, prior)
        full_sum = float(np.sum(amps * z - 0.5 * amps * amps))
        bayes = Hypothesis.H1 if full_sum > math.log((1 - prior) / prior) else Hypothesis.H0
        mismatches += run.decision is not bayes
    _report(2, mismatches == 0, f"100000 ordered-LLR-vs-Bayes decisions, {mismatches} mismatches")


def test_criterion_3_savings_half_n_regime():
    # Strong signal, even target likelihood: mean savings must clear
    # N/2 minus the finite-threshold correction (>= 48 at N = 100).
    summary = monte_carlo(_config(master_seed=20240817))
    ok = summary.ants_mean >= 48.0
    # Regression anchor frozen from the first full run of this config.
    ok = ok and abs(summary.ants_mean - 49.51902) < 1e-9
    ok = ok and abs(summary.ants_stderr - 0.15340032626757022) < 1e-12
    _report(3, ok, f"ants_mean={summary.ants_mean:.5f} (>= 48, anchor 49.51902)")


def test_criterion_4_savings_near_n_minus_1():
    # Tiny local false-alarm rate pushes the count threshold below 1, so
    # under a sure, strong target the first arrival already decides.
    s_high = monte_carlo(
        _config(n_sensors=50, local_pfa=1e-4, likelihood_r=1.0, master_seed=7)
    )
    ok_high = s_high.ants_mean >= 48.5
    # Mirror regime: large local false-alarm rate drives the threshold to
    # or above N, so with the target surely absent the first arrival
    # already rules out a detection.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        s_low = monte_carlo(
            _config(n_sensors=50, local_pfa=0.9, likelihood_r=0.0, master_seed=8)
        )
    floor = 50 - 1 - 0.5 - 3 * s_low.ants_stderr
    ok_low = s_low.ants_mean >= floor
    _report(
        4,
        ok_high and ok_low,
        f"r=1 regime ants_mean={s_high.ants_mean:.3f} (>= 48.5); "
        f"r=0 regime ants_mean={s_low.ants_mean:.3f} (>= {floor:.3f})",
    )


def test_criterion_5_threshold_formula():
    t = system_threshold(100, 1e-3, 1e-3)
    hand = q_inverse_bisect(1e-3) * math.sqrt(100 * 1e-3 * (1 - 1e-3)) + 100 * 1e-3
    ok = abs(t - 1.07673) <= 1e-4 and abs(t - hand) <= 1e-9
    _report(5, ok, f"T(100, 1e-3, 1e-3) = {t:.6f} vs hand value {hand:.6f}")


def test_criterion_6_gaussian_approximation_quality():
    n, local_pfa, system_pfa = 1000, 0.05, 0.05
    t = system_threshold(n, local_pfa, system_pfa)
    approx = system_pfa_approx(n, local_pfa, t)
    exact = binomial_tail_gt(n, local_pfa, t)
    ok_formula = abs(approx - exact) <= 0.01
    summary = monte_carlo(
        _config(
            n_sensors=n,
            model=SignalModel(p0=0.0, alpha=0.02),
            local_pfa=local_pfa,
            system_pfa=system_pfa,
            likelihood_r=0.0,
            master_seed=606,
        )
    )
    band = 3.0 * math.sqrt(exact * (1.0 - exact) / 100_000)
    ok_empirical = abs(summary.empirical_pfa - exact) <= band
    _report(
        6,
        ok_formula and ok_empirical,
        f"approx={approx:.5f} exact={exact:.5f} (<= 0.01 apart); "
        f"empirical={summary.empirical_pfa:.5f} (within {band:.5f} of exact)",
    )


def test_criterion_7_theory_pd_vs_empirical():
    model = SignalModel(p0=200.0, alpha=0.02, n_exp=2.0)
    det = threshold_from_local_pfa(1e-3)
    curves = theory_curves(det, model, ROI, 100, system_threshold(100, 1e-3, 1e-3))
    summary = monte_carlo(_config(model=model, likelihood_r=1.0, master_seed=707))
    gap = abs(curves.system_pd - summary.empirical_pd)
    _report(
        7,
        gap <= 0.05,
        f"theory Pd={curves.system_pd:.5f} empirical Pd={summary.empirical_pd:.5f} "
        f"(gap {gap:.5f} <= 0.05)",
    )


def test_criterion_8_quadrature_vs_monte_carlo():
    # 1e7-sample Monte Carlo of the same disc-plus-corner expression the
    # adaptive quadrature evaluates.
    model = SignalModel(p0=200.0, alpha=0.02, n_exp=2.0)
    det = threshold_from_local_pfa(1e-3)
    curves = theory_curves(det, model, ROI, 100, system_threshold(100, 1e-3, 1e-3))

    erfc_vec = np.frompyfunc(math.erfc, 1, 1)
    rng = np.random.default_rng(808)
    total = 0.0
    total_sq = 0.0
    m = 10_000_000
    chunk = 1_000_000
    for _ in range(m // chunk):
        radii = ROI.half_side * np.sqrt(rng.random(chunk))
        args = (det.tau - np.sqrt(200.0 / (1.0 + 0.02 * radii**2))) / math.sqrt(2.0)
        hits = 0.5 * erfc_vec(args).astype(float)
        total += float(hits.sum())
        total_sq += float((hits * hits).sum())
    mean = total / m
    var = (total_sq - m * mean * mean) / (m - 1)
    mc_pd_bar = (math.pi / 4.0) * mean + (1.0 - math.pi / 4.0) * curves.gamma
    stderr = (math.pi / 4.0) * math.sqrt(var / m)
    gap = abs(curves.pd_bar - mc_pd_bar)
    _report(
        8,
        gap <= 3.0 * stderr,
        f"quadrature pd_bar={curves.pd_bar:.7f} MC pd_bar={mc_pd_bar:.7f} "
        f"(gap {gap:.2e} <= 3 SE = {3 * stderr:.2e})",
    )


def test_criterion_9_savings_monotone_in_power():
    base = _config(model=SignalModel(p0=10.0, alpha=0.02, n_exp=2.0), master_seed=909)
    cells = sweep(base, "p0", [10.0, 100.0, 10_000.0])
    ok = True
    means = []
    for lo, hi in zip(cells, cells[1:]):
        slack = 2.0 * math.hypot(lo.summary.ants_stderr, hi.summary.ants_stderr)
        ok = ok and (hi.summary.ants_mean - lo.summary.ants_mean >= -slack)
    means = [f"{c.summary.ants_mean:.3f}" for c in cells]
    _report(9, ok, f"ants_mean over p0 sweep = {means} non-decreasing within 2 stderr")


def test_criterion_10_reproducibility(tmp_path):
    sim_args = ["--n-sensors", "100", "--p0", "100", "--trials", "2000", "--seed", "4242"]
    outs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        path = tmp_path / f"sim_{name}.csv"
        assert main(["simulate", *sim_args, "--threads", threads, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    ok_sim = outs[0] == outs[1] == outs[2]

    sweep_args = ["--n-sensors", "50", "--p0", "100", "--trials", "1000", "--seed", "11",
                  "--axis", "n_sensors", "--values", "50,100"]
    sweep_outs = []
    for name, threads in (("a", "1"), ("b", "3")):
        path = tmp_path / f"sweep_{name}.csv"
        assert main(["sweep", *sweep_args, "--threads", threads, "--out", str(path)]) == 0
        sweep_outs.append(path.read_bytes())
    ok_sweep = sweep_outs[0] == sweep_outs[1]
    _report(
        10,
        ok_sim and ok_sweep,
        "simulate and sweep reruns byte-identical across thread counts",
    )
