"""Tests for local detectors, counting-rule fusion, and operating curves."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfuse.experiment import ExperimentConfig
from orderfuse.field import Hypothesis, RoiConfig, SignalModel, signal_amplitude
from orderfuse.fusion import (
    FusionConfig,
    LocalDetector,
    OffCenterTargetError,
    counting_rule,
    local_decisions,
    system_pfa_approx,
    system_threshold,
    theory_curves,
    threshold_from_local_pfa,
)
from orderfuse.statmath import integrate, q_function
from test_statmath import q_inverse_bisect, q_oracle


def binomial_tail_gt(n: int, p: float, t: float) -> float:
    """Exact P(Bin(n, p) > t) by direct summation (log-space terms)."""
    k_min = math.floor(t) + 1
    if k_min > n:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(max(k_min, 0), n + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_p
            + (n - k) * log_q
        )
        total += math.exp(log_term)
    return total


# ── LocalDetector / threshold_from_local_pfa ────────────────────────


def test_threshold_examples():
    assert threshold_from_local_pfa(0.5).tau == pytest.approx(0.0, abs=1e-12)
    assert threshold_from_local_pfa(1e-3).tau == pytest.approx(3.090232, abs=1e-6)
    assert threshold_from_local_pfa(1e-4).tau == pytest.approx(3.719016, abs=1e-6)


def test_threshold_boundary_probabilities():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            threshold_from_local_pfa(bad)


def test_detector_consistency_enforced():
    # tau is derived from local_pfa, so it cannot be set apart from it.
    for pfa in (1e-6, 1e-3, 0.05, 0.5, 0.9):
        det = LocalDetector(pfa)
        assert det.tau == pytest.approx(q_inverse_bisect(pfa), abs=1e-9)
    with pytest.raises(TypeError):
        LocalDetector(tau=1.0, local_pfa=0.5)


# ── local_decisions / counting_rule ─────────────────────────────────


def test_local_decide_strict_exceedance():
    det = threshold_from_local_pfa(1e-3)
    np.testing.assert_array_equal(
        local_decisions([det.tau + 0.1, det.tau - 0.1, det.tau], det), [1, 0, 0]
    )


def test_local_decisions_vectorized():
    det = threshold_from_local_pfa(0.5)  # tau = 0
    np.testing.assert_array_equal(
        local_decisions([0.1, -0.1, 0.0, 2.0], det), [1, 0, 0, 1]
    )


def test_counting_rule_examples():
    assert counting_rule([1, 1, 0], 1.5) is Hypothesis.H1
    assert counting_rule([1, 0, 0], 1.5) is Hypothesis.H0
    assert counting_rule([0, 0, 0, 0], 0.0) is Hypothesis.H0
    with pytest.raises(ValueError):
        counting_rule([], 1.0)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30), st.data())
def test_counting_rule_permutation_invariant(bits, data):
    t = data.draw(st.floats(min_value=-1.0, max_value=31.0))
    perm = data.draw(st.permutations(bits))
    assert counting_rule(bits, t) is counting_rule(perm, t)


# ── system_threshold / system_pfa_approx ────────────────────────────


def test_system_threshold_values():
    assert system_threshold(100, 1e-3, 1e-3) == pytest.approx(1.07673, abs=1e-4)
    assert system_threshold(50, 1e-4, 1e-3) == pytest.approx(0.22350, abs=1e-4)


def test_system_threshold_against_hand_arithmetic():
    for n, p, pfa in ((100, 1e-3, 1e-3), (50, 1e-4, 1e-3), (1000, 0.05, 0.05)):
        expected = q_inverse_bisect(pfa) * math.sqrt(n * p * (1 - p)) + n * p
        assert system_threshold(n, p, pfa) == pytest.approx(expected, abs=1e-9)


def test_system_threshold_median_case():
    # Qinv(0.5) = 0, so T collapses to N * pfa exactly.
    assert system_threshold(100, 1e-3, 0.5) == 100 * 1e-3


def test_system_threshold_degenerate_warnings():
    with pytest.warns(RuntimeWarning, match="non-positive"):
        assert system_threshold(10, 1e-6, 0.9) <= 0.0
    with pytest.warns(RuntimeWarning, match="never"):
        assert system_threshold(50, 0.9, 1e-3) >= 50


def _experiment_config(system_pfa: float) -> ExperimentConfig:
    return ExperimentConfig(10, RoiConfig(100.0), SignalModel(1.0, 0.02), 1e-6, system_pfa, 0.5, 1, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: system_threshold(10, 1e-6, 0.9),
        lambda: FusionConfig(10, 1e-6, 0.9),
        lambda: _experiment_config(0.9),
        # A sweep cell is built by dataclasses.replace, outside the package.
        lambda: replace(_experiment_config(1e-3), system_pfa=0.9),
    ],
    ids=["system_threshold", "FusionConfig", "ExperimentConfig", "replace"],
)
def test_degenerate_threshold_warning_names_the_caller(build):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        build()
    assert rec[0].filename == __file__


def test_system_pfa_at_mean_is_half():
    assert system_pfa_approx(100, 1e-3, 100 * 1e-3) == pytest.approx(0.5, abs=1e-12)


def test_system_pfa_round_trip():
    t = system_threshold(100, 1e-3, 1e-3)
    assert system_pfa_approx(100, 1e-3, t) == pytest.approx(1e-3, abs=1e-9)


def test_system_pfa_gaussian_vs_exact_binomial():
    # Large-N regime: N * pfa = 50 >> 5.
    approx = system_pfa_approx(1000, 0.05, 61.336)
    assert approx == pytest.approx(0.05, abs=1e-3)
    exact = binomial_tail_gt(1000, 0.05, 61.336)
    assert abs(approx - exact) <= 0.01


# ── FusionConfig ────────────────────────────────────────────────────


def test_fusion_config_from_rates():
    fus = FusionConfig(100, 1e-3, 1e-3)
    assert fus.system_threshold_t == system_threshold(100, 1e-3, 1e-3)
    assert fus.system_threshold_t == pytest.approx(1.07673, abs=1e-4)
    assert fus.detector == threshold_from_local_pfa(1e-3)
    assert fus.detector.local_pfa == 1e-3
    for bad in ((0, 1e-3, 1e-3), (100, 0.0, 1e-3), (100, 1e-3, 1.0)):
        with pytest.raises(ValueError):
            FusionConfig(*bad)


def test_fusion_config_rejects_inconsistent_threshold():
    # The detector and T are derived from the rates; neither can be passed in.
    det = threshold_from_local_pfa(1e-3)
    with pytest.raises(TypeError):
        FusionConfig(n_sensors=100, local_pfa=1e-3, system_pfa=1e-3, system_threshold_t=2.0)
    with pytest.raises(TypeError):
        FusionConfig(n_sensors=100, local_pfa=1e-3, system_pfa=1e-3, detector=det)


# ── theory_curves ───────────────────────────────────────────────────


def test_theory_collapses_without_signal():
    det = threshold_from_local_pfa(1e-3)
    model = SignalModel(p0=0.0, alpha=0.02)
    roi = RoiConfig(side_b=100.0)
    t = system_threshold(100, 1e-3, 1e-3)
    curves = theory_curves(det, model, roi, 100, t)
    assert curves.gamma == pytest.approx(1e-3, abs=1e-9)
    assert curves.pd_bar == pytest.approx(1e-3, abs=1e-9)
    assert curves.sigma_bar_sq == pytest.approx(1e-3 * (1 - 1e-3), abs=1e-9)
    assert curves.system_pd == pytest.approx(system_pfa_approx(100, 1e-3, t), abs=1e-9)


def test_theory_gamma_example():
    # Hand-computed corner amplitude sqrt(200/101) = 1.40720; frozen oracle Q.
    det = threshold_from_local_pfa(1e-3)
    model = SignalModel(p0=200.0, alpha=0.02, n_exp=2.0)
    roi = RoiConfig(side_b=100.0)
    curves = theory_curves(det, model, roi, 100, 1.0767)
    expected = q_oracle(det.tau - math.sqrt(200.0 / 101.0))
    assert curves.gamma == pytest.approx(expected, rel=1e-12)
    assert curves.gamma == pytest.approx(0.04617, abs=1e-4)


def test_theory_pd_bar_against_monte_carlo_oracle():
    # Monte Carlo evaluation of the same disc-plus-corner expression.
    det = threshold_from_local_pfa(1e-3)
    model = SignalModel(p0=200.0, alpha=0.02, n_exp=2.0)
    roi = RoiConfig(side_b=100.0)
    curves = theory_curves(det, model, roi, 100, 1.0767)

    rng = np.random.default_rng(20240817)
    m = 1_000_000
    radii = roi.half_side * np.sqrt(rng.random(m))  # uniform over the disc
    hits = 0.5 * np.vectorize(math.erfc)((det.tau - np.sqrt(200.0 / (1 + 0.02 * radii**2))) / math.sqrt(2))
    grand = (math.pi / 4.0) * hits.mean() + (1 - math.pi / 4.0) * curves.gamma
    stderr = (math.pi / 4.0) * hits.std(ddof=1) / math.sqrt(m)
    assert abs(curves.pd_bar - grand) <= 3 * stderr


def test_theory_requires_centered_target():
    det = threshold_from_local_pfa(1e-3)
    model = SignalModel(p0=100.0, alpha=0.02)
    roi = RoiConfig(side_b=100.0, target_x=10.0)
    with pytest.raises(OffCenterTargetError):
        theory_curves(det, model, roi, 100, 1.0)


def test_theory_variance_capped():
    det = threshold_from_local_pfa(0.4)
    model = SignalModel(p0=3.0, alpha=0.02)
    curves = theory_curves(det, model, RoiConfig(side_b=100.0), 100, 45.0)
    assert 0.0 <= curves.sigma_bar_sq <= 0.25


@pytest.mark.parametrize("n_exp", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("local_pfa", [1e-3, 0.05])
@pytest.mark.parametrize("p0", [3000.0, 10000.0, 30000.0, 100000.0])
def test_theory_variance_for_strong_signals(p0, local_pfa, n_exp):
    # Near-certain local detections, where 1 - p is rounding noise. The
    # disc integral of p * (1 - p) * r, by a fine midpoint rule, plus the
    # corner term, both with the miss probability from its own tail, is
    # the reference. No absolute slack: sigma_bar_sq can be far below 1e-12.
    det = threshold_from_local_pfa(local_pfa)
    model = SignalModel(p0=p0, alpha=0.02, n_exp=n_exp)
    roi = RoiConfig(side_b=100.0)
    curves = theory_curves(det, model, roi, 100, 1.0)

    m = 20_000
    h = roi.half_side / m
    i_var = 0.0
    for j in range(m):
        r = (j + 0.5) * h
        x = (det.tau - math.sqrt(p0 / (1.0 + 0.02 * r**n_exp))) / math.sqrt(2.0)
        i_var += 0.25 * math.erfc(x) * math.erfc(-x) * r * h
    corner_d = math.sqrt(2.0) * roi.half_side
    x = (det.tau - math.sqrt(p0 / (1.0 + 0.02 * corner_d**n_exp))) / math.sqrt(2.0)
    corner = (1.0 - math.pi / 4.0) * 0.25 * math.erfc(x) * math.erfc(-x)
    expected = 2.0 * math.pi / roi.side_b**2 * i_var + corner
    assert 0.0 <= curves.sigma_bar_sq <= 0.25
    assert curves.sigma_bar_sq == pytest.approx(expected, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("local_pfa", [1e-3, 0.05])
@pytest.mark.parametrize("p0", [1e4, 3e4, 1e5])
def test_theory_corner_variance_from_its_own_tail(p0, local_pfa):
    # The corner detection rate is within 1e-11 of 1 here, so 1 - gamma by
    # subtraction keeps few or no digits. The disc term is below 1e-16 of the
    # corner's, so sigma_bar_sq is the corner term: the miss probability
    # Q(a - tau) at the corner distance sqrt(2) * b / 2, from erfc.
    det = threshold_from_local_pfa(local_pfa)
    model = SignalModel(p0=p0, alpha=0.02, n_exp=2.0)
    curves = theory_curves(det, model, RoiConfig(side_b=100.0), 20, 1.0)
    miss = 0.5 * math.erfc((math.sqrt(p0 / (1.0 + 0.02 * 5000.0)) - det.tau) / math.sqrt(2.0))
    assert curves.sigma_bar_sq > 0.0
    assert curves.sigma_bar_sq == pytest.approx((1.0 - math.pi / 4.0) * miss, rel=1e-9, abs=0.0)


def reference_curves(det, model, roi, n, t):
    """theory_curves through q_function and the array path of signal_amplitude."""

    def x_at(r):
        return det.tau - float(signal_amplitude(model, np.array([r]))[0])

    half = roi.half_side
    x_corner = x_at(math.sqrt(2.0) * half)
    gamma = q_function(x_corner)
    disc_weight = 2.0 * math.pi / roi.side_b**2
    corner_weight = 1.0 - math.pi / 4.0
    def var_integrand(r):
        x = x_at(r)
        return q_function(x) * q_function(-x) * r

    i_pd = integrate(lambda r: q_function(x_at(r)) * r, 0.0, half)
    i_var = integrate(var_integrand, 0.0, half)
    pd_bar = disc_weight * i_pd + corner_weight * gamma
    sigma_bar_sq = disc_weight * i_var + corner_weight * gamma * q_function(-x_corner)
    system_pd = q_function((t - n * pd_bar) / math.sqrt(n * sigma_bar_sq))
    return gamma, pd_bar, sigma_bar_sq, system_pd


@pytest.mark.parametrize("n_exp", [2.0, 2.3, 2.5, 3.0])
@pytest.mark.parametrize("local_pfa", [1e-3, 0.05])
@pytest.mark.parametrize("p0", [0.0, 1.0, 200.0, 3000.0])
def test_theory_curves_bitwise_equal_reference(p0, local_pfa, n_exp):
    # The flat integrands inline Q and take the scalar amplitude path; they
    # must give the bits of the plain composition. Both sides call the same
    # numpy power loop, so this holds whichever CPU dispatch numpy picks.
    n = 100
    fus = FusionConfig(n, local_pfa, 1e-3)
    model = SignalModel(p0=p0, alpha=0.02, n_exp=n_exp)
    roi = RoiConfig(side_b=100.0)
    curves = theory_curves(fus.detector, model, roi, n, fus.system_threshold_t)
    expected = reference_curves(fus.detector, model, roi, n, fus.system_threshold_t)
    got = (curves.gamma, curves.pd_bar, curves.sigma_bar_sq, curves.system_pd)
    assert [v.hex() for v in got] == [v.hex() for v in expected]
