"""Tests for transmission scheduling, early stopping, and savings bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfuse.field import Hypothesis, ObservationVector, RoiConfig, SignalModel, oracle_amplitudes, sample_field
from orderfuse.fusion import LocalDetector, counting_rule
from orderfuse.ordering import (
    CROSSINGS,
    Crossing,
    ants_bounds,
    arrival_order,
    lr_schedule_and_run,
    run_ordered_counting,
    schedule,
    stop_batch,
)


def detector_with_tau(tau: float) -> LocalDetector:
    from orderfuse.statmath import q_function

    return LocalDetector(tau=tau, local_pfa=q_function(tau))


def obs(values, hypothesis=Hypothesis.H0) -> ObservationVector:
    return ObservationVector(z=np.asarray(values, dtype=float), hypothesis=hypothesis)


# ── schedule ────────────────────────────────────────────────────────


def test_schedule_hand_trace():
    det = detector_with_tau(3.09)
    sched = schedule(obs([4.1, 2.9, -1.0]), det)
    # |z - tau| = [1.01, 0.19, 4.09] -> times [0.99, 5.26, 0.24]
    np.testing.assert_array_equal(sched.order, [2, 0, 1])
    np.testing.assert_allclose(sched.times, [1 / 1.01, 1 / 0.19, 1 / 4.09], rtol=1e-12)
    bits = (np.array([4.1, 2.9, -1.0]) > det.tau).astype(int)
    np.testing.assert_array_equal(bits[sched.order], [0, 1, 0])


def test_schedule_tie_break_by_index():
    det = detector_with_tau(0.0)
    sched = schedule(obs([-2.0, 2.0, 1.0]), det)  # sensors 0 and 1 tie
    np.testing.assert_array_equal(sched.order, [0, 1, 2])


def test_schedule_single_sensor():
    det = detector_with_tau(1.0)
    sched = schedule(obs([5.0]), det)
    np.testing.assert_array_equal(sched.order, [0])


def test_schedule_observation_at_threshold_goes_last():
    det = detector_with_tau(1.0)
    sched = schedule(obs([1.0, 3.0, 0.5]), det)
    assert math.isinf(sched.times[0])
    assert sched.order[-1] == 0


# ── run_ordered_counting ────────────────────────────────────────────


def test_run_stops_upper_hand_trace():
    run = run_ordered_counting([1, 0, 1, 0, 0], 5, 1.5)
    assert run.crossing is Crossing.UPPER
    assert run.decision is Hypothesis.H1
    assert run.k_transmitted == 3
    assert run.partial_sum == 2


def test_run_stops_lower_hand_trace():
    run = run_ordered_counting([0, 0, 0, 0, 0], 5, 1.5)
    assert run.crossing is Crossing.LOWER
    assert run.decision is Hypothesis.H0
    assert run.k_transmitted == 4  # 0 < 1.5 - (5 - 4)
    assert run.partial_sum == 0


def test_run_single_sensor_upper():
    run = run_ordered_counting([1], 1, 0.5)
    assert run.k_transmitted == 1
    assert run.crossing is Crossing.UPPER
    assert run.decision is Hypothesis.H1


def test_run_exhausted_on_integer_threshold():
    # Final count equals the integer threshold: neither strict test fires.
    run = run_ordered_counting([1, 0, 1], 3, 2.0)
    assert run.crossing is Crossing.EXHAUSTED
    assert run.k_transmitted == 3
    assert run.decision is Hypothesis.H0
    assert run.partial_sum == 2


def test_run_validates_input():
    with pytest.raises(ValueError):
        run_ordered_counting([1, 0], 3, 1.0)
    with pytest.raises(ValueError):
        run_ordered_counting([2, 0, 0], 3, 1.0)
    with pytest.raises(ValueError):
        run_ordered_counting([], 0, 1.0)


def test_decision_equivalence_exhaustive_small():
    # Quick version of the acceptance sweep: n <= 8, all half-integer thresholds.
    for n in range(1, 9):
        thresholds = [k - 0.5 for k in range(0, n + 2)]
        for bits in itertools.product((0, 1), repeat=n):
            for t in thresholds:
                run = run_ordered_counting(list(bits), n, t)
                assert run.decision is counting_rule(list(bits), t)


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
    st.data(),
)
@settings(max_examples=150)
def test_decision_equivalence_random(n, rate, data):
    bits = [1 if data.draw(st.floats(0, 1)) < rate else 0 for _ in range(n)]
    t = data.draw(st.floats(min_value=-1.0, max_value=n + 1.0))
    run = run_ordered_counting(bits, n, t)
    assert run.decision is counting_rule(bits, t)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40), st.data())
@settings(max_examples=150)
def test_stopping_minimality_and_savings(bits, data):
    n = len(bits)
    t = data.draw(st.floats(min_value=-1.0, max_value=n + 1.0))
    run = run_ordered_counting(bits, n, t)
    assert run.k_transmitted + (n - run.k_transmitted) == n
    saved = n - run.k_transmitted
    if run.crossing is Crossing.EXHAUSTED:
        assert saved == 0
    # No strictly shorter prefix satisfies either stopping condition.
    partial = 0
    for k in range(1, run.k_transmitted):
        partial += bits[k - 1]
        assert not partial > t
        assert not partial < t - (n - k)


# ── batched forms against the per-run reference ─────────────────────


def test_stop_batch_matches_scalar_scan_exhaustive():
    # Every bit vector up to n = 12 at thresholds below zero, at zero,
    # at integers (EXHAUSTED runs), between integers and at or above n.
    for n in range(1, 13):
        bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
        for t in sorted({-2.5, -1.0, 0.0, 0.5, 1.0, n // 2, n / 2 + 0.3, n - 1.0, n, n + 1.5}):
            got = stop_batch(bits, t)
            for row, d in enumerate(bits):
                ref = run_ordered_counting(d, n, t)
                assert got.k_transmitted[row] == ref.k_transmitted, (n, t, d)
                assert CROSSINGS[got.crossing[row]] is ref.crossing, (n, t, d)
                assert got.decision_h1[row] == (ref.decision is Hypothesis.H1), (n, t, d)
                assert got.partial_sum[row] == ref.partial_sum, (n, t, d)


def _reciprocal_collision() -> tuple[float, float]:
    """Adjacent doubles g1 < g2 with 1/g1 == 1/g2."""
    g = 1.5
    while 1.0 / g != 1.0 / np.nextafter(g, 2.0):
        g = float(np.nextafter(g, 2.0))
    return g, float(np.nextafter(g, 2.0))


def test_arrival_order_matches_schedule_rows_with_ties():
    tau = 0.75
    det = detector_with_tau(tau)
    rng = np.random.default_rng(5)
    # Few distinct values per row force equal gaps, on both sides of tau
    # and at tau itself (zero gap: transmits last).
    z = tau + rng.integers(-3, 4, size=(200, 9)) * 0.5
    z[:, 4] = tau
    order = arrival_order(z, tau)
    assert order.shape == z.shape
    for row in range(z.shape[0]):
        np.testing.assert_array_equal(order[row], schedule(obs(z[row]), det).order)


def test_arrival_order_ties_on_equal_times_not_gaps():
    # Distinct gaps with equal transmit times keep index order.
    g1, g2 = _reciprocal_collision()
    det = detector_with_tau(0.0)
    z = np.array([[g1, g2, 0.0, -g2, -g1]])
    order = arrival_order(z, 0.0)
    np.testing.assert_array_equal(order[0], [0, 1, 3, 4, 2])
    np.testing.assert_array_equal(order[0], schedule(obs(z[0]), det).order)


# ── ants_bounds ─────────────────────────────────────────────────────


def test_ants_bounds_example():
    b = ants_bounds(100, 1.0767, 0.5)
    assert b.upper_case_bound == 49.0
    assert b.lower_case_bound == 1.0
    assert b.combined == 50.0


def test_ants_bounds_extreme_likelihoods():
    assert ants_bounds(100, 1.0767, 1.0).combined == 100 - 2
    assert ants_bounds(100, 1.0767, 0.0).combined == 2


@given(st.integers(min_value=1, max_value=500), st.data())
def test_ants_bounds_half_likelihood_is_half_n(n, data):
    t = data.draw(st.floats(min_value=1e-6, max_value=n - 1e-6))
    assert ants_bounds(n, t, 0.5).combined == n / 2.0


def test_ants_bounds_domain():
    with pytest.raises(ValueError):
        ants_bounds(10, 10.0, 0.5)
    with pytest.raises(ValueError):
        ants_bounds(10, 3.0, 1.5)


# ── lr_schedule_and_run (oracle baseline) ───────────────────────────


def test_lr_single_sensor_positive_llr():
    # Amplitude 2, observation 1.5: llr = 2*1.5 - 2 = 1 > 0 = ln((1-p)/p).
    run = lr_schedule_and_run(obs([1.5], Hypothesis.H1), [2.0], 0.5, 1)
    assert run.decision is Hypothesis.H1
    assert run.k_transmitted == 1
    assert run.partial_sum == pytest.approx(1.0)


def test_lr_final_step_has_zero_slack():
    # llrs [1.0, -1.0, 0.4]: sums [1.0, 0.0, 0.4] never clear the slack
    # until k = n, where the slack vanishes and 0.4 > 0 decides H1.
    run = lr_schedule_and_run(obs([1.5, -0.5, 0.9]), [1.0, 1.0, 1.0], 0.5, 3)
    assert run.k_transmitted == 3
    assert run.crossing is Crossing.UPPER
    assert run.decision is Hypothesis.H1
    assert run.partial_sum == pytest.approx(0.4)


def test_lr_validates_inputs():
    with pytest.raises(ValueError):
        lr_schedule_and_run(obs([1.0, 2.0]), [1.0], 0.5, 2)
    with pytest.raises(ValueError):
        lr_schedule_and_run(obs([1.0]), [1.0], 0.0, 1)


@pytest.mark.parametrize("seed", range(5))
def test_lr_matches_full_bayes_test(seed):
    # Every early decision must equal the all-sensor Bayes LR test.
    rng = np.random.default_rng(seed)
    roi = RoiConfig(side_b=100.0)
    model = SignalModel(p0=30.0, alpha=0.02)
    for trial in range(400):
        n = int(rng.integers(1, 30))
        prior = float(rng.uniform(0.05, 0.95))
        field = sample_field(n, roi, np.random.default_rng(rng.integers(2**32)))
        amps = oracle_amplitudes(field, roi, model)
        hyp = Hypothesis.H1 if rng.random() < 0.5 else Hypothesis.H0
        noise = rng.standard_normal(n)
        z = amps + noise if hyp is Hypothesis.H1 else noise
        observations = ObservationVector(z=z, hypothesis=hyp)
        run = lr_schedule_and_run(observations, amps, prior, n)
        llr_sum = float(np.sum(amps * z - 0.5 * amps * amps))
        bayes = Hypothesis.H1 if llr_sum > math.log((1 - prior) / prior) else Hypothesis.H0
        assert run.decision is bayes
