"""Tests for transmission scheduling, early stopping, and best-case savings."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfuse.field import Hypothesis, RoiConfig, SignalModel, oracle_amplitudes, sample_field
from orderfuse.fusion import LocalDetector, counting_rule
from orderfuse.statmath import q_function
from orderfuse.ordering import (
    CROSSINGS,
    Crossing,
    ants_bounds,
    arrival_order,
    lr_schedule_and_run,
    ordered_bits,
    run_ordered_counting,
    schedule,
    stop_batch,
)


def detector_near(tau: float) -> LocalDetector:
    """A detector whose threshold is ``tau`` up to the Qinv round trip."""
    return LocalDetector(q_function(tau))


def reference_order(z_row, tau: float) -> list[int]:
    """Arrival order by plain Python: transmit time 1/|z - tau|, then index."""
    times = [math.inf if v == tau else 1.0 / abs(v - tau) for v in z_row]
    return sorted(range(len(times)), key=lambda i: (times[i], i))


# ── schedule ────────────────────────────────────────────────────────


def test_schedule_hand_trace():
    det = detector_near(3.09)
    z = np.array([4.1, 2.9, -1.0])
    order = schedule(z, det)
    # |z - tau| = [1.01, 0.19, 4.09] -> times [0.99, 5.26, 0.24]
    np.testing.assert_array_equal(order, [2, 0, 1])
    bits = (z > det.tau).astype(int)
    np.testing.assert_array_equal(bits[order], [0, 1, 0])


def test_schedule_tie_break_by_index():
    det = LocalDetector(0.5)  # tau = 0 exactly
    order = schedule([-2.0, 2.0, 1.0], det)  # sensors 0 and 1 tie
    np.testing.assert_array_equal(order, [0, 1, 2])


def test_schedule_single_sensor():
    order = schedule([5.0], detector_near(1.0))
    np.testing.assert_array_equal(order, [0])


def test_schedule_observation_at_threshold_goes_last():
    det = detector_near(1.0)
    # A zero gap never transmits on its own: its time is infinite.
    order = schedule([det.tau, 3.0, 0.5], det)
    assert order[-1] == 0


# ── run_ordered_counting ────────────────────────────────────────────


def test_run_stops_upper_hand_trace():
    run = run_ordered_counting([1, 0, 1, 0, 0], 1.5)
    assert run.crossing is Crossing.UPPER
    assert run.decision is Hypothesis.H1
    assert run.k_transmitted == 3
    assert run.partial_sum == 2


def test_run_stops_lower_hand_trace():
    run = run_ordered_counting([0, 0, 0, 0, 0], 1.5)
    assert run.crossing is Crossing.LOWER
    assert run.decision is Hypothesis.H0
    assert run.k_transmitted == 4  # 0 < 1.5 - (5 - 4)
    assert run.partial_sum == 0


def test_run_single_sensor_upper():
    run = run_ordered_counting([1], 0.5)
    assert run.k_transmitted == 1
    assert run.crossing is Crossing.UPPER
    assert run.decision is Hypothesis.H1


def test_run_exhausted_on_integer_threshold():
    # Final count equals the integer threshold: neither strict test fires.
    run = run_ordered_counting([1, 0, 1], 2.0)
    assert run.crossing is Crossing.EXHAUSTED
    assert run.k_transmitted == 3
    assert run.decision is Hypothesis.H0
    assert run.partial_sum == 2


def test_run_validates_input():
    with pytest.raises(ValueError, match="bits"):
        run_ordered_counting([2, 0, 0], 1.0)
    with pytest.raises(ValueError, match="nonempty vector"):
        run_ordered_counting([], 1.0)
    with pytest.raises(ValueError, match="nonempty vector"):
        run_ordered_counting([[1, 0], [0, 1]], 1.0)


def test_decision_equivalence_exhaustive_small():
    # Quick version of the acceptance sweep: n <= 8, all half-integer thresholds.
    for n in range(1, 9):
        thresholds = [k - 0.5 for k in range(0, n + 2)]
        for bits in itertools.product((0, 1), repeat=n):
            for t in thresholds:
                run = run_ordered_counting(list(bits), t)
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
    run = run_ordered_counting(bits, t)
    assert run.decision is counting_rule(bits, t)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40), st.data())
@settings(max_examples=150)
def test_stopping_minimality_and_savings(bits, data):
    n = len(bits)
    t = data.draw(st.floats(min_value=-1.0, max_value=n + 1.0))
    run = run_ordered_counting(bits, t)
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
                ref = run_ordered_counting(d, t)
                assert got.k_transmitted[row] == ref.k_transmitted, (n, t, d)
                assert CROSSINGS[got.crossing[row]] is ref.crossing, (n, t, d)
                assert got.decision_h1[row] == (ref.decision is Hypothesis.H1), (n, t, d)
                assert got.partial_sum[row] == ref.partial_sum, (n, t, d)
                assert got.row(row) == ref, (n, t, d)


def _reciprocal_collision() -> tuple[float, float]:
    """Adjacent doubles g1 < g2 with 1/g1 == 1/g2."""
    g = 1.5
    while 1.0 / g != 1.0 / np.nextafter(g, 2.0):
        g = float(np.nextafter(g, 2.0))
    return g, float(np.nextafter(g, 2.0))


def test_arrival_order_matches_schedule_rows_with_ties():
    det = detector_near(0.75)
    tau = det.tau
    rng = np.random.default_rng(5)
    # Few distinct values per row force equal gaps, on both sides of tau
    # and at tau itself (zero gap: transmits last).
    z = tau + rng.integers(-3, 4, size=(200, 9)) * 0.5
    z[:, 4] = tau
    order = arrival_order(z, tau)
    assert order.shape == z.shape
    for row in range(z.shape[0]):
        np.testing.assert_array_equal(order[row], reference_order(z[row], tau))
        np.testing.assert_array_equal(order[row], schedule(z[row], det))


def test_arrival_order_ties_on_equal_times_not_gaps():
    # Distinct gaps with equal transmit times keep index order.
    g1, g2 = _reciprocal_collision()
    z = np.array([[g1, g2, 0.0, -g2, -g1]])
    order = arrival_order(z, 0.0)
    np.testing.assert_array_equal(order[0], [0, 1, 3, 4, 2])
    np.testing.assert_array_equal(order[0], schedule(z[0], LocalDetector(0.5)))


def assert_ordered_bits_match(z: np.ndarray, tau: float) -> None:
    """ordered_bits equals the stable argsort reference, row by row."""
    bits = (z > tau).astype(np.int64)
    expected = np.take_along_axis(bits, arrival_order(z, tau), axis=1)
    got = ordered_bits(z, tau, bits)
    assert got.shape == z.shape
    for row in range(z.shape[0]):
        np.testing.assert_array_equal(got[row], expected[row], err_msg=f"row {row}: {z[row]}")


def test_ordered_bits_without_ties():
    tau = 0.3
    z = np.random.default_rng(11).standard_normal((64, 200))
    times = 1.0 / np.abs(z - tau)
    assert all(np.unique(row).size == row.size for row in times)
    assert_ordered_bits_match(z, tau)


def test_ordered_bits_equal_gaps_both_sides_of_tau():
    tau = 0.75
    # The 0 at index 1 ties with the 1 at index 0 and must follow it;
    # a plain sort of (time, bit) keys would put the 0 first.
    z = np.array([[tau + 1.0, tau - 1.0, tau + 3.0], [tau - 2.0, tau + 2.0, tau - 0.5]])
    assert_ordered_bits_match(z, tau)
    rng = np.random.default_rng(5)
    assert_ordered_bits_match(tau + rng.integers(-3, 4, size=(200, 9)) * 0.5, tau)


def test_ordered_bits_observation_at_tau():
    tau = -0.2
    # A zero gap gives an infinite time, whose bit pattern sorts last.
    z = np.array([[tau, 1.0, -1.0, 0.5], [tau, 2.0, tau, -3.0], [0.1, tau, tau, tau]])
    assert_ordered_bits_match(z, tau)


def test_ordered_bits_subnormal_gaps_overflow_to_inf():
    tau = 0.0
    tiny = 5e-324
    assert 1.0 / 1e-310 == np.inf  # these gaps tie with a zero gap
    z = np.array([
        [-tiny, tiny, 1.0, -2.0],
        [1e-310, 0.0, -1e-310, 0.5],
        [-tiny, 3.0, 0.0, -0.25],
    ])
    assert_ordered_bits_match(z, tau)


def test_ordered_bits_reciprocal_collisions():
    g1, g2 = _reciprocal_collision()
    z = np.array([[g1, g2, 0.0, -g2, -g1], [-g1, g2, 0.0, g1, -g2], [-g2, -g1, g1, g2, 3.0]])
    assert_ordered_bits_match(z, 0.0)


def test_ordered_bits_mixed_batch():
    tau = 1.25
    rng = np.random.default_rng(9)
    z = tau + rng.standard_normal((300, 40))
    tied = rng.random(300) < 0.3
    z[tied] = tau + rng.integers(-4, 5, size=(int(tied.sum()), 40)) * 0.25
    assert 0 < tied.sum() < 300
    assert_ordered_bits_match(z, tau)


# ── ants_bounds ─────────────────────────────────────────────────────


def test_ants_bounds_example():
    # Upper stop: 2 ones arrive first and save 98; lower stop: the count
    # must fall below T - (N - k), so at most 1 of 100 is saved.
    b = ants_bounds(100, 1.0767, 0.5)
    assert b.upper_case_bound == 49.0
    assert b.lower_case_bound == 0.5
    assert b.combined == 49.5


def test_ants_bounds_extreme_likelihoods():
    assert ants_bounds(100, 1.0767, 1.0).combined == 100 - 2
    assert ants_bounds(100, 1.0767, 0.0).combined == 1


@given(st.integers(min_value=1, max_value=500), st.data())
def test_ants_bounds_half_likelihood_is_half_n(n, data):
    non_integer = st.floats(min_value=1e-6, max_value=n - 1e-6).filter(lambda x: x != math.floor(x))
    t = data.draw(non_integer)
    assert ants_bounds(n, t, 0.5).combined == (n - 1) / 2.0


def test_ants_bounds_domain():
    with pytest.raises(ValueError):
        ants_bounds(0, 3.0, 0.5)
    with pytest.raises(ValueError):
        ants_bounds(10, 3.0, 1.5)
    # Defined for every threshold: T <= 0 allows no lower stop, T >= N
    # no upper stop, and a first arrival can decide either way.
    cases = ((-1.07, 99, 0), (0.0, 99, 0), (10.0, 89, 9), (100.0, 0, 99), (7e9, 0, 99))
    for t, upper, lower in cases:
        assert ants_bounds(100, t, 1.0).upper_case_bound == upper
        assert ants_bounds(100, t, 0.0).lower_case_bound == lower


def test_ants_bounds_are_best_cases_exhaustive():
    # Every bit vector up to n = 12: no run that stops UPPER (LOWER)
    # saves more than the upper (lower) case, and whenever that stop can
    # happen some run saves exactly that much.
    for n in range(1, 13):
        vectors = [np.array(bits, dtype=np.int64) for bits in itertools.product((0, 1), repeat=n)]
        for t in sorted({-2.5, -1.0, 0.0, 0.5, 1.0, n // 2, n / 2 + 0.3, n - 1.0, n, n + 1.5}):
            best = {Crossing.UPPER: None, Crossing.LOWER: None}
            for bits in vectors:
                run = run_ordered_counting(bits, t)
                if run.crossing in best:
                    saved = n - run.k_transmitted
                    best[run.crossing] = max(saved, best[run.crossing] or 0)
            upper = ants_bounds(n, t, 1.0).upper_case_bound
            lower = ants_bounds(n, t, 0.0).lower_case_bound
            assert 0 <= upper <= n - 1 and 0 <= lower <= n - 1, (n, t)
            assert upper == (best[Crossing.UPPER] or 0), (n, t, best)
            assert lower == (best[Crossing.LOWER] or 0), (n, t, best)


# ── lr_schedule_and_run (oracle baseline) ───────────────────────────


def test_lr_single_sensor_positive_llr():
    # Amplitude 2, observation 1.5: llr = 2*1.5 - 2 = 1 > 0 = ln((1-p)/p).
    run = lr_schedule_and_run([1.5], [2.0], 0.5)
    assert run.decision is Hypothesis.H1
    assert run.k_transmitted == 1
    assert run.partial_sum == pytest.approx(1.0)


def test_lr_final_step_has_zero_slack():
    # llrs [1.0, -1.0, 0.4]: sums [1.0, 0.0, 0.4] never clear the slack
    # until k = n, where the slack vanishes and 0.4 > 0 decides H1.
    run = lr_schedule_and_run([1.5, -0.5, 0.9], [1.0, 1.0, 1.0], 0.5)
    assert run.k_transmitted == 3
    assert run.crossing is Crossing.UPPER
    assert run.decision is Hypothesis.H1
    assert run.partial_sum == pytest.approx(0.4)


def test_lr_validates_inputs():
    with pytest.raises(ValueError, match="true_amplitudes"):
        lr_schedule_and_run([1.0, 2.0], [1.0], 0.5)
    with pytest.raises(ValueError, match="true_amplitudes"):
        lr_schedule_and_run([1.0, 2.0], [1.0, 1.0, 1.0], 0.5)
    with pytest.raises(ValueError, match="prior_p"):
        lr_schedule_and_run([1.0], [1.0], 0.0)


@pytest.mark.parametrize(
    "z, message",
    [
        ([1.0, math.nan], "finite"),
        ([math.inf, 0.5], "finite"),
        ([-math.inf], "finite"),
        ([[1.0, 2.0], [0.5, 0.25]], "nonempty vector"),
        ([], "nonempty vector"),
    ],
    ids=["nan", "inf", "minus-inf", "2-d", "empty"],
)
def test_observations_checked_at_the_boundary(z, message):
    # schedule and lr_schedule_and_run take z as a plain array and check
    # it themselves: nonempty, one-dimensional and finite.
    with pytest.raises(ValueError, match=message):
        schedule(z, LocalDetector(0.5))
    amps = np.ones(np.shape(z))
    with pytest.raises(ValueError, match=message):
        lr_schedule_and_run(z, amps, 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_lr_matches_full_bayes_test(seed):
    # Every early decision must equal the all-sensor Bayes LR test.
    rng = np.random.default_rng(seed)
    roi = RoiConfig(side_b=100.0)
    model = SignalModel(p0=30.0, alpha=0.02)
    for trial in range(400):
        n = int(rng.integers(1, 30))
        prior = float(rng.uniform(0.05, 0.95))
        positions = sample_field(n, roi, np.random.default_rng(rng.integers(2**32)))
        amps = oracle_amplitudes(positions, roi, model)
        hyp = Hypothesis.H1 if rng.random() < 0.5 else Hypothesis.H0
        noise = rng.standard_normal(n)
        z = amps + noise if hyp is Hypothesis.H1 else noise
        run = lr_schedule_and_run(z, amps, prior)
        llr_sum = float(np.sum(amps * z - 0.5 * amps * amps))
        bayes = Hypothesis.H1 if llr_sum > math.log((1 - prior) / prior) else Hypothesis.H0
        assert run.decision is bayes
