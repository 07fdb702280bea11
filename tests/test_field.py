"""Tests for sensor deployment, attenuation, and observation generation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderfuse.field import (
    Hypothesis,
    RoiConfig,
    SignalModel,
    generate_observations,
    oracle_amplitudes,
    oracle_distances,
    sample_field,
    scalar_amplitude,
    signal_amplitude,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


# ── configuration types ─────────────────────────────────────────────


def test_roi_validation():
    with pytest.raises(ValueError):
        RoiConfig(side_b=-1.0)
    with pytest.raises(ValueError):
        RoiConfig(side_b=10.0, target_x=6.0)
    roi = RoiConfig(side_b=10.0, target_x=5.0, target_y=-5.0)  # boundary ok
    assert roi.half_side == 5.0


def test_signal_model_validation():
    with pytest.raises(ValueError):
        SignalModel(p0=-1.0, alpha=0.02)
    with pytest.raises(ValueError):
        SignalModel(p0=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        SignalModel(p0=1.0, alpha=0.02, n_exp=1.9)
    with pytest.raises(ValueError):
        SignalModel(p0=1.0, alpha=0.02, n_exp=3.1)


# ── sample_field ────────────────────────────────────────────────────


def test_single_sensor_in_support():
    positions = sample_field(1, RoiConfig(side_b=2.0), rng(42))
    assert positions.shape == (1, 2)
    assert np.all(np.abs(positions) <= 1.0)


def test_sample_field_rejects_zero():
    with pytest.raises(ValueError):
        sample_field(0, RoiConfig(side_b=2.0), rng())


def test_uniform_moments():
    # Oracles: uniform mean 0 with sd b/sqrt(12)/sqrt(n); variance b^2/12.
    n, b = 100_000, 100.0
    x = sample_field(n, RoiConfig(side_b=b), rng(7))[:, 0]
    assert abs(x.mean()) <= 0.55  # 3 sigma of the mean estimator ~ 0.274
    assert x.var() == pytest.approx(b * b / 12.0, rel=0.02)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_positions_always_inside_roi(n, seed):
    b = 40.0
    positions = sample_field(n, RoiConfig(side_b=b), rng(seed))
    assert np.all(positions >= -b / 2)
    assert np.all(positions <= b / 2)


def test_field_reproducible_per_seed():
    roi = RoiConfig(side_b=30.0)
    f1 = sample_field(50, roi, rng(99))
    f2 = sample_field(50, roi, rng(99))
    assert np.array_equal(f1, f2)


# ── distance ────────────────────────────────────────────────────────


def distances(points, roi: RoiConfig) -> np.ndarray:
    return oracle_distances(np.array(points, dtype=float), roi)


def test_distance_examples():
    d = distances([(0.0, 0.0), (3.0, 4.0), (-50.0, -50.0)], RoiConfig(side_b=200.0))
    assert d[0] == 0.0
    assert d[1] == 5.0
    assert d[2] == pytest.approx(70.7107, abs=1e-4)


def test_distance_respects_target_offset():
    roi = RoiConfig(side_b=200.0, target_x=3.0, target_y=4.0)
    assert distances([(0.0, 0.0)], roi)[0] == 5.0


# ── signal_amplitude ────────────────────────────────────────────────


def test_amplitude_at_origin():
    model = SignalModel(p0=100.0, alpha=0.02, n_exp=2.0)
    assert signal_amplitude(model, 0.0) == 10.0


def test_amplitude_attenuated():
    model = SignalModel(p0=100.0, alpha=0.02, n_exp=2.0)
    assert signal_amplitude(model, 10.0) == pytest.approx(5.7735, abs=1e-4)


def test_amplitude_zero_power():
    model = SignalModel(p0=0.0, alpha=0.5, n_exp=2.5)
    assert signal_amplitude(model, 17.0) == 0.0


def test_amplitude_rejects_negative_distance():
    model = SignalModel(p0=1.0, alpha=0.02)
    with pytest.raises(ValueError):
        signal_amplitude(model, -0.1)


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
@example(0.0, 5.96e-08)
def test_amplitude_decreasing(d1, d2):
    model = SignalModel(p0=42.0, alpha=0.02, n_exp=2.0)
    lo, hi = min(d1, d2), max(d1, d2)
    base = 1.0 + model.alpha * lo**model.n_exp
    if model.alpha * (hi**model.n_exp - lo**model.n_exp) > 16 * math.ulp(base):
        assert signal_amplitude(model, lo) > signal_amplitude(model, hi)
    else:
        # A change in the denominator below a few ulps may round away.
        assert signal_amplitude(model, lo) >= signal_amplitude(model, hi)


def test_amplitude_vectorized_matches_scalar():
    model = SignalModel(p0=5.0, alpha=0.1, n_exp=2.3)
    ds = np.array([0.0, 1.0, 4.0, 30.0])
    vec = signal_amplitude(model, ds)
    assert vec.shape == (4,)
    for d, v in zip(ds, vec):
        assert v == signal_amplitude(model, float(d))


@given(
    st.floats(min_value=0.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=1e-6, max_value=10.0),
    st.one_of(st.just(2.0), st.floats(min_value=2.0, max_value=3.0)),
)
@example(0.0, 100.0, 0.02, 2.0)
@example(-0.0, 100.0, 0.02, 2.0)
@example(5e-324, 100.0, 0.02, 2.0)
@example(1e200, 100.0, 0.02, 2.0)  # d * d overflows to inf: amplitude 0.0
@example(0.0, 100.0, 0.02, 2.5)
@example(-0.0, 100.0, 0.02, 2.5)
@example(5e-324, 100.0, 0.02, 2.3)
@example(5e-324, 100.0, 0.02, 2.5)
@example(5e-324, 100.0, 0.02, 3.0)
@example(1e200, 100.0, 0.02, 2.3)  # d ** n_exp overflows to inf: amplitude 0.0
@example(1e200, 100.0, 0.02, 2.5)
@example(1e200, 100.0, 0.02, 3.0)
# Where numpy's power takes its AVX-512 loop, libm pow (a scalar ** or
# math.pow) gives another amplitude at these distances.
@example(40.5, 200.0, 0.02, 2.3)
@example(40.0, 200.0, 0.02, 2.5)
@example(51.4156488360521, 200.0, 0.02, 3.0)
@settings(max_examples=300)
def test_scalar_amplitude_bitwise_equals_array_path(d, p0, alpha, n_exp):
    # Both scalar routes must match the 1-D array path bit for bit:
    # scalar_amplitude (d * d at n_exp = 2, numpy's power ufunc on the
    # float otherwise), which theory_curves uses, and signal_amplitude
    # on a float, which takes the 0-d array path.
    model = SignalModel(p0=p0, alpha=alpha, n_exp=n_exp)
    with np.errstate(over="ignore"):
        expected = float(signal_amplitude(model, np.array([d]))[0])
        got = scalar_amplitude(model)(d)
        assert type(got) is float
        assert got.hex() == expected.hex()
        for scalar in (d, np.float64(d)):
            got = signal_amplitude(model, scalar)
            assert type(got) is float
            assert got.hex() == expected.hex()


@pytest.mark.parametrize("d", [-5e-324, -1e-300, -0.1, -1e200, -math.inf])
def test_negative_distance_rejected_by_both_paths(d):
    for n_exp in (2.0, 2.3, 2.5, 3.0):
        model = SignalModel(p0=1.0, alpha=0.02, n_exp=n_exp)
        for arg in (d, np.float64(d), np.array([d])):
            with pytest.raises(ValueError, match="nonnegative"):
                signal_amplitude(model, arg)


# ── generate_observations ───────────────────────────────────────────


def test_h0_observations_standard_gaussian():
    roi = RoiConfig(side_b=100.0)
    model = SignalModel(p0=123.0, alpha=0.02)
    positions = sample_field(1_000_000, roi, rng(3))
    z = generate_observations(positions, roi, model, Hypothesis.H0, rng(4))
    assert abs(z.mean()) <= 0.004  # 3 sigma band for 1e6 draws is 0.003
    assert z.std() == pytest.approx(1.0, rel=0.01)


def test_h1_zero_power_identical_to_h0():
    roi = RoiConfig(side_b=100.0)
    model = SignalModel(p0=0.0, alpha=0.02)
    positions = sample_field(500, roi, rng(5))
    z0 = generate_observations(positions, roi, model, Hypothesis.H0, rng(6))
    z1 = generate_observations(positions, roi, model, Hypothesis.H1, rng(6))
    assert np.array_equal(z0, z1)


def test_h1_mean_shift_at_target():
    # Sensors pinned to the target location: amplitude is exactly sqrt(p0).
    roi = RoiConfig(side_b=100.0)
    model = SignalModel(p0=100.0, alpha=0.02)
    z = generate_observations(np.zeros((1_000_000, 2)), roi, model, Hypothesis.H1, rng(8))
    assert z.mean() == pytest.approx(10.0, abs=0.004)


def test_observations_reproducible_per_seed():
    roi = RoiConfig(side_b=50.0)
    model = SignalModel(p0=10.0, alpha=0.02)
    positions = sample_field(64, roi, rng(11))
    z1 = generate_observations(positions, roi, model, Hypothesis.H1, rng(12))
    z2 = generate_observations(positions, roi, model, Hypothesis.H1, rng(12))
    assert np.array_equal(z1, z2)


# ── oracle accessors ────────────────────────────────────────────────


def test_oracle_distances_and_amplitudes():
    roi = RoiConfig(side_b=200.0)
    model = SignalModel(p0=100.0, alpha=0.02)
    positions = np.array([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(oracle_distances(positions, roi), [0.0, 5.0])
    amps = oracle_amplitudes(positions, roi, model)
    assert amps[0] == 10.0
    assert amps[1] == pytest.approx(signal_amplitude(model, 5.0))


@pytest.mark.parametrize("shape", [(2, 3), (2,), (0, 2), (1, 2, 2)])
def test_oracle_distances_rejects_positions_not_shaped_n_by_2(shape):
    with pytest.raises(ValueError, match="shape"):
        oracle_distances(np.zeros(shape), RoiConfig(side_b=10.0))
