"""Tests for the Monte Carlo harness: determinism, aggregation, sweeps."""

import math

import numpy as np
import pytest

from orderfuse.experiment import (
    AntsSummary,
    ExperimentConfig,
    TrialRecord,
    _chunk_size,
    cell_seed,
    monte_carlo,
    run_trial,
    sweep,
    trial_rng,
)
from orderfuse.field import Hypothesis, RoiConfig, SignalModel, generate_observations, sample_field
from orderfuse.fusion import FusionConfig, counting_rule, local_decisions
from orderfuse.ordering import Crossing, run_ordered_counting, schedule

from test_fusion import binomial_tail_gt


def make_config(**overrides) -> ExperimentConfig:
    params = dict(
        n_sensors=100,
        roi=RoiConfig(side_b=100.0),
        model=SignalModel(p0=1e5, alpha=0.02, n_exp=2.0),
        local_pfa=1e-3,
        system_pfa=1e-3,
        likelihood_r=0.5,
        n_trials=2_000,
        master_seed=1234,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


# ── config validation ───────────────────────────────────────────────


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(n_sensors=0)
    with pytest.raises(ValueError):
        make_config(n_trials=0)
    with pytest.raises(ValueError):
        make_config(likelihood_r=1.5)
    with pytest.raises(ValueError):
        make_config(master_seed=-1)
    with pytest.raises(ValueError):
        make_config(master_seed=1 << 64)


# ── per-trial substreams ────────────────────────────────────────────


def test_trial_rng_is_keyed_and_reproducible():
    a = trial_rng(7, 3).random(4)
    b = trial_rng(7, 3).random(4)
    c = trial_rng(7, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_internal_stream_matches_public_trial_rng():
    from orderfuse.experiment import _TrialStream

    stream = _TrialStream()
    for master, idx in ((0, 0), (123456789, 42), ((1 << 64) - 1, 99_999)):
        expected = trial_rng(master, idx)
        got = stream.generator(master, idx)
        assert got.random() == expected.random()
        assert np.array_equal(got.standard_normal(16), expected.standard_normal(16))
        assert np.array_equal(got.uniform(-1, 1, 8), expected.uniform(-1, 1, 8))


def test_run_trial_deterministic():
    config = make_config()
    r1 = run_trial(config, 17)
    r2 = run_trial(config, 17)
    assert r1 == r2


def test_run_trial_bounds():
    config = make_config(n_trials=10)
    with pytest.raises(ValueError):
        run_trial(config, 10)


def test_trial_equivalence_audit_holds():
    config = make_config(n_trials=200)
    for i in range(200):
        rec = run_trial(config, i)
        assert rec.stopped.decision is rec.full_count_decision
        assert rec.transmissions_saved == config.n_sensors - rec.stopped.k_transmitted


def test_hypothesis_mix_extremes():
    all_h1 = make_config(likelihood_r=1.0, n_trials=100)
    assert all(run_trial(all_h1, i).hypothesis is Hypothesis.H1 for i in range(100))
    all_h0 = make_config(likelihood_r=0.0, n_trials=100)
    assert all(run_trial(all_h0, i).hypothesis is Hypothesis.H0 for i in range(100))


# ── monte_carlo aggregation ─────────────────────────────────────────


def test_single_trial_summary():
    config = make_config(n_trials=1)
    rec = run_trial(config, 0)
    summary = monte_carlo(config)
    assert summary.ants_mean == rec.transmissions_saved
    assert summary.ants_stderr == 0.0


def test_summary_counts_are_consistent():
    config = make_config(n_trials=500)
    s = monte_carlo(config)
    assert s.upper_count + s.lower_count + s.exhausted_count == 500
    assert 0.0 <= s.ants_mean <= config.n_sensors - 1


def test_no_h1_trials_yields_nan_pd():
    s = monte_carlo(make_config(likelihood_r=0.0, n_trials=50))
    assert math.isnan(s.empirical_pd)
    assert not math.isnan(s.empirical_pfa)


def test_empirical_pfa_matches_exact_binomial():
    # With no target, each trial's count is Bin(n, local_pfa); the false
    # alarm frequency must track the exact tail beyond the threshold.
    from orderfuse.fusion import system_threshold

    n, local_pfa, system_pfa = 100, 0.05, 0.1
    t = system_threshold(n, local_pfa, system_pfa)
    exact = binomial_tail_gt(n, local_pfa, t)
    trials = 20_000
    config = make_config(
        n_sensors=n,
        model=SignalModel(p0=0.0, alpha=0.02),
        local_pfa=local_pfa,
        system_pfa=system_pfa,
        likelihood_r=0.0,
        n_trials=trials,
        master_seed=77,
    )
    s = monte_carlo(config)
    band = 3.0 * math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(s.empirical_pfa - exact) <= band


def test_stderr_matches_numpy_reference():
    config = make_config(n_trials=400)
    saved = np.array(
        [run_trial(config, i).transmissions_saved for i in range(400)], dtype=float
    )
    s = monte_carlo(config)
    assert s.ants_mean == pytest.approx(saved.mean(), rel=1e-12)
    assert s.ants_stderr == pytest.approx(saved.std(ddof=1) / math.sqrt(400), rel=1e-12)


# ── batched kernel against the per-trial pipeline ───────────────────


def reference_trial(config: ExperimentConfig, fusion: FusionConfig, trial_index: int) -> TrialRecord:
    """One trial through the per-trial object pipeline, from its own stream."""
    t = fusion.system_threshold_t
    rng = trial_rng(config.master_seed, trial_index)
    hyp = Hypothesis.H1 if rng.random() < config.likelihood_r else Hypothesis.H0
    field = sample_field(config.n_sensors, config.roi, rng)
    observations = generate_observations(field, config.roi, config.model, hyp, rng)
    bits = local_decisions(observations.z, fusion.detector)
    order = schedule(observations, fusion.detector).order
    stopped = run_ordered_counting(bits[order], config.n_sensors, t)
    return TrialRecord(
        trial_index=trial_index,
        hypothesis=hyp,
        stopped=stopped,
        full_count_decision=counting_rule(bits, t),
        transmissions_saved=config.n_sensors - stopped.k_transmitted,
    )


def reference_summary(records: list[TrialRecord]) -> AntsSummary:
    """Per-trial aggregation in exact integers."""
    n = len(records)
    saved = [r.transmissions_saved for r in records]
    total, total_sq = sum(saved), sum(x * x for x in saved)
    h1 = [r.stopped.decision is Hypothesis.H1 for r in records if r.hypothesis is Hypothesis.H1]
    h0 = [r.stopped.decision is Hypothesis.H1 for r in records if r.hypothesis is Hypothesis.H0]
    crossings = [r.stopped.crossing for r in records]
    return AntsSummary(
        ants_mean=total / n,
        ants_stderr=math.sqrt((n * total_sq - total * total) / (n * (n - 1)) / n),
        empirical_pd=sum(h1) / len(h1) if h1 else math.nan,
        empirical_pfa=sum(h0) / len(h0) if h0 else math.nan,
        upper_count=crossings.count(Crossing.UPPER),
        lower_count=crossings.count(Crossing.LOWER),
        exhausted_count=crossings.count(Crossing.EXHAUSTED),
    )


@pytest.mark.parametrize("n_sensors", [1, 7, 20, 100])
def test_chunked_kernel_equals_per_trial_pipeline(n_sensors):
    # 2B + 3 trials: two full chunks and a short last one.
    config = make_config(
        n_sensors=n_sensors,
        model=SignalModel(p0=20.0, alpha=0.02, n_exp=2.0),
        local_pfa=0.05,
        system_pfa=0.1,
        n_trials=2 * _chunk_size(n_sensors) + 3,
        master_seed=31 + n_sensors,
    )
    fusion = FusionConfig.from_rates(n_sensors, config.local_pfa, config.system_pfa)
    records = [reference_trial(config, fusion, i) for i in range(config.n_trials)]
    expected = reference_summary(records)
    assert expected.upper_count and expected.lower_count
    assert monte_carlo(config) == expected
    for i, record in enumerate(records):
        assert run_trial(config, i) == record


# ── sweep ───────────────────────────────────────────────────────────


def test_single_value_sweep_equals_direct_run():
    config = make_config(n_trials=300)
    cells = sweep(config, "p0", [config.model.p0])
    assert len(cells) == 1
    assert cells[0].summary == monte_carlo(config)


def test_cell_seed_derivation():
    assert cell_seed(123, 0) == 123
    assert cell_seed(123, 1) != cell_seed(123, 2)
    assert 0 <= cell_seed((1 << 64) - 1, 5) < (1 << 64)


def test_sweep_rejects_bad_axis_and_empty_values():
    config = make_config(n_trials=10)
    with pytest.raises(ValueError):
        sweep(config, "tau", [1.0])
    with pytest.raises(ValueError):
        sweep(config, "p0", [])


def test_sweep_over_n_sensors_tracks_half_n():
    # Strong signal, even target likelihood: mean savings ride near n/2.
    cells = sweep(make_config(n_trials=4_000), "n_sensors", [50, 100, 200])
    for cell in cells:
        n = cell.config.n_sensors
        assert 0.45 <= cell.summary.ants_mean / n <= 0.52


def test_sweep_orders_rows_as_given():
    cells = sweep(make_config(n_trials=50), "likelihood_r", [0.9, 0.1])
    assert [c.axis_value for c in cells] == [0.9, 0.1]
    assert cells[0].config.likelihood_r == 0.9


def test_savings_clear_lower_bound_in_strong_signal_regime():
    # The expected-savings lower bound only binds when the signal is
    # strong enough that detection is near-certain; assert it there.
    from orderfuse.fusion import system_threshold
    from orderfuse.ordering import ants_bounds

    config = make_config(n_trials=4_000)
    assert config.model.p0 >= 1e4
    s = monte_carlo(config)
    assert s.empirical_pd >= 0.999
    t = system_threshold(config.n_sensors, config.local_pfa, config.system_pfa)
    bound = ants_bounds(config.n_sensors, t, config.likelihood_r).combined
    assert s.ants_mean >= bound - 3.0 * s.ants_stderr
