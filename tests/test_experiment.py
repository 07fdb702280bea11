"""Tests for the Monte Carlo harness: determinism, aggregation, sweeps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderfuse import experiment
from orderfuse.experiment import (
    _SKIP_FROM_N,
    SWEEP_AXES,
    AntsSummary,
    ExperimentConfig,
    SweepValueError,
    TrialRecord,
    _chunk_size,
    _RunState,
    cell_seed,
    monte_carlo,
    run_trial,
    sweep,
    trial_rng,
)
from orderfuse.field import Hypothesis, RoiConfig, SignalModel, generate_observations, sample_field
from orderfuse.fusion import counting_rule, local_decisions, system_threshold, threshold_from_local_pfa
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
    # Integer fields are checked as integers, so 1.5 cannot run seed 1 or
    # reach numpy as an array shape; bool is rejected too.
    for name, bad in (
        ("n_sensors", 20.5),
        ("n_trials", 50.5),
        ("master_seed", 1.5),
        ("master_seed", 1.9),
        ("n_sensors", True),
        ("master_seed", False),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            make_config(**{name: bad})
    config = make_config(n_sensors=np.int64(20), n_trials=np.int32(5), master_seed=np.uint64(7))
    assert monte_carlo(config) == monte_carlo(make_config(n_sensors=20, n_trials=5, master_seed=7))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"local_pfa": 0.0}, "local_pfa must be in (0, 1), got 0.0"),
        ({"local_pfa": 1.5}, "local_pfa must be in (0, 1), got 1.5"),
        ({"system_pfa": 1.0}, "system_pfa must be in (0, 1), got 1.0"),
        ({"system_pfa": -0.5}, "system_pfa must be in (0, 1), got -0.5"),
        # Both bad: local_pfa is checked first.
        ({"local_pfa": 2.0, "system_pfa": 2.0}, "local_pfa must be in (0, 1), got 2.0"),
        # The counts are checked before the rates, the rates before r and the seed.
        ({"n_sensors": 0, "local_pfa": 2.0}, "n_sensors must be positive, got 0"),
        ({"n_trials": 0, "system_pfa": 2.0}, "n_trials must be positive, got 0"),
        ({"system_pfa": 2.0, "likelihood_r": 2.0}, "system_pfa must be in (0, 1), got 2.0"),
        ({"local_pfa": 2.0, "master_seed": -1}, "local_pfa must be in (0, 1), got 2.0"),
    ],
)
def test_config_rate_messages(overrides, message):
    with pytest.raises(ValueError) as info:
        make_config(**overrides)
    assert str(info.value) == message


def test_config_derives_fusion():
    config = make_config(n_sensors=40, local_pfa=0.05, system_pfa=0.01)
    assert config.detector == threshold_from_local_pfa(0.05)
    assert config.system_threshold_t == system_threshold(40, 0.05, 0.01)
    with pytest.raises(TypeError):
        make_config(fusion=(config.detector, config.system_threshold_t))


# ── per-trial substreams ────────────────────────────────────────────


def test_trial_rng_is_keyed_and_reproducible():
    a = trial_rng(7, 3).random(4)
    b = trial_rng(7, 3).random(4)
    c = trial_rng(7, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def rekey(run: _RunState, master_seed: int, trial_index: int, block: int = 0):
    """Re-key ``run`` as ``_draw_chunk`` does: the trial's stream at output 4 * ``block``."""
    run.key[0] = master_seed
    run.key[1] = trial_index
    run.counter[0] = block
    run.bitgen.state = run.state
    return run.gen


def test_internal_stream_matches_public_trial_rng():
    run = _RunState(1, 1)
    for master, idx in ((0, 0), (123456789, 42), ((1 << 64) - 1, 99_999)):
        expected = trial_rng(master, idx)
        got = rekey(run, master, idx)
        assert got.random() == expected.random()
        assert np.array_equal(got.standard_normal(16), expected.standard_normal(16))
        assert np.array_equal(got.uniform(-1, 1, 8), expected.uniform(-1, 1, 8))


@given(
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 2**64 - 1),
    n=st.integers(1, 2 * _SKIP_FROM_N),
)
@settings(max_examples=60, deadline=None)
@example(seed=0, trial=0, n=_SKIP_FROM_N - 1)  # (1 + 2N) % 4 == 3 for even crossover
@example(seed=0, trial=0, n=_SKIP_FROM_N)  # (1 + 2N) % 4 == 1
@example(seed=2**64 - 1, trial=2**64 - 1, n=_SKIP_FROM_N + 1)
@example(seed=2**64 - 1, trial=7, n=_SKIP_FROM_N + 2)
def test_counter_jump_reaches_the_noise_bit_for_bit(seed, trial, n):
    # An H0 trial reads its hypothesis, then jumps over its 2N position
    # draws; its noise must be the full layout's, bit for bit.
    run = _RunState(n, 1)
    assert (1 + 2 * n) % 4 in (1, 3) and run.skipped.size == (1 + 2 * n) % 4
    got = rekey(run, seed, trial)
    hypothesis = got.random()
    # The same generator, re-keyed at the block holding output 1 + 2N.
    rekey(run, seed, trial, run.skip_block).random(out=run.skipped)
    full = trial_rng(seed, trial)
    assert full.random() == hypothesis
    full.random(2 * n)
    assert got.standard_normal(n).tobytes() == full.standard_normal(n).tobytes()


@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 1),
    m=st.integers(1, 4),
    n=st.sampled_from([1, 7, _SKIP_FROM_N - 1, _SKIP_FROM_N, _SKIP_FROM_N + 1]),
    r=st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=40, deadline=None)
@example(seed=2**64 - 1, start=2**64 - 4, m=4, n=_SKIP_FROM_N - 1, r=0.5)
@example(seed=2**64 - 1, start=2**64 - 4, m=4, n=_SKIP_FROM_N, r=0.5)
@example(seed=2**63, start=2**63 - 2, m=4, n=20, r=0.5)  # trial indices cross 2^63
@example(seed=2**63, start=2**63 - 2, m=4, n=_SKIP_FROM_N + 1, r=0.5)
def test_draw_chunk_matches_trial_rng_at_the_edges_of_the_key_range(seed, start, m, n, r):
    # Keys at or above 2^63 must reach the Philox state setter unchanged.
    # p0 = 0 adds a zero signal, so the noise rows keep their raw bytes.
    start = min(start, 2**64 - m)
    config = make_config(
        n_sensors=n, model=SignalModel(p0=0.0, alpha=0.02), likelihood_r=r, master_seed=seed
    )
    run = _RunState(n, m)
    h1, noise = experiment._draw_chunk(config, run, start, start + m)
    low, high = -config.roi.half_side, config.roi.half_side
    k = 0
    for j, i in enumerate(range(start, start + m)):
        full = trial_rng(seed, i)
        uniforms = full.random(1 + 2 * n)
        assert h1[j] == (uniforms[0] < r)
        if n < _SKIP_FROM_N:
            assert run.u[j].tobytes() == uniforms.tobytes()
        elif h1[j]:
            # H1 positions fill the leading rows, mapped into the ROI in place.
            assert run.u[k, 1:].tobytes() == (low + (high - low) * uniforms[1:]).tobytes()
            k += 1
        assert noise[j].tobytes() == full.standard_normal(n).tobytes()


def test_run_trial_deterministic():
    config = make_config()
    r1 = run_trial(config, 17)
    r2 = run_trial(config, 17)
    assert r1 == r2


def test_run_trial_bounds():
    config = make_config(n_trials=10)
    with pytest.raises(ValueError):
        run_trial(config, 10)
    with pytest.raises(ValueError, match=r"^trial_index must be an integer, got 1\.5$"):
        run_trial(config, 1.5)
    assert run_trial(config, np.int64(3)) == run_trial(config, 3)


def test_trial_equivalence_audit_holds():
    # Every early decision equals the counting rule over all N bits.
    config = make_config(n_trials=200)
    for i in range(200):
        rec = run_trial(config, i)
        _, _, bits = reference_draws(config, i)
        assert rec.stopped.decision is counting_rule(bits, config.system_threshold_t)
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


def reference_draws(config: ExperimentConfig, trial_index: int):
    """Hypothesis, observations and local bits of one trial, from its own stream."""
    rng = trial_rng(config.master_seed, trial_index)
    hyp = Hypothesis.H1 if rng.random() < config.likelihood_r else Hypothesis.H0
    positions = sample_field(config.n_sensors, config.roi, rng)
    z = generate_observations(positions, config.roi, config.model, hyp, rng)
    return hyp, z, local_decisions(z, config.detector)


def reference_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One trial through the per-trial object pipeline, from its own stream."""
    t = config.system_threshold_t
    hyp, z, bits = reference_draws(config, trial_index)
    stopped = run_ordered_counting(bits[schedule(z, config.detector)], t)
    assert stopped.decision is counting_rule(bits, t)
    return TrialRecord(
        trial_index=trial_index,
        hypothesis=hyp,
        stopped=stopped,
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


@pytest.mark.parametrize(
    "n_sensors, likelihood_r",
    [
        pytest.param(n, r, id=str(n) if r == 0.5 else f"{n}-r{r:g}")
        for r in (0.5, 0.0, 1.0)
        # Around the crossover where H0 trials start to jump over their
        # positions, and an odd N above it.
        for n in (1, 7, 20, 100, 1000, _SKIP_FROM_N - 1, _SKIP_FROM_N, (_SKIP_FROM_N + 1) | 1)
    ],
)
def test_chunked_kernel_equals_per_trial_pipeline(n_sensors, likelihood_r, monkeypatch):
    # 2B + 3 trials: two full chunks and a short last one. r = 0 and 1
    # give chunks with no H1 row and with only H1 rows. At N = 1 the
    # default chunk would make this 32,771 trials; 256 keeps the shape.
    if n_sensors == 1:
        monkeypatch.setattr(experiment, "_CHUNK_ELEMENTS", 1 << 8)
    config = make_config(
        n_sensors=n_sensors,
        model=SignalModel(p0=20.0, alpha=0.02, n_exp=2.0),
        local_pfa=0.05,
        system_pfa=0.1,
        likelihood_r=likelihood_r,
        n_trials=2 * _chunk_size(n_sensors) + 3,
        master_seed=31 + n_sensors,
    )
    records = [reference_trial(config, i) for i in range(config.n_trials)]
    expected = reference_summary(records)
    if likelihood_r == 0.5:
        assert expected.upper_count and expected.lower_count
    else:
        # r = 0 leaves no H1 trial to score, r = 1 no H0 trial.
        assert math.isnan(expected.empirical_pfa if likelihood_r else expected.empirical_pd)
    assert monte_carlo(config) == expected
    for i, record in enumerate(records):
        assert run_trial(config, i) == record


@pytest.mark.parametrize("n_sensors", [20, 100, 1000])
def test_scalar_replay_covers_every_multiple_of_the_old_chunk(n_sensors, monkeypatch):
    # The scalar replay checks trial i when i is a multiple of
    # max(1, 2^13 // N), the first trial of each chunk when chunks held
    # 2^13 elements; a larger chunk must not thin it.
    stride = max(1, (1 << 13) // n_sensors)
    config = make_config(
        n_sensors=n_sensors,
        model=SignalModel(p0=20.0, alpha=0.02, n_exp=2.0),
        local_pfa=0.05,
        system_pfa=0.1,
        n_trials=2 * _chunk_size(n_sensors) + 3,
    )
    assert config.n_trials % _chunk_size(n_sensors) == 3
    replayed = []
    real = experiment.run_ordered_counting

    def recording(ordered, t):
        replayed.append(np.array(ordered))
        return real(ordered, t)

    monkeypatch.setattr(experiment, "run_ordered_counting", recording)
    monte_carlo(config)
    expected = []
    for i in range(0, config.n_trials, stride):
        _, z, bits = reference_draws(config, i)
        expected.append(bits[schedule(z, config.detector)])
    assert len(replayed) == len(expected) == -(-config.n_trials // stride)
    for got, want in zip(replayed, expected):
        assert np.array_equal(got, want)


def test_kernel_peak_memory_is_pinned():
    # A 2,000-trial run at N = 1000 peaked at 1,132-1,163 KiB under
    # tracemalloc (numpy 2.4, four seeds): one set of chunk arrays, about
    # 750 KiB, plus the temporaries of the H1 geometry and the tie check.
    # The bound leaves about 23 % for numpy versions that allocate more;
    # a second set of chunk arrays, or a doubled chunk, exceeds it.
    config = make_config(n_sensors=1000, model=SignalModel(p0=200.0, alpha=0.02), n_trials=2_000)
    monte_carlo(config)
    tracemalloc.start()
    try:
        monte_carlo(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_430 * 1024


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
    with pytest.raises(SweepValueError, match="^n_sensors: sweep value 0: "):
        sweep(config, "n_sensors", [20, 0])


def test_sweep_over_n_sensors_tracks_half_n():
    # Strong signal, even target likelihood: mean savings ride near n/2.
    cells = sweep(make_config(n_trials=4_000), "n_sensors", [50, 100, 200])
    for cell in cells:
        n = cell.config.n_sensors
        assert 0.45 <= cell.summary.ants_mean / n <= 0.52


@pytest.mark.parametrize(
    "axis, values",
    [
        ("n_sensors", [20, 50.0, 7]),
        ("p0", [10, 2e3]),
        ("local_pfa", [0.05, 1e-4]),
        ("likelihood_r", [0, 1.0]),
    ],
)
def test_sweep_cells_rederive_fusion(axis, values):
    # replace() runs __post_init__ again, so each cell's thresholds come
    # from its own (n_sensors, local_pfa, system_pfa), and every axis
    # value is cast to its SWEEP_AXES type.
    cells = sweep(make_config(n_trials=5), axis, values)
    for cell, value in zip(cells, values, strict=True):
        cfg = cell.config
        assert cfg.detector == threshold_from_local_pfa(cfg.local_pfa)
        assert cfg.system_threshold_t == system_threshold(cfg.n_sensors, cfg.local_pfa, cfg.system_pfa)
        got = cfg.model.p0 if axis == "p0" else getattr(cfg, axis)
        assert type(got) is SWEEP_AXES[axis] and got == value


def test_sweep_cell_reports_the_cast_value_it_ran():
    (cell,) = sweep(make_config(n_trials=5), "n_sensors", [50.7])
    assert cell.config.n_sensors == 50
    assert type(cell.axis_value) is int and cell.axis_value == 50
    (cell,) = sweep(make_config(n_trials=5), "local_pfa", ["0.01"])
    assert type(cell.axis_value) is float and cell.axis_value == cell.config.local_pfa == 0.01


def test_sweep_orders_rows_as_given():
    cells = sweep(make_config(n_trials=50), "likelihood_r", [0.9, 0.1])
    assert [c.axis_value for c in cells] == [0.9, 0.1]
    assert cells[0].config.likelihood_r == 0.9


def test_savings_clear_lower_bound_in_strong_signal_regime():
    # The best-case savings are reached only when the signal is strong
    # enough that detection is near-certain and every H1 run's ones
    # arrive first; assert the mean sits within 3 stderr of it there.
    from orderfuse.ordering import ants_bounds

    config = make_config(n_trials=4_000)
    assert config.model.p0 >= 1e4
    s = monte_carlo(config)
    assert s.empirical_pd >= 0.999
    t = system_threshold(config.n_sensors, config.local_pfa, config.system_pfa)
    best = ants_bounds(config.n_sensors, t, config.likelihood_r).combined
    assert best == 49.5
    assert abs(s.ants_mean - best) <= 3.0 * s.ants_stderr
