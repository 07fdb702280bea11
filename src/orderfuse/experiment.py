"""Monte Carlo harness for the ordered fusion protocol.

Every trial owns a counter-mode random substream keyed by
(master_seed, trial_index), so trials are replayable individually and
the chunking of trials cannot change a single bit of the aggregate
results. Trials run in chunks, as arrays from the draws to the audit;
aggregation uses exact integer accumulators (saved transmissions are
integers), which makes the reduction order-independent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .field import Hypothesis, RoiConfig, SignalModel, signal_amplitude
from .fusion import FusionConfig, local_decisions
from .ordering import StopBatch, StoppedRun, ordered_bits, run_ordered_counting, stop_batch

# No caller here, but these names stay bound: the benchmark's tracer
# (bench/tracing.py) patches them in this module and fails when one is
# missing.
from .field import generate_observations, sample_field  # noqa: F401
from .fusion import counting_rule  # noqa: F401
from .ordering import schedule  # noqa: F401

# Sweep axis -> the type its values are cast to.
SWEEP_AXES = {"n_sensors": int, "p0": float, "local_pfa": float, "likelihood_r": float}

_U64 = 1 << 64
# Golden-ratio stride decorrelates per-cell seeds in sweeps; cell 0
# keeps the base seed so a single-value sweep equals a direct run.
_SEED_STRIDE = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set for one Monte Carlo run.

    ``fusion``, the local threshold tau and the count threshold T, is
    derived from (n_sensors, local_pfa, system_pfa), which it checks.
    """

    n_sensors: int
    roi: RoiConfig
    model: SignalModel
    local_pfa: float
    system_pfa: float
    likelihood_r: float
    n_trials: int
    master_seed: int
    fusion: FusionConfig = field(init=False)

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ValueError(f"n_sensors must be positive, got {self.n_sensors!r}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be positive, got {self.n_trials!r}")
        fusion = FusionConfig(self.n_sensors, self.local_pfa, self.system_pfa)
        object.__setattr__(self, "fusion", fusion)
        if not 0.0 <= self.likelihood_r <= 1.0:
            raise ValueError(f"likelihood_r must be in [0, 1], got {self.likelihood_r!r}")
        if not 0 <= self.master_seed < _U64:
            raise ValueError(f"master_seed must be a 64-bit unsigned int, got {self.master_seed!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial; its early decision was audited against the full count."""

    trial_index: int
    hypothesis: Hypothesis
    stopped: StoppedRun
    transmissions_saved: int


@dataclass(frozen=True)
class AntsSummary:
    """Aggregates of one Monte Carlo run.

    ``empirical_pd`` / ``empirical_pfa`` are NaN when the run contained
    no H1 / H0 trials.
    """

    ants_mean: float
    ants_stderr: float
    empirical_pd: float
    empirical_pfa: float
    upper_count: int
    lower_count: int
    exhausted_count: int


class SweepValueError(ValueError):
    """A sweep value that gives no valid cell config; names the axis."""


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell: the axis value, the resolved config, and its summary."""

    axis_value: int | float
    config: ExperimentConfig
    summary: AntsSummary


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-mode substream keyed by (master seed, trial index)."""
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Trials per chunk times sensors. The arrays live for the whole run, so a
# larger chunk costs memory, not page faults between chunks: 2^13 ran 4-7 %
# slower at N = 100 and 1000; 2^15 ran 2 % slower at N = 20, with twice the arrays.
_CHUNK_ELEMENTS = 1 << 14
_REPLAY_ELEMENTS = 1 << 13  # replay stride times sensors, whatever the chunk
# From this N up H0 trials jump over their positions; whole runs broke even here at r = 0.5.
_SKIP_FROM_N = 256


def _chunk_size(n_sensors: int) -> int:
    return max(1, _CHUNK_ELEMENTS // n_sensors)


class _RunState:
    """What the chunks of one run share; each chunk of up to ``b`` trials fills the arrays in place.

    One Philox bit generator, re-keyed per trial, gives streams
    bit-identical to :func:`trial_rng` while skipping the per-trial
    construction (which pulls OS entropy it never uses). The state
    setter copies the prepared ``state`` dict, so one dict serves every
    trial. Its key, counter and buffer are lists of Python ints: the
    setter reads all ten entries one at a time, and a numpy ``uint64``
    entry costs a scalar conversion each, which made a re-key about
    2.5x slower. A caller re-keys by writing ``key`` and ``counter`` and
    assigning ``state`` to ``bitgen.state``; ``gen`` then draws from
    output 4 * ``counter[0]`` of the keyed stream. Not thread-safe.

    Arrays freed after every chunk let glibc trim the heap and fault it
    back in. The arrays are views of one block, whose release raises
    glibc's trim threshold above it, so the next run reuses its pages
    too. A one-trial run (``b`` = 1) is always replayed.
    """

    def __init__(self, n: int, b: int) -> None:
        self.bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self.gen = np.random.Generator(self.bitgen)
        self.key = [0, 0]
        self.counter = [0, 0, 0, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": self.counter, "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.replay_stride = max(1, min(b, _REPLAY_ELEMENTS // n))
        mem = np.empty(b * (6 * n + 1))
        self.u = mem[: b * (1 + 2 * n)].reshape(b, 1 + 2 * n)
        self.noise, *ints = mem[b * (1 + 2 * n) :].reshape(4, b, n)
        self.bits, self.ordered, self.counts = (a.view(np.int64) for a in ints)
        self.h1 = np.empty(b, dtype=bool)
        self.skip_block, rest = divmod(1 + 2 * n, 4)
        self.skipped = np.empty(rest)


def _draw_chunk(
    config: ExperimentConfig, run: _RunState, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which of trials ``start .. stop - 1`` drew H1, and their observations.

    Each trial draws from its own keyed stream in the layout of
    :func:`run_trial`; numpy's ``uniform(low, high)`` is
    ``low + (high - low) * random()``. From ``_SKIP_FROM_N`` up an H0
    trial re-keys at the Philox block holding output 1 + 2N and discards
    the outputs before it, so its noise is the same, and H1 positions fill
    the leading rows of ``run.u``. The results are views into ``run``.
    """
    n, roi, r, seed = config.n_sensors, config.roi, config.likelihood_r, config.master_seed
    u, noise, h1 = run.u, run.noise[: stop - start], run.h1[: stop - start]
    bitgen, state, key, counter = run.bitgen, run.state, run.key, run.counter
    random, standard_normal = run.gen.random, run.gen.standard_normal
    key[0] = seed
    if n < _SKIP_FROM_N:
        counter[0] = 0
        for i, u_row, noise_row in zip(range(start, stop), u, noise):
            key[1] = i
            bitgen.state = state
            random(out=u_row)
            standard_normal(out=noise_row)
        np.less(u[: stop - start, 0], r, out=h1)
        rows = np.flatnonzero(h1)
        positions = u[rows, 1:]
    else:
        k, skip_block, skipped = 0, run.skip_block, run.skipped
        for j, i in enumerate(range(start, stop)):
            key[1] = i
            counter[0] = 0
            bitgen.state = state
            h1[j] = hit = random() < r
            if hit:
                random(out=u[k, 1:])
                k += 1
            else:
                counter[0] = skip_block
                bitgen.state = state
                random(out=skipped)
            standard_normal(out=noise[j])
        rows, positions = np.flatnonzero(h1), u[:k, 1:]

    # Only H1 rows carry the signal.
    low, high = -roi.half_side, roi.half_side
    positions *= high - low
    positions += low
    xs, ys = positions[:, 0::2], positions[:, 1::2]
    xs -= roi.target_x
    ys -= roi.target_y
    noise[rows] += signal_amplitude(config.model, np.hypot(xs, ys))
    return h1, noise


def _run_chunk(
    config: ExperimentConfig, run: _RunState, start: int, stop: int
) -> tuple[np.ndarray, StopBatch]:
    """Run trials ``start .. stop - 1`` as arrays, audited trial by trial.

    Returns which trials drew H1 (a view into ``run``) and how each run
    stopped, one row each. Trials whose index is a multiple of
    ``run.replay_stride`` are replayed through the scalar scan.
    """
    m = stop - start
    h1, z = _draw_chunk(config, run, start, stop)

    det, t = config.fusion.detector, config.fusion.system_threshold_t
    bits = local_decisions(z, det, out=run.bits[:m])
    ordered = ordered_bits(z, det.tau, bits, out=run.ordered[:m])
    stops = stop_batch(ordered, t, out=run.counts[:m])

    diverged = np.flatnonzero(stops.decision_h1 != (bits.sum(axis=1) > t))
    if diverged.size:
        raise RuntimeError(
            f"early-stop decision diverged from the full count at trial {start + diverged[0]}"
        )
    stride = run.replay_stride
    for i in range(-(-start // stride) * stride, stop, stride):
        j = i - start
        if run_ordered_counting(ordered[j], t) != stops.row(j):
            raise RuntimeError(f"batched stop scan diverged from the scalar scan at trial {i}")
    return h1, stops


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Run one fully deterministic trial.

    Stream layout (fixed so records are replayable individually): the
    hypothesis draw comes first, then sensor positions, then noise. H0
    trials keep the positions' place in the stream, so noise offsets are
    identical across hypotheses.
    """
    if not 0 <= trial_index < config.n_trials:
        raise ValueError(f"trial_index {trial_index!r} outside [0, {config.n_trials})")
    n = config.n_sensors
    h1, stops = _run_chunk(config, _RunState(n, 1), trial_index, trial_index + 1)
    stopped = stops.row(0)
    return TrialRecord(
        trial_index=trial_index,
        hypothesis=Hypothesis.H1 if h1[0] else Hypothesis.H0,
        stopped=stopped,
        transmissions_saved=n - stopped.k_transmitted,
    )


def monte_carlo(config: ExperimentConfig) -> AntsSummary:
    """Run all trials chunk by chunk and aggregate in exact integers."""
    n, b = config.n_trials, _chunk_size(config.n_sensors)
    run = _RunState(config.n_sensors, min(b, n))
    saved_sum = saved_sq = h1_n = h1_hits = h0_hits = 0
    crossings = [0, 0, 0]
    for start in range(0, n, b):
        h1, stops = _run_chunk(config, run, start, min(start + b, n))
        saved = config.n_sensors - stops.k_transmitted
        saved_sum += int(saved.sum())
        saved_sq += int((saved * saved).sum())
        h1_n += int(np.count_nonzero(h1))
        h1_hits += int(np.count_nonzero(h1 & stops.decision_h1))
        h0_hits += int(np.count_nonzero(~h1 & stops.decision_h1))
        for code, count in enumerate(np.bincount(stops.crossing, minlength=3)):
            crossings[code] += int(count)
    h0_n = n - h1_n

    mean = saved_sum / n
    if n > 1:
        # Exact integer arithmetic keeps the reduction order-independent.
        var = (n * saved_sq - saved_sum * saved_sum) / (n * (n - 1))
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    return AntsSummary(
        ants_mean=mean,
        ants_stderr=stderr,
        empirical_pd=h1_hits / h1_n if h1_n else math.nan,
        empirical_pfa=h0_hits / h0_n if h0_n else math.nan,
        upper_count=crossings[0],
        lower_count=crossings[1],
        exhausted_count=crossings[2],
    )


def cell_seed(master_seed: int, cell_index: int) -> int:
    """Derived master seed for sweep cell ``cell_index`` (cell 0 = base)."""
    return (master_seed + cell_index * _SEED_STRIDE) % _U64


def sweep(base: ExperimentConfig, axis: str, values) -> list[SweepCell]:
    """One Monte Carlo run per axis value, with per-cell derived seeds.

    Each value is cast once by its :data:`SWEEP_AXES` type; the cell
    keeps the cast value it ran. Every cell's config is built before
    any cell runs, so a bad value raises :class:`SweepValueError` before
    any Monte Carlo work.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
    values = list(values)
    if not values:
        raise ValueError("sweep values must be nonempty")
    cells = []
    for i, raw in enumerate(values):
        seed = cell_seed(base.master_seed, i)
        try:
            value = SWEEP_AXES[axis](raw)
            if axis == "p0":
                cfg = replace(base, model=replace(base.model, p0=value), master_seed=seed)
            else:
                cfg = replace(base, **{axis: value}, master_seed=seed)
        except ValueError as exc:
            raise SweepValueError(f"{axis}: sweep value {raw!r}: {exc}") from exc
        cells.append((value, cfg))
    return [SweepCell(axis_value=v, config=cfg, summary=monte_carlo(cfg)) for v, cfg in cells]
