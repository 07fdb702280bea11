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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .field import Hypothesis, RoiConfig, SignalModel
from .fusion import FusionConfig, local_decisions
from .ordering import CROSSINGS, StopBatch, StoppedRun, arrival_order, run_ordered_counting, stop_batch

# No caller here, but these names stay bound: the benchmark's tracer
# (bench/tracing.py) patches them in this module and fails when one is
# missing.
from .field import generate_observations, sample_field  # noqa: F401
from .fusion import counting_rule  # noqa: F401
from .ordering import schedule  # noqa: F401

SWEEP_AXES = ("n_sensors", "p0", "local_pfa", "likelihood_r")

_U64 = 1 << 64
# Golden-ratio stride decorrelates per-cell seeds in sweeps; cell 0
# keeps the base seed so a single-value sweep equals a direct run.
_SEED_STRIDE = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set for one Monte Carlo run."""

    n_sensors: int
    roi: RoiConfig
    model: SignalModel
    local_pfa: float
    system_pfa: float
    likelihood_r: float
    n_trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ValueError(f"n_sensors must be positive, got {self.n_sensors!r}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be positive, got {self.n_trials!r}")
        if not 0.0 < self.local_pfa < 1.0:
            raise ValueError(f"local_pfa must be in (0, 1), got {self.local_pfa!r}")
        if not 0.0 < self.system_pfa < 1.0:
            raise ValueError(f"system_pfa must be in (0, 1), got {self.system_pfa!r}")
        if not 0.0 <= self.likelihood_r <= 1.0:
            raise ValueError(f"likelihood_r must be in [0, 1], got {self.likelihood_r!r}")
        if not 0 <= self.master_seed < _U64:
            raise ValueError(f"master_seed must be a 64-bit unsigned int, got {self.master_seed!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial, with the full-count decision for auditing."""

    trial_index: int
    hypothesis: Hypothesis
    stopped: StoppedRun
    full_count_decision: Hypothesis
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


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell: the axis value, the resolved config, and its summary."""

    axis_value: float
    config: ExperimentConfig
    summary: AntsSummary


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-mode substream keyed by (master seed, trial index)."""
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _TrialStream:
    """Reusable bit generator re-keyed per trial.

    Produces streams bit-identical to :func:`trial_rng` while skipping
    the per-trial bit-generator construction (which pulls OS entropy it
    never uses). The state setter copies the prepared state, so one
    state dict serves every trial. Not thread-safe.
    """

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._key = np.zeros(2, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def generator(self, master_seed: int, trial_index: int) -> np.random.Generator:
        self._key[0] = master_seed
        self._key[1] = trial_index
        self._bitgen.state = self._state
        return self._gen


@lru_cache(maxsize=128)
def _fusion_for(n_sensors: int, local_pfa: float, system_pfa: float) -> FusionConfig:
    return FusionConfig.from_rates(n_sensors, local_pfa, system_pfa)


# Trials per chunk times sensors. Larger chunks run no faster and raise
# peak memory.
_CHUNK_ELEMENTS = 1 << 13


def _chunk_size(n_sensors: int) -> int:
    return max(1, _CHUNK_ELEMENTS // n_sensors)


def _run_chunk(
    config: ExperimentConfig,
    fusion: FusionConfig,
    stream: _TrialStream,
    start: int,
    stop: int,
) -> tuple[np.ndarray, StopBatch]:
    """Run trials ``start .. stop - 1`` as arrays, audited trial by trial.

    Returns which trials drew H1 and how each run stopped, one row each.

    Each trial still draws from its own keyed stream, in the layout
    :func:`run_trial` documents: one ``random`` call covers the
    hypothesis draw and the positions (numpy's ``uniform(low, high)`` is
    ``low + (high - low) * random()``), then the noise.
    """
    n, roi, model = config.n_sensors, config.roi, config.model
    u = np.empty((stop - start, 1 + 2 * n))
    noise = np.empty((stop - start, n))
    for j, i in enumerate(range(start, stop)):
        g = stream.generator(config.master_seed, i)
        g.random(out=u[j])
        g.standard_normal(out=noise[j])

    h1 = u[:, 0] < config.likelihood_r
    low, high = -roi.half_side, roi.half_side
    positions = low + (high - low) * u[:, 1:]
    d = np.hypot(positions[:, 0::2] - roi.target_x, positions[:, 1::2] - roi.target_y)
    amp = np.sqrt(model.p0 / (1.0 + model.alpha * d**model.n_exp))
    z = np.add(amp, noise, out=noise, where=h1[:, None])

    t = fusion.system_threshold_t
    bits = local_decisions(z, fusion.detector)
    ordered = np.take_along_axis(bits, arrival_order(z, fusion.detector.tau), axis=1)
    stops = stop_batch(ordered, t)

    diverged = np.flatnonzero(stops.decision_h1 != (bits.sum(axis=1) > t))
    if diverged.size:
        raise RuntimeError(
            f"early-stop decision diverged from the full count at trial {start + diverged[0]}"
        )
    # Replay the chunk's first trial through the scalar scan.
    ref = run_ordered_counting(ordered[0], n, t)
    if (ref.k_transmitted, ref.crossing, ref.decision is Hypothesis.H1, ref.partial_sum) != (
        stops.k_transmitted[0],
        CROSSINGS[stops.crossing[0]],
        stops.decision_h1[0],
        stops.partial_sum[0],
    ):
        raise RuntimeError(f"batched stop scan diverged from the scalar scan at trial {start}")
    return h1, stops


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Run one fully deterministic trial.

    Stream layout (fixed so records are replayable individually): the
    hypothesis draw comes first, then sensor positions, then noise. H0
    trials sample a field too, keeping stream offsets identical across
    hypotheses.
    """
    if not 0 <= trial_index < config.n_trials:
        raise ValueError(f"trial_index {trial_index!r} outside [0, {config.n_trials})")
    fusion = _fusion_for(config.n_sensors, config.local_pfa, config.system_pfa)
    h1, stops = _run_chunk(config, fusion, _TrialStream(), trial_index, trial_index + 1)
    decision = Hypothesis.H1 if stops.decision_h1[0] else Hypothesis.H0
    k = int(stops.k_transmitted[0])
    return TrialRecord(
        trial_index=trial_index,
        hypothesis=Hypothesis.H1 if h1[0] else Hypothesis.H0,
        stopped=StoppedRun(
            k_transmitted=k,
            decision=decision,
            crossing=CROSSINGS[stops.crossing[0]],
            partial_sum=int(stops.partial_sum[0]),
        ),
        full_count_decision=decision,
        transmissions_saved=config.n_sensors - k,
    )


def monte_carlo(config: ExperimentConfig) -> AntsSummary:
    """Run all trials chunk by chunk and aggregate in exact integers."""
    fusion = _fusion_for(config.n_sensors, config.local_pfa, config.system_pfa)
    stream = _TrialStream()
    n, b = config.n_trials, _chunk_size(config.n_sensors)
    saved_sum = saved_sq = h1_n = h1_hits = h0_hits = 0
    crossings = [0, 0, 0]
    for start in range(0, n, b):
        h1, stops = _run_chunk(config, fusion, stream, start, min(start + b, n))
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


def _with_axis_value(base: ExperimentConfig, axis: str, value, seed: int) -> ExperimentConfig:
    if axis == "n_sensors":
        return replace(base, n_sensors=int(value), master_seed=seed)
    if axis == "p0":
        return replace(base, model=replace(base.model, p0=float(value)), master_seed=seed)
    if axis == "local_pfa":
        return replace(base, local_pfa=float(value), master_seed=seed)
    if axis == "likelihood_r":
        return replace(base, likelihood_r=float(value), master_seed=seed)
    raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")


def sweep(base: ExperimentConfig, axis: str, values) -> list[SweepCell]:
    """One Monte Carlo run per axis value, with per-cell derived seeds."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
    values = list(values)
    if not values:
        raise ValueError("sweep values must be nonempty")
    cells = []
    for i, value in enumerate(values):
        cfg = _with_axis_value(base, axis, value, cell_seed(base.master_seed, i))
        cells.append(SweepCell(axis_value=value, config=cfg, summary=monte_carlo(cfg)))
    return cells
