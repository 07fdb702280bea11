"""Ordered transmissions with early stopping at the fusion center.

Instead of collecting all N one-bit decisions, each sensor transmits at
time 1/|z_i - tau|: the farther an observation sits from the local
threshold, the earlier (and more informative) the transmission. The
fusion center accumulates the arriving bits and halts the network over
an error-free feedback channel as soon as the final counting-rule
decision is forced:

    upper stop:  partial count > T          -> declare H1
    lower stop:  partial count < T - (N-k)  -> declare H0

After k arrivals the N-k silent sensors can add at most N-k to the
count, so either stop is irrevocable and the early decision always
matches the full-count decision. Transmissions saved on a run: N - k.

:func:`schedule` and :func:`run_ordered_counting` handle one run and
check their inputs; :func:`arrival_order` and :func:`stop_batch` do the
same work on many runs at once, one row each, for the Monte Carlo
kernel. :func:`ordered_bits` gives the arrival-ordered bits of many
runs from one sort of packed (transmit time, bit) keys; only a run in
which two sensors share a transmit time goes through the stable
:func:`arrival_order`, which puts equal times in index order.

The module also provides the best-case savings for the two stop cases
and, as an oracle baseline, the classical ordering protocol in which
sensors transmit raw log-likelihood ratios (requires the true signal
amplitudes, i.e. known geometry). Both per-run scans share one
first-crossing rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .field import Hypothesis
from .fusion import LocalDetector


class Crossing(Enum):
    """Which stopping condition ended a run."""

    UPPER = "upper"
    LOWER = "lower"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class StoppedRun:
    """Outcome of one ordered-fusion run.

    ``partial_sum`` is the count of positive bits for the counting rule
    and the log-likelihood sum for the likelihood-ratio baseline.
    """

    k_transmitted: int
    decision: Hypothesis
    crossing: Crossing
    partial_sum: float


@dataclass(frozen=True)
class AntsBounds:
    """Best-case transmissions saved, by stop case, weighted by likelihood."""

    upper_case_bound: float
    lower_case_bound: float
    combined: float


def _transmit_times(z: np.ndarray, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """1/|z - tau| elementwise: positive doubles, ``inf`` for a zero gap."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(1.0, np.abs(np.subtract(z, tau, out=out), out=out), out=out)


def _observations(z) -> np.ndarray:
    """``z`` as a float vector, checked to be nonempty, 1-D and finite."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError(f"z must be a nonempty vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("observations must be finite")
    return z


def schedule(z, det: LocalDetector) -> np.ndarray:
    """Sensor indices in arrival order, earliest transmitter first.

    Sensor i transmits at 1/|z_i - tau| (never, i.e. last, when
    z_i == tau); equal times go in ascending index order.
    """
    return arrival_order(_observations(z), det.tau)


def _first_crossing(
    sums: np.ndarray, upper: np.ndarray, lower: np.ndarray, exhausted_h1: bool
) -> StoppedRun:
    """Stop at the first k where ``upper`` (H1) or ``lower`` (H0) holds.

    ``sums[k - 1]`` is the partial sum after k arrivals. If neither
    condition ever holds the run is EXHAUSTED at k = n and decides H1
    iff ``exhausted_h1``.
    """
    fired = upper | lower
    if fired.any():
        idx = int(np.argmax(fired))
        if upper[idx]:
            crossing, decision = Crossing.UPPER, Hypothesis.H1
        else:
            crossing, decision = Crossing.LOWER, Hypothesis.H0
        return StoppedRun(idx + 1, decision, crossing, sums[idx].item())
    decision = Hypothesis.H1 if exhausted_h1 else Hypothesis.H0
    return StoppedRun(len(sums), decision, Crossing.EXHAUSTED, sums[-1].item())


def run_ordered_counting(ordered_decisions, t: float) -> StoppedRun:
    """Feed ordered one-bit decisions to the fusion center until a stop.

    Scans the n decisions in arrival order; after the k-th bit the run
    stops with UPPER when the partial count exceeds ``t`` and with LOWER
    when it falls below ``t - (n - k)``. If neither fires through k = n
    (possible only when the final count equals an integer ``t``), the
    run is EXHAUSTED and resolved by the strict count comparison.
    """
    d = np.asarray(ordered_decisions)
    if d.ndim != 1 or d.shape[0] < 1:
        raise ValueError(f"ordered decisions must be a nonempty vector, got shape {d.shape}")
    if not np.all((d == 0) | (d == 1)):
        raise ValueError("decisions must be 0/1 bits")
    t = float(t)

    counts = np.cumsum(d.astype(np.int64))
    n = d.shape[0]
    k = np.arange(1, n + 1)
    return _first_crossing(counts, counts > t, counts < t - (n - k), counts[-1] > t)


class StopBatch(NamedTuple):
    """Outcomes of many ordered-fusion runs, one row each.

    ``crossing`` holds indices into :data:`CROSSINGS`; ``decision_h1``
    is True where the run declares H1.
    """

    k_transmitted: np.ndarray
    crossing: np.ndarray
    decision_h1: np.ndarray
    partial_sum: np.ndarray


CROSSINGS = (Crossing.UPPER, Crossing.LOWER, Crossing.EXHAUSTED)


def arrival_order(z: np.ndarray, tau: float) -> np.ndarray:
    """Arrival order of each row of observations ``z``, as in :func:`schedule`.

    Sorts the transmit times themselves: distinct gaps can round to the
    same 1/gap, and the stable tie rule must treat those as equal.
    """
    return np.argsort(_transmit_times(z, tau), axis=-1, kind="stable")


def ordered_bits(
    z: np.ndarray, tau: float, bits: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Each row of int64 0/1 ``bits`` in the arrival order of that row of ``z``.

    Equal to ``np.take_along_axis(bits, arrival_order(z, tau), axis=1)``.
    Transmit times are positive doubles or ``inf``, so their bit patterns
    as ``uint64`` sort like the values and leave the top bit free: one
    sort of ``time << 1 | bit`` yields the ordered bits in the low bit.
    A row holding two equal times is redone with :func:`arrival_order`,
    which keeps the stable rule (equal times go in index order).
    ``out``, a C-contiguous int64 array shaped like ``z``, holds the keys
    and then the result.
    """
    times = _transmit_times(z, tau, None if out is None else out.view(np.float64))
    key = times.view(np.uint64)
    key <<= np.uint64(1)
    key |= bits.view(np.uint64)
    key.sort(axis=1)
    ranked = key >> np.uint64(1)
    tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    key &= np.uint64(1)
    ordered = key.view(np.int64)
    if tied.size:
        ordered[tied] = np.take_along_axis(bits[tied], arrival_order(z[tied], tau), axis=1)
    return ordered


def stop_batch(ordered_decisions: np.ndarray, t: float, out: np.ndarray | None = None) -> StopBatch:
    """:func:`run_ordered_counting` on every row of a (runs, n) bit matrix.

    The caller guarantees 0/1 integer bits; nothing is re-checked.
    ``out``, an int64 array of the same shape, receives the running counts.
    """
    n = ordered_decisions.shape[1]
    counts = np.cumsum(ordered_decisions, axis=1, out=out)
    upper = counts > t
    fired = upper | (counts < t - (n - np.arange(1, n + 1)))
    idx = np.argmax(fired, axis=1)
    rows = np.arange(counts.shape[0])
    stopped = fired[rows, idx]
    up = upper[rows, idx]
    final = counts[:, -1]
    return StopBatch(
        k_transmitted=np.where(stopped, idx + 1, n),
        crossing=np.where(stopped, np.where(up, 0, 1), 2),
        decision_h1=np.where(stopped, up, final > t),
        partial_sum=np.where(stopped, counts[rows, idx], final),
    )


def ants_bounds(n: int, t: float, r: float) -> AntsBounds:
    """Best-case transmissions saved at threshold ``t``, by stop case.

    ``r`` is the fraction of runs with the target present; it weights
    the savings only and never enters any detector.

    An upper stop needs a count above ``t``, so at least
    max(1, floor(t) + 1) arrivals: it saves at most
    n - max(1, floor(t) + 1), weighted by r (0 when no upper stop is
    possible, t >= n). A lower stop after k arrivals needs
    n - k < t - count, so it saves at most min(n - 1, ceil(t) - 1),
    weighted by 1 - r (0 when t <= 0). These are what a run with every
    bit 1, or every bit 0, saves; they are not bounds on the expected
    savings of random runs, which save less. Each value lies in
    [0, n - 1] for every real ``t``; for non-integer t in (0, n) at
    r = 0.5 the combined value is (n - 1) / 2.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r!r}")
    t = float(t)
    upper_case = r * max(0, n - max(1, math.floor(t) + 1))
    lower_case = (1.0 - r) * min(n - 1, max(0, math.ceil(t) - 1))
    return AntsBounds(
        upper_case_bound=upper_case,
        lower_case_bound=lower_case,
        combined=upper_case + lower_case,
    )


def lr_schedule_and_run(z, true_amplitudes, prior_p: float) -> StoppedRun:
    """Raw log-likelihood-ratio ordering protocol (oracle baseline).

    For the Gaussian mean-shift observation model the per-sensor
    log-likelihood ratio is ln L_i = s_i * z_i - s_i**2 / 2, with s_i the
    true amplitude (known-geometry oracle input) of sensor i of n.
    Sensors transmit in descending |ln L|; after k arrivals the center
    declares H1 when

        sum_k > ln((1-p)/p) + (n-k) * |ln L_[k]|

    and H0 when the sum falls below the mirrored bound. The slack term
    bounds the total contribution still outstanding, so the decision
    equals the all-sensor Bayes likelihood-ratio test; at k = n the
    slack vanishes and the comparison is the unconstrained Bayes test
    (tie at equality decides H0).
    """
    z = _observations(z)
    prior_p = float(prior_p)
    if not 0.0 < prior_p < 1.0:
        raise ValueError(f"prior_p must be in (0, 1), got {prior_p!r}")
    s = np.asarray(true_amplitudes, dtype=float)
    if s.shape != z.shape:
        raise ValueError(f"true_amplitudes must have shape {z.shape}, got {s.shape}")

    n = z.shape[0]
    llr = s * z - 0.5 * s * s
    order = np.argsort(-np.abs(llr), kind="stable")
    ordered = llr[order]
    sums = np.cumsum(ordered)
    k = np.arange(1, n + 1)
    slack = (n - k) * np.abs(ordered)
    theta = math.log((1.0 - prior_p) / prior_p)

    # Exhaustion means the full sum sits exactly on the Bayes threshold.
    return _first_crossing(sums, sums > theta + slack, sums < theta - slack, False)
