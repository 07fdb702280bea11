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
kernel.

The module also provides the expected-savings lower bounds for the two
stop cases and, as an oracle baseline, the classical ordering protocol
in which sensors transmit raw log-likelihood ratios (requires the true
signal amplitudes, i.e. known geometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .field import Hypothesis, ObservationVector
from .fusion import LocalDetector


class Crossing(Enum):
    """Which stopping condition ended a run."""

    UPPER = "upper"
    LOWER = "lower"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True, eq=False)
class TransmissionSchedule:
    """Transmit times per sensor and the induced arrival order.

    ``times[i]`` is 1/|z_i - tau| (infinite when z_i == tau, which
    schedules that sensor last); ``order`` lists sensor indices earliest
    transmitter first, ties broken by ascending index.
    """

    order: np.ndarray
    times: np.ndarray


@dataclass(frozen=True)
class StoppedRun:
    """Outcome of one ordered-fusion run."""

    k_transmitted: int
    decision: Hypothesis
    crossing: Crossing
    partial_sum: int


@dataclass(frozen=True)
class AntsBounds:
    """Lower bounds on expected transmissions saved, by stop case.

    ``likelihood_r`` is the fraction of runs with the target present; it
    characterizes savings only and never enters any detector.
    """

    upper_case_bound: float
    lower_case_bound: float
    combined: float
    likelihood_r: float


@dataclass(frozen=True)
class LrOrderedRun:
    """Outcome of one raw log-likelihood-ratio ordered run (oracle baseline)."""

    k_transmitted: int
    decision: Hypothesis
    crossing: Crossing
    partial_sum: float


def schedule(observations: ObservationVector, det: LocalDetector) -> TransmissionSchedule:
    """Transmit times 1/|z - tau| and the arrival order they induce."""
    gaps = np.abs(observations.z - det.tau)
    with np.errstate(divide="ignore"):
        times = np.where(gaps > 0.0, 1.0 / gaps, np.inf)
    order = np.argsort(times, kind="stable")
    return TransmissionSchedule(order=order, times=times)


def run_ordered_counting(ordered_decisions, n: int, t: float) -> StoppedRun:
    """Feed ordered one-bit decisions to the fusion center until a stop.

    Scans the decisions in arrival order; after the k-th bit the run
    stops with UPPER when the partial count exceeds ``t`` and with LOWER
    when it falls below ``t - (n - k)``. If neither fires through k = n
    (possible only when the final count equals an integer ``t``), the
    run is EXHAUSTED and resolved by the strict count comparison.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    d = np.asarray(ordered_decisions)
    if d.ndim != 1 or d.shape[0] != n:
        raise ValueError(f"expected {n} ordered decisions, got shape {d.shape}")
    if not np.all((d == 0) | (d == 1)):
        raise ValueError("decisions must be 0/1 bits")
    t = float(t)

    counts = np.cumsum(d.astype(np.int64))
    k = np.arange(1, n + 1)
    upper = counts > t
    lower = counts < t - (n - k)
    fired = upper | lower
    if fired.any():
        idx = int(np.argmax(fired))
        if upper[idx]:
            crossing, decision = Crossing.UPPER, Hypothesis.H1
        else:
            crossing, decision = Crossing.LOWER, Hypothesis.H0
        return StoppedRun(
            k_transmitted=idx + 1,
            decision=decision,
            crossing=crossing,
            partial_sum=int(counts[idx]),
        )
    final = int(counts[-1])
    return StoppedRun(
        k_transmitted=n,
        decision=Hypothesis.H1 if final > t else Hypothesis.H0,
        crossing=Crossing.EXHAUSTED,
        partial_sum=final,
    )


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
    gaps = np.abs(z - tau)
    with np.errstate(divide="ignore"):
        times = np.where(gaps > 0.0, 1.0 / gaps, np.inf)
    return np.argsort(times, axis=-1, kind="stable")


def stop_batch(ordered_decisions: np.ndarray, t: float) -> StopBatch:
    """:func:`run_ordered_counting` on every row of a (runs, n) bit matrix.

    The caller guarantees 0/1 integer bits; nothing is re-checked.
    """
    n = ordered_decisions.shape[1]
    counts = np.cumsum(ordered_decisions, axis=1)
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
    """Lower bounds on expected transmissions saved at threshold ``t``.

    When the upper threshold stops the run (strong target signal), at
    most ceil(t) transmissions are needed, saving at least
    (n - ceil(t)) * r in expectation; when the lower threshold stops it
    (target absent), at least ceil(t) are saved, contributing
    ceil(t) * (1 - r). The two stop events are disjoint, so the bounds
    add; at r = 0.5 the combined bound is exactly n/2. The bounds are
    meaningful for 0 < t < n.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r!r}")
    t = float(t)
    if not t < n:
        raise ValueError(f"threshold t={t!r} must be below the sensor count {n}")
    ct = math.ceil(t)
    upper_case = (n - ct) * r
    lower_case = ct * (1.0 - r)
    return AntsBounds(
        upper_case_bound=upper_case,
        lower_case_bound=lower_case,
        combined=upper_case + lower_case,
        likelihood_r=r,
    )


def lr_schedule_and_run(
    observations: ObservationVector,
    true_amplitudes,
    prior_p: float,
    n: int,
) -> LrOrderedRun:
    """Raw log-likelihood-ratio ordering protocol (oracle baseline).

    For the Gaussian mean-shift observation model the per-sensor
    log-likelihood ratio is ln L_i = s_i * z_i - s_i**2 / 2, with s_i the
    true amplitude (known-geometry oracle input). Sensors transmit in
    descending |ln L|; after k arrivals the center declares H1 when

        sum_k > ln((1-p)/p) + (n-k) * |ln L_[k]|

    and H0 when the sum falls below the mirrored bound. The slack term
    bounds the total contribution still outstanding, so the decision
    equals the all-sensor Bayes likelihood-ratio test; at k = n the
    slack vanishes and the comparison is the unconstrained Bayes test
    (tie at equality decides H0).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    prior_p = float(prior_p)
    if not 0.0 < prior_p < 1.0:
        raise ValueError(f"prior_p must be in (0, 1), got {prior_p!r}")
    s = np.asarray(true_amplitudes, dtype=float)
    if s.ndim != 1 or s.shape[0] != n or observations.size != n:
        raise ValueError("observations and true_amplitudes must both have length n")

    llr = s * observations.z - 0.5 * s * s
    order = np.argsort(-np.abs(llr), kind="stable")
    ordered = llr[order]
    sums = np.cumsum(ordered)
    k = np.arange(1, n + 1)
    slack = (n - k) * np.abs(ordered)
    theta = math.log((1.0 - prior_p) / prior_p)

    upper = sums > theta + slack
    lower = sums < theta - slack
    fired = upper | lower
    if fired.any():
        idx = int(np.argmax(fired))
        if upper[idx]:
            crossing, decision = Crossing.UPPER, Hypothesis.H1
        else:
            crossing, decision = Crossing.LOWER, Hypothesis.H0
        return LrOrderedRun(
            k_transmitted=idx + 1,
            decision=decision,
            crossing=crossing,
            partial_sum=float(sums[idx]),
        )
    # Exhaustion means the full sum sits exactly on the Bayes threshold.
    return LrOrderedRun(
        k_transmitted=n,
        decision=Hypothesis.H0,
        crossing=Crossing.EXHAUSTED,
        partial_sum=float(sums[-1]),
    )
