"""One-bit local detectors and counting-rule fusion.

The fusion center counts positive local decisions and compares the count
to a threshold T. For a large sensor count N the count is approximately
Gaussian under either hypothesis, which gives closed-form operating
characteristics:

    system false alarm ~ Q((T - N*pfa) / sqrt(N*pfa*(1 - pfa)))

and, with the target at the ROI center, a detection probability built
from the mean detection rate of a uniformly placed sensor. That mean is
computed as a radial integral over the disc inscribed in the ROI square
plus a corner correction that evaluates the detection rate at the worst
corner distance sqrt(2)*b/2 and weights it by the leftover area fraction
(1 - pi/4).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .field import Hypothesis, RoiConfig, SignalModel, scalar_amplitude
from .statmath import _SQRT2, integrate, q_function, q_inverse

_CORNER_WEIGHT = 1.0 - math.pi / 4.0


class OffCenterTargetError(ValueError):
    """The operating-characteristic formulas assume the target at the ROI center."""


@dataclass(frozen=True)
class LocalDetector:
    """Per-sensor one-bit detector: report 1 iff the observation exceeds tau.

    ``tau`` is derived from ``local_pfa`` as Qinv(local_pfa).
    """

    local_pfa: float
    tau: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.local_pfa < 1.0:
            raise ValueError(f"local_pfa must be in (0, 1), got {self.local_pfa!r}")
        object.__setattr__(self, "tau", q_inverse(self.local_pfa))


@dataclass(frozen=True)
class TheoryCurves:
    """Closed-form operating characteristics of the counting rule."""

    gamma: float
    pd_bar: float
    sigma_bar_sq: float
    system_pd: float

    def __post_init__(self) -> None:
        for name in ("gamma", "pd_bar", "system_pd"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name}={v!r} is not a probability")
        # Variance of a {0,1}-valued mixture is capped at 1/4.
        if not -1e-12 <= self.sigma_bar_sq <= 0.25 + 1e-12:
            raise ValueError(f"sigma_bar_sq={self.sigma_bar_sq!r} out of [0, 0.25]")
        if self.pd_bar + 1e-12 < _CORNER_WEIGHT * self.gamma:
            raise ValueError("pd_bar fell below its corner-term floor")


def threshold_from_local_pfa(local_pfa: float) -> LocalDetector:
    """Local threshold achieving a given per-sensor false-alarm rate."""
    return LocalDetector(float(local_pfa))


def local_decisions(z, det: LocalDetector, out: np.ndarray | None = None) -> np.ndarray:
    """One-bit local decisions; the tie z == tau decides 0 (open upper tail).

    ``out``, an int64 array shaped like ``z``, receives the bits.
    """
    z = np.asarray(z, dtype=float)
    return (z > det.tau).astype(np.int64) if out is None else np.greater(z, det.tau, out=out)


def counting_rule(decisions, t: float) -> Hypothesis:
    """Declare H1 iff the number of positive decisions strictly exceeds ``t``."""
    d = np.asarray(decisions)
    if d.size == 0:
        raise ValueError("decisions must be nonempty")
    return Hypothesis.H1 if int(d.sum()) > t else Hypothesis.H0


def system_threshold(n: int, local_pfa: float, system_pfa: float) -> float:
    """Count threshold hitting a target system false-alarm rate.

    Inverts the Gaussian approximation of the H0 count:
    T = Qinv(system_pfa) * sqrt(N*pfa*(1-pfa)) + N*pfa. T is real-valued;
    extreme inputs can push it outside (0, N), which is surfaced as a
    warning because the detector degenerates there (every nonzero count
    fires, or no count can ever fire).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    local_pfa = float(local_pfa)
    system_pfa = float(system_pfa)
    if not 0.0 < local_pfa < 1.0:
        raise ValueError(f"local_pfa must be in (0, 1), got {local_pfa!r}")
    if not 0.0 < system_pfa < 1.0:
        raise ValueError(f"system_pfa must be in (0, 1), got {system_pfa!r}")
    t = q_inverse(system_pfa) * math.sqrt(n * local_pfa * (1.0 - local_pfa)) + n * local_pfa
    if t <= 0.0:
        message = (
            f"count threshold T={t:.6g} is non-positive; every nonzero count "
            "will be declared a detection"
        )
    elif t >= n:
        message = (
            f"count threshold T={t:.6g} is at or above the sensor count {n}; "
            "a detection can never be declared"
        )
    else:
        return t
    # Point the warning at the first caller outside this package, not at
    # an ExperimentConfig (or dataclasses.replace of one) or the CLI that
    # built the threshold on its behalf.
    frame, level = sys._getframe(1), 2
    while frame is not None and (
        frame.f_globals.get("__package__") == __package__
        or frame.f_globals.get("__name__") == "dataclasses"
    ):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)
    return t


def system_pfa_approx(n: int, local_pfa: float, t: float) -> float:
    """System false-alarm rate of the counting rule, Gaussian approximation."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    local_pfa = float(local_pfa)
    if not 0.0 < local_pfa < 1.0:
        raise ValueError(f"local_pfa must be in (0, 1), got {local_pfa!r}")
    sd = math.sqrt(n * local_pfa * (1.0 - local_pfa))
    return q_function((float(t) - n * local_pfa) / sd)


def theory_curves(
    det: LocalDetector,
    model: SignalModel,
    roi: RoiConfig,
    n: int,
    t: float,
) -> TheoryCurves:
    """Operating characteristics of the counting rule at threshold ``t``.

    Only supports the target at the ROI center: the radial reduction of
    the mean per-sensor detection rate is derived for that geometry.
    The simulation path has no such restriction.

    The two disc integrals, of p * r and p * Q(-x) * r with x = tau - a(r)
    and p = Q(x), come from one :func:`integrate` call over [0, b/2]. Its
    initial panels end at the attenuation length alpha**(-1/n_exp) and at
    its doublings below b/2.
    """
    if roi.target_x != 0.0 or roi.target_y != 0.0:
        raise OffCenterTargetError(
            f"theory curves require the target at (0, 0); "
            f"got ({roi.target_x!r}, {roi.target_y!r})"
        )
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    half = roi.half_side
    tau = det.tau
    amp = scalar_amplitude(model)
    erfc = math.erfc

    # One quadrature pass integrates p * r and p * (1 - p) * r, with
    # Q(x) = 0.5 * erfc(x / sqrt(2)) inlined with the arithmetic of
    # q_function. The miss probability 1 - p is taken from its own tail,
    # Q(-x): near p = 1, 1 - p by subtraction is rounding noise that no
    # relative tolerance can resolve. Every node is finite without
    # q_function's checks: r lies in [0, b/2] and the validated model
    # bounds the amplitude.
    def integrand(r: float) -> tuple[float, float]:
        x = tau - amp(r)
        p = 0.5 * erfc(x / _SQRT2)
        return p * r, p * (0.5 * erfc(-x / _SQRT2)) * r

    # Past the attenuation length the amplitude falls as a power of r, and
    # the detection rate drops where the amplitude passes tau, at a radius
    # that p0 sets. Panels ending at the doublings of that length meet
    # every such scale alike; a single panel misses a drop near r = 0 in a
    # wide ROI.
    cuts = []
    cut = model.alpha ** (-1.0 / model.n_exp)
    while cut < half:
        cuts.append(cut)
        cut *= 2.0

    # Off n_exp = 2, d**n_exp at a huge distance overflows to inf in
    # numpy's power, which warns; the amplitude 0 it gives is the limit.
    with np.errstate(over="ignore"):
        x_corner = tau - amp(math.sqrt(2.0) * half)
        i_pd, i_var = integrate(integrand, 0.0, half, cuts)
    # Detection rate at the worst corner, and its miss rate from its own
    # tail, as in the integrand.
    gamma = q_function(x_corner)
    disc_weight = 2.0 * math.pi / roi.side_b**2
    pd_bar = disc_weight * i_pd + _CORNER_WEIGHT * gamma
    sigma_bar_sq = disc_weight * i_var + _CORNER_WEIGHT * gamma * q_function(-x_corner)

    denom = math.sqrt(n * sigma_bar_sq)
    if denom > 0.0:
        system_pd = q_function((float(t) - n * pd_bar) / denom)
    else:
        # Degenerate zero-variance count: the count equals N*pd_bar surely.
        system_pd = 1.0 if n * pd_bar > t else 0.0
    return TheoryCurves(
        gamma=gamma, pd_bar=pd_bar, sigma_bar_sq=sigma_bar_sq, system_pd=system_pd
    )
