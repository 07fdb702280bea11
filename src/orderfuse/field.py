"""Sensor deployment geometry, signal attenuation, and observations.

A trial consists of sensors dropped uniformly at random in a square
region of interest (ROI), a target that may or may not be emitting, and
one observation per sensor: unit-variance Gaussian noise, plus the
distance-attenuated signal amplitude when the target is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class Hypothesis(Enum):
    """Target absent (H0) or present (H1)."""

    H0 = "H0"
    H1 = "H1"


@dataclass(frozen=True)
class RoiConfig:
    """Square ROI of side ``side_b`` centered at the origin, target inside."""

    side_b: float
    target_x: float = 0.0
    target_y: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.side_b) and self.side_b > 0):
            raise ValueError(f"side_b must be a positive real, got {self.side_b!r}")
        # The theory divides by side_b**2.
        if not math.isfinite(self.side_b * self.side_b):
            raise ValueError(
                f"side_b must have a finite square (at most 1.3407807929942596e154), "
                f"got {self.side_b!r}"
            )
        half = 0.5 * self.side_b
        if not (-half <= self.target_x <= half and -half <= self.target_y <= half):
            raise ValueError(
                f"target ({self.target_x!r}, {self.target_y!r}) lies outside the "
                f"ROI square of side {self.side_b!r}"
            )

    @property
    def half_side(self) -> float:
        return 0.5 * self.side_b


@dataclass(frozen=True)
class SignalModel:
    """Isotropic attenuation: received power is p0 / (1 + alpha * d**n_exp)."""

    p0: float
    alpha: float
    n_exp: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p0) and self.p0 >= 0):
            raise ValueError(f"p0 must be a nonnegative real, got {self.p0!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a positive real, got {self.alpha!r}")
        if not 2.0 <= self.n_exp <= 3.0:
            raise ValueError(f"n_exp must lie in [2, 3], got {self.n_exp!r}")


def sample_field(n: int, roi: RoiConfig, rng: np.random.Generator) -> np.ndarray:
    """Drop ``n`` sensors i.i.d. uniform over the ROI square: positions, shape (n, 2)."""
    n = int(n)
    if n < 1:
        raise ValueError(f"field size must be a positive integer, got {n!r}")
    half = roi.half_side
    return rng.uniform(-half, half, size=(n, 2))


def scalar_amplitude(model: SignalModel) -> Callable[[float], float]:
    """The amplitude at one float distance ``d >= 0``, unchecked, as a closure.

    Bit-identical to the array path of :func:`signal_amplitude`. At
    n_exp = 2 numpy's power(d, 2.0) is d * d. Other exponents call the
    ``np.power`` ufunc on the float, which runs the array path's loop;
    a scalar ``**`` or ``math.pow`` goes to libm pow, which differs in
    the last bit. The products and quotient round the same in Python
    floats, and math.sqrt rounds as np.sqrt does.
    """
    p0, alpha, n_exp = model.p0, model.alpha, model.n_exp
    if n_exp == 2.0:

        def amp(d: float) -> float:
            return math.sqrt(p0 / (1.0 + alpha * (d * d)))

    else:
        power = np.power

        def amp(d: float) -> float:
            return math.sqrt(p0 / (1.0 + alpha * float(power(d, n_exp))))

    return amp


def signal_amplitude(model: SignalModel, d):
    """Signal amplitude at distance ``d``: sqrt(p0 / (1 + alpha * d**n_exp)).

    Accepts a scalar or an array of distances; a scalar returns a float.
    Where ``alpha * d**n_exp`` overflows to inf the amplitude is 0, its
    limit, without a warning.
    """
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr < 0):
        raise ValueError("distance must be nonnegative")
    with np.errstate(over="ignore"):
        amp = np.sqrt(model.p0 / (1.0 + model.alpha * d_arr**model.n_exp))
    return float(amp) if d_arr.ndim == 0 else amp


def _checked_positions(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
        raise ValueError(f"positions must have shape (n >= 1, 2), got {pos.shape}")
    return pos


def oracle_distances(positions, roi: RoiConfig) -> np.ndarray:
    """True target-sensor distances, for known-geometry baselines only.

    ``positions`` has shape (n >= 1, 2). The deployed detectors treat
    distances as unknown; only the raw likelihood-ratio ordering
    baseline is allowed to consume this.
    """
    pos = _checked_positions(positions)
    return np.hypot(pos[:, 0] - roi.target_x, pos[:, 1] - roi.target_y)


def oracle_amplitudes(positions, roi: RoiConfig, model: SignalModel) -> np.ndarray:
    """True per-sensor signal amplitudes (known-geometry baselines only)."""
    return signal_amplitude(model, oracle_distances(positions, roi))


def generate_observations(
    positions,
    roi: RoiConfig,
    model: SignalModel,
    hypothesis: Hypothesis,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one observation z per sensor at ``positions`` under the given hypothesis.

    Under H0 each entry is standard Gaussian noise; under H1 the
    attenuated signal amplitude is added. The noise vector is drawn
    first in both branches, so a fixed stream yields the same noise
    whichever hypothesis is requested.
    """
    pos = _checked_positions(positions)
    noise = rng.standard_normal(pos.shape[0])
    if hypothesis is Hypothesis.H1:
        return oracle_amplitudes(pos, roi, model) + noise
    return noise
