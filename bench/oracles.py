"""Reference computations made apart from orderfuse.

Nothing here imports orderfuse. Thresholds come from the standard
library's ``statistics.NormalDist``; binomial tails are summed exactly;
the mean detection probability uses Gauss-Legendre nodes from numpy
instead of the program's adaptive Simpson rule; and the protocol replay
follows the documented per-trial stream layout:

* trial i draws from Philox keyed by (master_seed, i), counter 0;
* one uniform for the hypothesis (H1 iff it is below likelihood_r),
  then N uniform positions in the ROI square as an (N, 2) array, then N
  standard normal noise values; H0 trials draw positions too;
* z = amplitude + noise under H1 and z = noise under H0, with
  amplitude sqrt(p0 / (1 + alpha * d**n_exp)) and d the distance to the
  target at the ROI centre;
* bit = z > tau; sensors transmit in stable order of 1/|z - tau|, a
  zero gap counting as infinitely late;
* after the k-th bit the run stops UPPER when the count exceeds T and
  LOWER when it falls below T - (N - k); otherwise it is EXHAUSTED at
  k = N and decides H1 iff the full count exceeds T.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_STD_NORMAL = NormalDist()
_erfc = np.frompyfunc(math.erfc, 1, 1)


def tau_ref(local_pfa: float) -> float:
    """Local threshold with upper-tail probability ``local_pfa``."""
    return -_STD_NORMAL.inv_cdf(local_pfa)


def threshold_ref(n: int, local_pfa: float, system_pfa: float) -> float:
    """Count threshold T of the Gaussian approximation to the H0 count."""
    sd = math.sqrt(n * local_pfa * (1.0 - local_pfa))
    return -_STD_NORMAL.inv_cdf(system_pfa) * sd + n * local_pfa


def binomial_tail_above(n: int, p: float, t: float) -> float:
    """P(X > t) for X ~ Binomial(n, p), summed term by term."""
    k_min = max(0, math.floor(t) + 1)
    if k_min > n:
        return 0.0
    if p <= 0.0:
        return 1.0 if k_min == 0 else 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    return math.fsum(
        math.exp(lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        for k in range(k_min, n + 1)
    )


def _q(x):
    """Standard normal upper tail, elementwise."""
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def _amplitude(d, p0: float, alpha: float, n_exp: float):
    return np.sqrt(p0 / (1.0 + alpha * d**n_exp))


def mean_pd_square(tau: float, p0: float, alpha: float, n_exp: float, roi_b: float, nodes: int = 128) -> float:
    """Mean detection probability of a sensor uniform over the whole ROI square.

    The target sits at the centre, so the mean over the square equals the
    mean over one quadrant [0, b/2]^2, integrated with a tensor
    Gauss-Legendre rule.
    """
    half = 0.5 * roi_b
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * half * (x + 1.0)
    w = 0.5 * half * w
    d = np.hypot(x[:, None], x[None, :])
    pd = _q(tau - _amplitude(d, p0, alpha, n_exp))
    return float(w @ pd @ w) / (half * half)


def mean_pd_disc_corner(tau: float, p0: float, alpha: float, n_exp: float, roi_b: float,
                        panels: int = 16, nodes: int = 32) -> float:
    """The disc-plus-corner approximation of the mean detection probability.

    The radial integral over the disc inscribed in the ROI square, plus
    the detection probability at the corner distance weighted by the
    area left outside the disc, 1 - pi/4. Composite Gauss-Legendre.
    """
    half = 0.5 * roi_b
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, half, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    r = (0.5 * (b - a) * (x + 1.0) + a).ravel()
    wr = (0.5 * (b - a) * w).ravel()
    disc = 2.0 * math.pi / roi_b**2 * float(np.sum(wr * r * _q(tau - _amplitude(r, p0, alpha, n_exp))))
    corner = float(_q(tau - _amplitude(math.sqrt(2.0) * half, p0, alpha, n_exp)))
    return disc + (1.0 - math.pi / 4.0) * corner


def replay(cfg: dict, tau: float, t: float) -> dict:
    """Replay every trial of one Monte Carlo configuration; integer totals.

    ``cfg`` holds n_sensors, p0, alpha, n_exp, roi_b, likelihood_r,
    n_trials and master_seed; ``tau`` and ``t`` are the local and count
    thresholds.
    """
    n = cfg["n_sensors"]
    half = 0.5 * cfg["roi_b"]
    p0, alpha, n_exp = cfg["p0"], cfg["alpha"], cfg["n_exp"]
    seed, trials = cfg["master_seed"], cfg["n_trials"]
    totals = dict.fromkeys(
        ("saved_sum", "saved_sq", "h1_n", "h1_hits", "h0_n", "h0_hits", "upper", "lower", "exhausted"), 0
    )
    chunk = max(1, (1 << 16) // n)
    k = np.arange(1, n + 1)
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        u = np.empty(size)
        pos = np.empty((size, n, 2))
        noise = np.empty((size, n))
        for j in range(size):
            key = np.array([seed, start + j], dtype=np.uint64)
            g = np.random.Generator(np.random.Philox(key=key))
            u[j] = g.random()
            pos[j] = g.uniform(-half, half, size=(n, 2))
            noise[j] = g.standard_normal(n)
        h1 = u < cfg["likelihood_r"]
        amp = _amplitude(np.hypot(pos[..., 0], pos[..., 1]), p0, alpha, n_exp)
        z = np.where(h1[:, None], amp + noise, noise)
        bits = (z > tau).astype(np.int64)
        gaps = np.abs(z - tau)
        with np.errstate(divide="ignore"):
            times = np.where(gaps > 0.0, 1.0 / gaps, np.inf)
        order = np.argsort(times, axis=1, kind="stable")
        counts = np.cumsum(np.take_along_axis(bits, order, axis=1), axis=1)
        upper = counts > t
        fired = upper | (counts < t - (n - k))
        stopped = fired.any(axis=1)
        first = fired.argmax(axis=1)
        upper_stop = stopped & upper[np.arange(size), first]
        sent = np.where(stopped, first + 1, n)
        detected = upper_stop | (~stopped & (counts[:, -1] > t))
        saved = (n - sent).astype(object)  # Python ints: exact sums
        totals["saved_sum"] += int(saved.sum())
        totals["saved_sq"] += int((saved * saved).sum())
        totals["h1_n"] += int(h1.sum())
        totals["h1_hits"] += int((h1 & detected).sum())
        totals["h0_n"] += int((~h1).sum())
        totals["h0_hits"] += int((~h1 & detected).sum())
        totals["upper"] += int(upper_stop.sum())
        totals["lower"] += int((stopped & ~upper_stop).sum())
        totals["exhausted"] += int((~stopped).sum())
    return totals


def fmt(x: float) -> str:
    """The CSV number format: 9 significant digits, NaN as NA."""
    return "NA" if math.isnan(x) else format(x, ".9g")


def summary_fields(totals: dict, n_trials: int) -> dict[str, str]:
    """CSV fields of a run summary from its integer totals."""
    s, sq, n = totals["saved_sum"], totals["saved_sq"], n_trials
    stderr = math.sqrt((n * sq - s * s) / (n * (n - 1)) / n) if n > 1 else 0.0
    return {
        "ants_mean": fmt(s / n),
        "ants_stderr": fmt(stderr),
        "empirical_pd": fmt(totals["h1_hits"] / totals["h1_n"] if totals["h1_n"] else math.nan),
        "empirical_pfa": fmt(totals["h0_hits"] / totals["h0_n"] if totals["h0_n"] else math.nan),
        "upper_count": str(totals["upper"]),
        "lower_count": str(totals["lower"]),
        "exhausted_count": str(totals["exhausted"]),
    }
