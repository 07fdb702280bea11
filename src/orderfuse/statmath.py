"""Gaussian tail math and one-dimensional adaptive quadrature.

Everything downstream (detector thresholds, operating-characteristic
curves) rests on three primitives: the standard-normal upper tail Q(x),
its inverse, and an adaptive Simpson integrator with a refinement-depth
budget.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()

# Error budget of integrate, relative to the first whole-interval
# estimate, and the refinement depth at which it gives up.
_RELATIVE_TOLERANCE = 1e-10
_MAX_DEPTH = 40


class QuadratureConvergenceError(RuntimeError):
    """Refinement depth exhausted before the tolerance was met.

    The best available estimate is kept on ``best_estimate`` so callers
    can still inspect or log it.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def q_function(x: float) -> float:
    """Upper-tail probability of the standard Gaussian at ``x``.

    Evaluated through the complementary error function,
    Q(x) = erfc(x / sqrt(2)) / 2, which keeps full relative accuracy deep
    into the tail.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"q_function requires a finite argument, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(p: float) -> float:
    """Solve q_function(x) = p for ``p`` in (0, 1).

    Q^-1(p) = -Phi^-1(p), with Phi^-1 the standard library's
    ``NormalDist.inv_cdf`` (Wichura's AS241), accurate to about 1e-16
    over every probability a double can hold. ``0.0 -`` keeps
    q_inverse(0.5) at +0.0.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse requires p in (0, 1), got {p!r}")
    return 0.0 - _STD_NORMAL.inv_cdf(p)


def _not_finite(t: float) -> ValueError:
    return ValueError(f"integrand is not finite at t={t!r}")


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    Each subinterval is accepted when doubling its refinement changes the
    Simpson estimate by no more than 15x its share of the error budget
    (the factor 15 comes from the Richardson error model, and the
    correction term ``delta / 15`` is folded into the result). The budget
    is a relative tolerance of 1e-10 scaled by the first whole-interval
    estimate, so the tolerance is relative to the integral's magnitude;
    integrals that cancel to ~0 may exhaust the depth instead.

    Raises :class:`QuadratureConvergenceError` when some subinterval
    still fails its test at refinement depth 40.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError(f"requires a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0

    # f is called inline, node by node in a fixed order, and each value
    # is checked before the next call: a function call per node costs
    # about as much as a cheap integrand.
    isfinite = math.isfinite
    m = 0.5 * (a + b)
    ends = []
    for t in (a, b, m):
        v = float(f(t))
        if not isfinite(v):
            raise _not_finite(t)
        ends.append(v)
    fa, fb, fm = ends
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = _RELATIVE_TOLERANCE * abs(whole)

    # Explicit stack instead of recursion: depth exhaustion in one
    # subinterval must still yield a best estimate for the whole integral.
    stack = [(a, fa, m, fm, b, fb, whole, eps, 0)]
    total = 0.0
    exhausted = False
    while stack:
        a0, fa0, m0, fm0, b0, fb0, s0, eps0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm = float(f(lm))
        if not isfinite(flm):
            raise _not_finite(lm)
        frm = float(f(rm))
        if not isfinite(frm):
            raise _not_finite(rm)
        left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        delta = left + right - s0
        if abs(delta) <= 15.0 * eps0:
            total += left + right + delta / 15.0
        elif depth >= _MAX_DEPTH:
            total += left + right + delta / 15.0
            exhausted = True
        else:
            stack.append((a0, fa0, lm, flm, m0, fm0, left, 0.5 * eps0, depth + 1))
            stack.append((m0, fm0, rm, frm, b0, fb0, right, 0.5 * eps0, depth + 1))
    if exhausted:
        raise QuadratureConvergenceError(
            f"quadrature did not converge within depth {_MAX_DEPTH} "
            f"(best estimate {total!r})",
            best_estimate=total,
        )
    return total
