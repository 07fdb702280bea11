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


def integrate(
    f: Callable[[float], float | tuple[float, float]], a: float, b: float
) -> float | tuple[float, float]:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    Each subinterval is accepted when doubling its refinement changes the
    Simpson estimate by no more than 15x its share of the error budget
    (the factor 15 comes from the Richardson error model, and the
    correction term ``delta / 15`` is folded into the result). The budget
    is a relative tolerance of 1e-10 scaled by the first whole-interval
    estimate, so the tolerance is relative to the integral's magnitude;
    integrals that cancel to ~0 may exhaust the depth instead.

    ``f`` returns a float, or a tuple of two floats to integrate two
    functions over the same interval; the result then is a pair too.
    Each component keeps its own refinement tree and its own budget (of
    its own whole-interval estimate), while one right-first depth-first
    traversal calls ``f`` once per node that either tree needs. So each
    component gets the nodes, acceptance decisions and summation order,
    and hence the bits, that a lone pass over it would get. Every
    component must be finite at every node ``f`` is called at. An empty
    interval returns zero (``f`` is called once, at ``a``, to learn its
    shape).

    Raises :class:`QuadratureConvergenceError` when some subinterval
    still fails its test at refinement depth 40; with a pair, the best
    estimate is that of the first component, in order, that ran out of
    depth.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError(f"requires a <= b, got a={a!r}, b={b!r}")

    fa = f(a)
    pair = isinstance(fa, tuple)
    if not pair:
        # A scalar runs through the pair loop with a zero partner, whose
        # zero budget retires it at the first step.
        scalar = f
        fa = (float(fa), 0.0)

        def f(t: float) -> tuple[float, float]:
            return float(scalar(t)), 0.0

    if a == b:
        return (0.0, 0.0) if pair else 0.0

    # f is called inline, node by node in a fixed order, and each value
    # is checked before the next call: a function call per node costs
    # about as much as a cheap integrand.
    isfinite = math.isfinite
    ua, va = fa
    if not (isfinite(ua) and isfinite(va)):
        raise _not_finite(a)
    ub, vb = f(b)
    if not (isfinite(ub) and isfinite(vb)):
        raise _not_finite(b)
    m = 0.5 * (a + b)
    um, vm = f(m)
    if not (isfinite(um) and isfinite(vm)):
        raise _not_finite(m)
    h = (b - a) / 6.0
    whole_u = h * (ua + 4.0 * um + ub)
    whole_v = h * (va + 4.0 * vm + vb)

    # Explicit stack instead of recursion: depth exhaustion in one
    # subinterval must still yield a best estimate for the whole integral.
    # A component's Simpson estimate is None on the subintervals its own
    # tree does not refine.
    stack = [(
        a, ua, va, m, um, vm, b, ub, vb,
        whole_u, _RELATIVE_TOLERANCE * abs(whole_u),
        whole_v, _RELATIVE_TOLERANCE * abs(whole_v),
        0,
    )]
    total_u = total_v = 0.0
    exhausted_u = exhausted_v = False
    while stack:
        a0, ua0, va0, m0, um0, vm0, b0, ub0, vb0, su0, eu0, sv0, ev0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        ulm, vlm = f(lm)
        if not (isfinite(ulm) and isfinite(vlm)):
            raise _not_finite(lm)
        urm, vrm = f(rm)
        if not (isfinite(urm) and isfinite(vrm)):
            raise _not_finite(rm)
        hl = (m0 - a0) / 6.0
        hr = (b0 - m0) / 6.0
        left_u = right_u = left_v = right_v = None
        if su0 is not None:
            left = hl * (ua0 + 4.0 * ulm + um0)
            right = hr * (um0 + 4.0 * urm + ub0)
            delta = left + right - su0
            if abs(delta) <= 15.0 * eu0:
                total_u += left + right + delta / 15.0
            elif depth >= _MAX_DEPTH:
                total_u += left + right + delta / 15.0
                exhausted_u = True
            else:
                left_u, right_u = left, right
        if sv0 is not None:
            left = hl * (va0 + 4.0 * vlm + vm0)
            right = hr * (vm0 + 4.0 * vrm + vb0)
            delta = left + right - sv0
            if abs(delta) <= 15.0 * ev0:
                total_v += left + right + delta / 15.0
            elif depth >= _MAX_DEPTH:
                total_v += left + right + delta / 15.0
                exhausted_v = True
            else:
                left_v, right_v = left, right
        if left_u is not None or left_v is not None:
            eu1 = 0.5 * eu0
            ev1 = 0.5 * ev0
            stack.append(
                (a0, ua0, va0, lm, ulm, vlm, m0, um0, vm0, left_u, eu1, left_v, ev1, depth + 1)
            )
            stack.append(
                (m0, um0, vm0, rm, urm, vrm, b0, ub0, vb0, right_u, eu1, right_v, ev1, depth + 1)
            )
    for exhausted, total in ((exhausted_u, total_u), (exhausted_v, total_v)):
        if exhausted:
            raise QuadratureConvergenceError(
                f"quadrature did not converge within depth {_MAX_DEPTH} "
                f"(best estimate {total!r})",
                best_estimate=total,
            )
    return (total_u, total_v) if pair else total_u
