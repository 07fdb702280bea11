"""Gaussian tail math and one-dimensional adaptive quadrature.

Everything downstream (detector thresholds, operating-characteristic
curves) rests on three primitives: the standard-normal upper tail Q(x),
its inverse, and a global adaptive Gauss-Kronrod integrator with a cap
on its bisections.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from statistics import NormalDist
from typing import Callable, Iterable

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()

# Error budget of integrate, relative to each component's current total,
# and the number of panel bisections per component at which it gives up.
_RELATIVE_TOLERANCE = 1e-10
_MAX_BISECTIONS = 1000

# The 15-point Gauss-Kronrod rule on [-1, 1] and its embedded 7-point
# Gauss rule, as in QUADPACK's QK15 (Piessens et al., 1983): the
# positive Kronrod abscissae, outermost first, their weights and the
# centre's, and the Gauss weights of abscissae 1, 3 and 5 and of the
# centre.
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# All 15 nodes, left to right.
_NODES = (*(-x for x in _XK), 0.0, *reversed(_XK))


class QuadratureConvergenceError(RuntimeError):
    """Bisection cap reached before the tolerance was met.

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


def _rule(h: float, y: list[float]) -> tuple[float, float]:
    """K15 estimate and error estimate |K15 - G7| on a panel of half-width ``h``.

    ``y`` holds the 15 node values, left to right.
    """
    s1 = y[1] + y[13]
    s3 = y[3] + y[11]
    s5 = y[5] + y[9]
    mid = y[7]
    gauss = _WG[0] * s1 + _WG[1] * s3 + _WG[2] * s5 + _WG[3] * mid
    kronrod = (
        _WK[0] * (y[0] + y[14])
        + _WK[1] * s1
        + _WK[2] * (y[2] + y[12])
        + _WK[3] * s3
        + _WK[4] * (y[4] + y[10])
        + _WK[5] * s5
        + _WK[6] * (y[6] + y[8])
        + _WK[7] * mid
    )
    return h * kronrod, h * abs(kronrod - gauss)


def _panel(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    us: list[float],
    vs: list[float],
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The :func:`_rule` pair of each component of ``f`` on [lo, hi].

    ``us`` and ``vs`` hold the checked values of the two components at
    the leading nodes, if any are known already. ``f`` is called at the
    other nodes, left to right, and each value is checked before the
    next call.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    isfinite = math.isfinite
    for x in _NODES[len(us):]:
        t = c + h * x
        u, v = f(t)
        if not (isfinite(u) and isfinite(v)):
            raise _not_finite(t)
        us.append(u)
        vs.append(v)
    return _rule(h, us), _rule(h, vs)


def _refine(
    panel: Callable[[float, float], tuple[tuple[float, float], tuple[float, float]]],
    component: int,
    edges: list[float],
) -> float:
    """One component's global adaptive refinement of the panels between ``edges``.

    Bisects the panel with the largest error estimate until the summed
    estimate is within the relative tolerance of the current total. The
    result sums the panel estimates with ``math.fsum``.
    """
    heap = []
    total = err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        k, e = panel(lo, hi)[component]
        heap.append((-e, lo, hi, k))
        total += k
        err += e
    heapify(heap)
    bisections = 0
    while err > _RELATIVE_TOLERANCE * abs(total):
        if bisections == _MAX_BISECTIONS:
            best = math.fsum(k for *_, k in heap)
            raise QuadratureConvergenceError(
                f"quadrature did not converge within {_MAX_BISECTIONS} bisections "
                f"(best estimate {best!r})",
                best_estimate=best,
            )
        bisections += 1
        neg_e, lo, hi, k = heappop(heap)
        mid = 0.5 * (lo + hi)
        k_left, e_left = panel(lo, mid)[component]
        k_right, e_right = panel(mid, hi)[component]
        heappush(heap, (-e_left, lo, mid, k_left))
        heappush(heap, (-e_right, mid, hi, k_right))
        total += k_left + k_right - k
        err += e_left + e_right + neg_e
    return math.fsum(k for *_, k in heap)


def integrate(
    f: Callable[[float], float | tuple[float, float]],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
) -> float | tuple[float, float]:
    """Global adaptive Gauss-Kronrod quadrature of ``f`` over ``[a, b]``.

    The initial panels run between ``a``, the ``breakpoints`` (strictly
    increasing, strictly inside ``(a, b)``) and ``b``. Each panel gets
    the 15-point Kronrod estimate K15 and the error estimate
    |K15 - G7| against its embedded 7-point Gauss rule. The panel with
    the largest error estimate is bisected until the summed estimate is
    within a relative tolerance of 1e-10 of the current total, in the
    manner of QUADPACK's QAG. The nodes are interior, so ``f`` is never
    called at a panel edge. Integrals that cancel to ~0 may reach the
    bisection cap instead.

    ``f`` returns a float, or a tuple of two floats to integrate two
    functions over the same interval; the result then is a pair too.
    Each component keeps its own panels and its own tolerance: the first
    component's refinement runs to its end, then the second's, both
    over one cache of panel values. So ``f`` is called once per node
    that either component needs, and each component gets the panels,
    and hence the bits, that a lone pass over it would get. Every
    component must be finite at every node ``f`` is called at; the
    error names the first node that is not, and ``f`` is not called
    after it. An empty interval returns zero (``f`` is called once, at
    ``a``, to learn its shape).

    Raises :class:`QuadratureConvergenceError`, with the best estimate
    attached, when a component still misses the tolerance after 1000
    bisections; with a pair, that is the first component, in order,
    that does.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError(f"requires a <= b, got a={a!r}, b={b!r}")
    edges = [a, *map(float, breakpoints), b]
    if len(edges) > 2 and not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError(f"breakpoints must increase strictly inside (a, b), got {edges[1:-1]!r}")
    if a == b:
        return (0.0, 0.0) if isinstance(f(a), tuple) else 0.0

    # The first node's value, placed as _panel places it, tells a pair
    # from a scalar. A scalar runs as the first component of a pair with
    # a zero partner that is never refined.
    first_node = 0.5 * (a + edges[1]) + 0.5 * (edges[1] - a) * _NODES[0]
    first = f(first_node)
    pair = isinstance(first, tuple)
    if not pair:
        scalar = f
        first = (float(first), 0.0)

        def f(t: float) -> tuple[float, float]:
            return float(scalar(t)), 0.0

    if not (math.isfinite(first[0]) and math.isfinite(first[1])):
        raise _not_finite(first_node)
    cache = {(a, edges[1]): _panel(f, a, edges[1], [first[0]], [first[1]])}

    def panel(lo: float, hi: float) -> tuple[tuple[float, float], tuple[float, float]]:
        got = cache.get((lo, hi))
        if got is None:
            got = cache[lo, hi] = _panel(f, lo, hi, [], [])
        return got

    totals = tuple(_refine(panel, c, edges) for c in range(1 + pair))
    return totals if pair else totals[0]
