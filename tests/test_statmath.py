"""Tests for the Gaussian tail primitives and the adaptive integrator."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderfuse import statmath
from orderfuse.statmath import QuadratureConvergenceError, integrate, q_function, q_inverse

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


# ── Independent oracles ─────────────────────────────────────────────
#
# Gaussian tail evaluated two ways that share no code with the package:
# a power series for the error function on |x| <= 2 and the classical
# Gaussian-tail continued fraction beyond.


def q_oracle(x: float) -> float:
    if x < 0.0:
        return 1.0 - q_oracle(-x)
    if x <= 2.0:
        return _q_series(x)
    return _q_continued_fraction(x)


def _q_series(x: float) -> float:
    u = x / SQRT2
    term = u
    total = u
    k = 0
    while abs(term) > 1e-22 * abs(total):
        k += 1
        term *= -u * u / k
        total += term / (2 * k + 1)
    erf = 2.0 / math.sqrt(math.pi) * total
    return 0.5 * (1.0 - erf)


def _q_continued_fraction(x: float) -> float:
    cf = 0.0
    for k in range(300, 0, -1):
        cf = k / (x + cf)
    return math.exp(-0.5 * x * x) / SQRT_2PI / (x + cf)


def q_inverse_bisect(p: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_oracle(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_oracle_methods_agree_on_overlap():
    # The two oracle branches are independent; they must agree where both apply.
    for x in (1.5, 2.0, 2.5, 3.0):
        assert _q_series(x) == pytest.approx(_q_continued_fraction(x), rel=1e-12)


# ── q_function ──────────────────────────────────────────────────────


def test_q_at_zero_is_half():
    assert q_function(0.0) == 0.5


def test_q_matches_tail_oracle():
    # Oracle-computed tail at the (rounded) 1e-3 quantile, frozen:
    # q_oracle(3.090232) = 1.0000010308950954e-3, i.e. 1.000e-3 to 4 digits.
    assert q_function(3.090232) == pytest.approx(1.0000010308950954e-3, rel=1e-6)
    for x in (0.1, 0.7, 1.3, 2.2, 3.090232, 4.5, 6.0, 8.0, -1.1, -3.3):
        assert q_function(x) == pytest.approx(q_oracle(x), rel=1e-12)


def test_q_reflection_identity():
    assert q_function(-1.7) == pytest.approx(1.0 - q_function(1.7), abs=1e-15)


@given(st.floats(min_value=-8.0, max_value=8.0), st.floats(min_value=-8.0, max_value=8.0))
def test_q_monotone_non_increasing(x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert q_function(lo) >= q_function(hi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_q_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        q_function(bad)


# ── q_inverse ───────────────────────────────────────────────────────


def test_q_inverse_median():
    assert q_inverse(0.5) == 0.0
    # +0.0, not -0.0: a negative zero prints as "tau = -0".
    assert math.copysign(1.0, q_inverse(0.5)) == 1.0


def test_q_inverse_against_bisection_oracle():
    assert q_inverse(1e-3) == pytest.approx(3.090232, abs=1e-6)
    assert q_inverse(0.05) == pytest.approx(1.644854, abs=1e-6)
    # Deep tails included: an iterative solver started near 0 can run out
    # of steps there and return a wrong root.
    for p in (1e-300, 1e-200, 1e-100, 1e-72, 1e-4, 1e-3, 0.05, 0.3, 0.9, 0.999):
        assert q_inverse(p) == pytest.approx(q_inverse_bisect(p), abs=1e-13)


Q_INVERSE_BITS = {
    1e-3: "0x1.8b8cbb7204470p+1",
    0.05: "0x1.a515209676abdp+0",
    1e-4: "0x1.dc08bb712893ap+1",
    1e-100: "0x1.546010d75521fp+4",
    0.999999: "-0x1.30381a97985f1p+2",
}


@pytest.mark.parametrize("p", list(Q_INVERSE_BITS))
def test_q_inverse_bits_are_pinned(p):
    """Pins the exact bits of the standard library's normal quantile.

    They come from CPython's ``_statistics`` C module (Wichura's AS241);
    a CPython version that computes them differently moves every
    threshold, and with it the golden outputs.
    """
    assert q_inverse(p).hex() == Q_INVERSE_BITS[p]


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.4, math.nan])
def test_q_inverse_domain(bad):
    with pytest.raises(ValueError):
        q_inverse(bad)


@given(st.floats(min_value=1e-300, max_value=1.0 - 1e-6))
@settings(max_examples=200)
# The deep tail, checked on every run whatever Hypothesis draws.
@example(1e-300)
@example(1e-100)
@example(1e-72)
def test_q_round_trip(p):
    # abs=0: approx's default absolute slack, 1e-12, would accept any
    # result for p below it.
    assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-9, abs=0.0)


@given(
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
# Adjacent doubles: the true differences are below one ulp of x, so
# rounding alone can put the two results out of order.
@example(1e-6, 1.0000000000000002e-06)
@example(0.0745049636750306, 0.07450496367503061)
def test_q_inverse_strictly_decreasing(p1, p2):
    if p1 == p2:
        return
    lo, hi = min(p1, p2), max(p1, p2)
    # |dx/dp| = 1/phi(x) >= sqrt(2 pi), which bounds the true difference
    # from below. Each result errs by a few ulps (at most 1.7e-14 against
    # the bisection oracle): about 0.7 % of adjacent-double pairs come out
    # reordered, by up to 5.6e-16, and about 19 % tie. Strict order is
    # asserted only where the true difference exceeds 2e-12, far above
    # that error; elsewhere the results may tie or cross by up to 2e-12.
    if (hi - lo) * SQRT_2PI > 2e-12:
        assert q_inverse(lo) > q_inverse(hi)
    else:
        assert q_inverse(lo) >= q_inverse(hi) - 2e-12


# ── integrate ───────────────────────────────────────────────────────


def test_integrate_linear_exact():
    assert integrate(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_integrate_gaussian_density():
    got = integrate(lambda t: math.exp(-0.5 * t * t) / SQRT_2PI, 0.0, 8.0)
    assert got == pytest.approx(0.5 - q_function(8.0), abs=1e-10)


def test_integrate_ramp():
    assert integrate(lambda r: r, 0.0, 50.0) == pytest.approx(1250.0, rel=1e-9)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=50)
def test_integrate_is_linear(c1, c2):
    f = lambda t: math.sin(t) + 1.5  # noqa: E731
    g = lambda t: t * t  # noqa: E731
    combo = integrate(lambda t: c1 * f(t) + c2 * g(t), 0.0, 2.0)
    parts = c1 * integrate(f, 0.0, 2.0) + c2 * integrate(g, 0.0, 2.0)
    tol = 10 * statmath._RELATIVE_TOLERANCE
    assert combo == pytest.approx(parts, rel=tol, abs=tol)


def test_integrate_empty_interval():
    assert integrate(lambda t: t * t, 2.0, 2.0) == 0.0


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 1.0, 0.0)


def test_integrate_starts_from_the_breakpoint_panels():
    # A jump at a breakpoint lies on a panel edge, and each side is a
    # polynomial that one panel integrates exactly: 2 panels of 15 nodes.
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 if t > 0.3 else 0.0

    assert integrate(f, 0.0, 1.0, [0.3]) == pytest.approx(0.7, rel=1e-15)
    assert len(calls) == 30


@pytest.mark.parametrize("cuts", [[0.5, 0.5], [0.6, 0.4], [0.0], [1.0], [1.5], [math.nan]])
def test_integrate_rejects_breakpoints_outside_or_out_of_order(cuts):
    with pytest.raises(ValueError, match="breakpoints"):
        integrate(lambda t: t, 0.0, 1.0, cuts)


def test_integrate_rejects_non_finite_integrand():
    with pytest.raises(ValueError):
        integrate(lambda t: math.inf, 0.0, 1.0)


def test_integrate_names_the_first_non_finite_node_and_stops():
    # One panel on [0, 1] evaluates its 15 Kronrod nodes left to right. A
    # NaN at the fifth must be reported there, and f must not be called
    # again. At the first node, where integrate learns f's shape, the same
    # holds.
    nodes = [0.5 - 0.5 * x for x in KRONROD_X] + [0.5 + 0.5 * x for x in KRONROD_X[-2::-1]]
    for bad_call in (5, 1):
        calls = []

        def f(t):
            calls.append(t)
            return math.nan if len(calls) == bad_call else t

        with pytest.raises(ValueError) as excinfo:
            integrate(f, 0.0, 1.0)
        assert str(excinfo.value).endswith(f"not finite at t={calls[-1]!r}")
        assert calls == pytest.approx(nodes[:bad_call], abs=1e-14)


def _rough(t):
    # A line plus a square wave of 2^20 cells and amplitude 1e-6: no panel
    # wider than a cell resolves the wave, so the error estimates stay
    # near 1e-7 in sum while the tolerance is 5e-11.
    return t + 1e-6 * (1.0 if int(t * 2**20) % 2 else -1.0)


def test_integrate_depth_exhaustion_carries_best_estimate():
    calls = []

    def f(t):
        calls.append(t)
        return _rough(t)

    with pytest.raises(QuadratureConvergenceError, match="within 1000 bisections") as excinfo:
        integrate(f, 0.0, 1.0)
    # 15 nodes on the first panel, then 15 on each of the two halves of
    # every bisection, up to the cap of 1000.
    assert len(calls) == 15 * (1 + 2 * 1000)
    # Kronrod weights are positive, so the wave moves any estimate by at
    # most 1e-6, and the line is integrated exactly.
    assert excinfo.value.best_estimate == pytest.approx(0.5, abs=1e-6)


# The positive Kronrod abscissae on [-1, 1], outermost first, then the
# centre; the weights of the 15-point Kronrod rule at them and of the
# 7-point Gauss rule inside it, from Piessens et al., "QUADPACK" (1983),
# to 15 digits. The tables in statmath must match them.
KRONROD_X = (0.991455371120813, 0.949107912342759, 0.864864423359769,
             0.741531185599394, 0.586087235467691, 0.405845151377397,
             0.207784955007898, 0.0)
KRONROD_W = (0.022935322010529, 0.063092092629979, 0.104790010322250,
             0.140653259715525, 0.169004726639268, 0.190350578064785,
             0.204432940075299, 0.209482141084728)
GAUSS_W = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


def test_kronrod_tables_match_quadpack():
    assert statmath._XK == pytest.approx(KRONROD_X[:-1], abs=1e-15)
    assert statmath._NODES == tuple(-x for x in statmath._XK) + (0.0,) + statmath._XK[::-1]
    assert statmath._WK == pytest.approx(KRONROD_W, abs=1e-15)
    assert statmath._WG == pytest.approx(GAUSS_W, abs=1e-15)


@pytest.mark.parametrize("k", range(25))
def test_kronrod_panel_degree(k):
    # On one panel, K15 integrates t^k exactly for k <= 22 (23 by the
    # symmetry of odd powers) and G7 for k <= 13; the even power just past
    # each degree shows it is sharp.
    kronrod, error = statmath._rule(1.0, [t**k for t in statmath._NODES])
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    if k <= 23:
        assert kronrod == pytest.approx(exact, abs=1e-15)
    else:
        assert abs(kronrod - exact) > 1e-9
    # error = |K15 - G7|, so it vanishes exactly where both rules are exact.
    if k <= 13:
        assert error <= 1e-15
    elif k == 14:
        assert error > 1e-4


# ── integrate: two components in one traversal ──────────────────────


def _smooth(t):
    return math.exp(-0.5 * t * t) * t


def _kink(t):
    return abs(t - 1.0 / 3.0)


def _scalar_nodes(g, a, b):
    nodes = []

    def f(t):
        nodes.append(t)
        return g(t)

    return integrate(f, a, b), nodes


@pytest.mark.parametrize("first, second", [(_smooth, _kink), (_kink, _smooth)])
def test_integrate_pair_matches_lone_passes_bit_for_bit(first, second):
    lone_first, nodes_first = _scalar_nodes(first, 0.0, 3.0)
    lone_second, nodes_second = _scalar_nodes(second, 0.0, 3.0)
    # The kink refines a different tree than the smooth curve.
    assert set(nodes_first) != set(nodes_second)
    calls = []

    def pair(t):
        calls.append(t)
        return first(t), second(t)

    got = integrate(pair, 0.0, 3.0)
    assert isinstance(got, tuple)
    assert [v.hex() for v in got] == [lone_first.hex(), lone_second.hex()]
    # One call per node of the union of the two scalar trees.
    assert len(calls) == len(set(calls))
    assert set(calls) == set(nodes_first) | set(nodes_second)
    assert len(calls) < len(nodes_first) + len(nodes_second)


def test_integrate_pair_names_a_non_finite_second_component_and_stops():
    # As for a scalar: one panel on [0, 1] evaluates its nodes left to
    # right, and an inf in the second component at the fifth stops it.
    calls = []

    def f(t):
        calls.append(t)
        return t, (math.inf if len(calls) == 5 else t)

    with pytest.raises(ValueError) as excinfo:
        integrate(f, 0.0, 1.0)
    assert str(excinfo.value).endswith(f"not finite at t={calls[-1]!r}")
    nodes = [0.5 - 0.5 * x for x in KRONROD_X[:5]]
    assert calls == pytest.approx(nodes, abs=1e-14)


@pytest.mark.parametrize("jumps", [(True, True), (False, True), (True, False)])
def test_integrate_pair_depth_exhaustion_reports_first_exhausted_component(jumps):
    # A square wave of 2^20 or 3^13 cells, one jump per cell: no panel
    # wider than a cell resolves it, so its component reaches the cap.
    def jumps_per_unit(cells):
        return lambda t: 1.0 if int(t * cells) % 2 else 0.0

    parts = [jumps_per_unit(c) if j else _smooth for c, j in zip((2**20, 3**13), jumps)]
    reported = parts[jumps.index(True)]
    with pytest.raises(QuadratureConvergenceError) as lone:
        integrate(reported, 0.0, 1.0)
    with pytest.raises(QuadratureConvergenceError) as paired:
        integrate(lambda t: (parts[0](t), parts[1](t)), 0.0, 1.0)
    assert str(paired.value) == str(lone.value)
    assert paired.value.best_estimate.hex() == lone.value.best_estimate.hex()


def test_integrate_pair_empty_interval():
    assert integrate(lambda t: (t, t * t), 2.0, 2.0) == (0.0, 0.0)
