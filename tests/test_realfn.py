import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alexnorm.errors import InvalidSpec, NonConvergentTail, ToleranceNotMet
from alexnorm.norms import one_norm, primitive_gap_l1
from alexnorm.realfn import (ClosedFormPrimitive, Integrand, Interval, Partition,
                             PiecewiseChebyshevPrimitive, PiecewiseLinearPrimitive,
                             _chained_antiderivative, _cheb_integral, _critical_points,
                             build_primitive_from_pointwise, integral,
                             oscillation, variation)
from alexnorm.registry import get_function, indicator

INF = float("inf")
NAN = float("nan")
C = np.polynomial.chebyshev


def chi01(y):
    y = np.asarray(y, dtype=float)
    return ((y >= 0) & (y <= 1)).astype(float)


# -- extended reals and basic types ----------------------------------------


def test_extended_real_total_order():
    assert -INF < -1e300 < 0.0 < 1e300 < INF
    assert not (INF < INF) and not (-INF < -INF)


def test_interval_validation():
    Interval(-INF, INF)
    Interval(0.0, 0.0)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)


def test_partition_validation():
    Partition((0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        Partition((0.0,))
    with pytest.raises(ValueError):
        Partition((0.0, 0.0, 1.0))
    p = Partition.dyadic(Interval(0.0, 1.0), 3, extra=(0.3, 2.0))
    assert len(p.points) == 10  # 9 dyadic + one interior extra
    assert 0.3 in p.points and 2.0 not in p.points


# -- primitives -------------------------------------------------------------


def test_primitive_eval_indicator():
    F = get_function("indicator_01").primitive
    assert F.eval(0.5) == 0.5
    assert F.eval(INF) == 1.0
    assert F.eval(-INF) == F.limit_neg == 0.0


def test_table_breakpoint_values_exact():
    F = PiecewiseLinearPrimitive([0.0, 0.3, 1.7], [0.0, -2.0, 5.0])
    for x, v in zip(F.xs, F.ys):
        assert F.eval(x) == v
    assert F.eval(-100.0) == 0.0 and F.eval(100.0) == 5.0


def test_table_shift_is_exact():
    F = PiecewiseLinearPrimitive([0.0, 1.0], [0.0, 1.0])
    G = F.shifted(0.25)
    assert np.array_equal(G.ys, F.ys)
    assert G.eval(1.25) == 1.0


def test_integrand_equality_by_primitive():
    f = indicator(0.0, 1.0)
    g = indicator(0.0, 1.0)
    assert f == g
    assert f != indicator(0.0, 2.0)


def test_pointwise_matches_primitive_derivative():
    # central differences of F against the declared pointwise evaluator,
    # away from breakpoints
    h = 1e-6
    for name in ("gaussian", "bump", "sinc_primitive"):
        f = get_function(name)
        pt = f.pointwise_or_derived()
        ys = np.asarray([-0.71, -0.2, 0.13, 0.57])
        fd = (f.primitive.eval(ys + h) - f.primitive.eval(ys - h)) / (2.0 * h)
        assert np.allclose(fd, pt(ys), atol=1e-5)


@pytest.fixture(scope="module")
def window_primitives():
    # a table, a finite-support Chebyshev primitive, and a tail-estimated one
    # whose doubling tail windows are panels out to +-96
    return {
        "table": PiecewiseLinearPrimitive([0.0, 1.0, 2.5, 4.0], [0.5, 2.0, -1.0, 1.5]),
        "cheb": build_primitive_from_pointwise(
            lambda y: np.cos(3.0 * np.asarray(y, dtype=float)), (0.0, 4.0), 1e-12),
        "tail": build_primitive_from_pointwise(
            lambda y: np.exp(-np.abs(np.asarray(y, dtype=float))), (-INF, INF), 1e-11,
            core_halfwidth=6.0),
    }


def _quadrature_of_F(F, u, v):
    # composite 12-point Gauss-Legendre between the nodes of F, which is a
    # polynomial of degree <= 17 on each piece; beyond the nodes the
    # integrand is the declared limit
    nodes = F.breakpoints()
    cuts = np.unique(np.concatenate([[u, v], nodes[(nodes > u) & (nodes < v)]]))
    x, w = np.polynomial.legendre.leggauss(12)
    total = 0.0
    for l, r in zip(cuts[:-1], cuts[1:]):
        ys = 0.5 * (l + r) + 0.5 * (r - l) * x
        vals = np.where(ys < nodes[0], F.limit_neg,
                        np.where(ys > nodes[-1], F.limit_pos, F.eval(ys)))
        total += 0.5 * (r - l) * float(np.dot(w, vals))
    return total


@pytest.mark.parametrize("name", ["table", "cheb", "tail"])
def test_window_integral_takes_arrays(window_primitives, name):
    F = window_primitives[name]
    a, b = F.support_window()
    # inside; across the left edge; across the right edge; wholly left;
    # wholly right; across the whole support
    u = np.asarray([a + 0.3, a - 1.0, b - 0.7, a - 3.0, b + 0.5, a - 0.5])
    v = np.asarray([b - 0.4, a + 0.6, b + 1.5, a - 1.0, b + 2.0, b + 0.5])
    W = F.window_integral(u, v)
    assert W.shape == u.shape
    scalars = [F.window_integral(float(p), float(q)) for p, q in zip(u, v)]
    assert all(isinstance(s, float) for s in scalars)
    assert np.array_equal(W, scalars)
    for p, q, got in zip(u, v, W):
        assert got == pytest.approx(_quadrature_of_F(F, p, q), abs=1e-12)


def test_tail_estimated_eval_limits_and_edge_values(window_primitives):
    P = window_primitives["tail"]
    a, b = P.support_window()
    assert P.tail_estimated and (a, b) == (-96.0, 96.0)
    # the limits carry only the extrapolated remainder beyond the tail panels
    assert abs(P.limit_neg - P.F_edges[0]) <= 1e-11
    assert abs(P.limit_pos - P.F_edges[-1]) <= 1e-11
    xs = [-INF, a - 1.0, 0.0, b + 1.0, INF, float("nan")]
    arr = P.eval(np.asarray(xs))
    assert np.array_equal(arr, [P.eval(x) for x in xs], equal_nan=True)
    # declared limits at +-inf, edge values at finite points beyond the panels
    assert arr[0] == P.limit_neg == 0.0
    assert arr[1] == P.F_edges[0]
    assert arr[3] == P.F_edges[-1]
    assert arr[4] == P.limit_pos
    # F(0) is the mass of e^{-|y|} left of 0
    assert arr[2] == pytest.approx(1.0, abs=1e-10)
    assert math.isnan(arr[5])


def test_tail_panels_are_the_primitive_beyond_the_core(window_primitives):
    # e^{-|y|} built on the core [-6, 6]: F(y) = e^y left of 0 and
    # 2 - e^{-y} right of it, on the tail panels as on the core ones
    P = window_primitives["tail"]
    f = Integrand(P, lambda y: np.exp(-np.abs(np.asarray(y, dtype=float))))
    assert P.window_integral(-9.0, -7.0) == pytest.approx(
        math.exp(-7.0) - math.exp(-9.0), abs=1e-12)
    assert P.eval(-20.0) == pytest.approx(math.exp(-20.0), abs=1e-12)
    assert P.eval(20.0) == pytest.approx(2.0 - math.exp(-20.0), abs=1e-12)
    assert one_norm(f) == pytest.approx(2.0, abs=1e-12)
    # integral of |F(y - 3) - F(y)| is 3 * (F(inf) - F(-inf)) for monotone F
    assert primitive_gap_l1(f, 3.0) == pytest.approx(6.0, abs=1e-10)


def test_tail_panel_window_integrals_match_eval(window_primitives):
    # window integrals inside and across the tail panels agree with a
    # quadrature of F.eval there
    P = window_primitives["tail"]
    tails = P.edges[(P.edges <= -6.0) | (P.edges >= 6.0)]
    assert len(tails) >= 8
    u = np.r_[tails[:-1], -30.0, 5.0]
    v = np.r_[tails[1:], -7.0, 40.0]
    for p, q, got in zip(u, v, P.window_integral(u, v)):
        assert got == pytest.approx(_quadrature_of_F(P, p, q), abs=1e-12)


def test_variation_on_unbounded_intervals_sees_extrema_inside_panels():
    # F = -exp(-(y - 0.3)^2)/2: its minimum at 0.3 lies inside a panel, and
    # the window reaches the tail panels, far wider than the dyadic spacing
    f = lambda y: (np.asarray(y) - 0.3) * np.exp(-(np.asarray(y) - 0.3) ** 2)
    P = build_primitive_from_pointwise(f, (-INF, INF), 1e-11)
    assert 0.3 not in P.edges
    assert variation(P, Interval(-INF, INF)) == pytest.approx(1.0, abs=1e-12)
    assert oscillation(P, Interval(-INF, INF)) == pytest.approx(0.5, abs=1e-12)
    assert variation(Integrand(P, f), Interval(-INF, 1.0)) == pytest.approx(
        1.0 - 0.5 * math.exp(-0.49), abs=1e-12)


@pytest.mark.parametrize("tol", [NAN, INF, 0.0, -1e-9])
def test_build_refuses_tol_outside_zero_to_inf(tol):
    # a NaN or infinite tol compares False against every error estimate and
    # would skip refinement silently
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        build_primitive_from_pointwise(chi01, (0.0, 1.0), tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        build_primitive_from_pointwise(np.exp, (-INF, 0.0), tol)


@pytest.mark.parametrize("name", ["table", "cheb", "tail"])
def test_scaled_and_shifted_at_the_nodes(window_primitives, name):
    # one body serves tables and panels: c * F and F(. - dx) at the nodes
    F = window_primitives[name]
    t = F.breakpoints()
    S = F.scaled(-2.5)
    assert type(S) is type(F)
    assert S.eval(t) == pytest.approx(-2.5 * F.eval(t), rel=1e-15, abs=1e-15)
    assert (S.limit_neg, S.limit_pos) == (-2.5 * F.limit_neg, -2.5 * F.limit_pos)
    assert S.extrema() == pytest.approx((-2.5 * F.extrema()[1], -2.5 * F.extrema()[0]))
    G = F.shifted(0.75)
    assert np.array_equal(G.breakpoints(), t + 0.75)
    assert np.array_equal(G.eval(t + 0.75), F.eval(t))
    assert G.window_integral(0.75, 2.75) == pytest.approx(F.window_integral(0.0, 2.0),
                                                          abs=1e-14)


def test_table_is_a_panel_primitive_with_constant_f():
    xs, ys = np.asarray([0.0, 1.0, 2.5]), np.asarray([0.5, 2.0, -1.0])
    T = PiecewiseLinearPrimitive(xs, ys)
    twin = PiecewiseChebyshevPrimitive(xs, (np.diff(ys) / np.diff(xs))[:, None],
                                       F_edge0=ys[0])
    assert isinstance(T, PiecewiseChebyshevPrimitive)
    assert np.array_equal(T.pieces(True)[1], twin.pieces(True)[1])
    assert np.array_equal(T.F_edges, ys) and np.array_equal(T.xs, T.edges)
    # equals needs equal data and the same class
    assert T.equals(PiecewiseLinearPrimitive(xs.copy(), ys.copy()))
    assert twin.equals(PiecewiseChebyshevPrimitive(xs, twin.fc.copy(), F_edge0=ys[0]))
    assert not T.equals(twin) and not twin.equals(T)
    assert not T.equals(PiecewiseLinearPrimitive(xs, ys + 1.0))
    assert not T.equals(T.shifted(0.5))
    # equality is by F: these slopes differ in the last bit, the nodes do not
    S = PiecewiseLinearPrimitive([0.1, 0.7, 1.3], [0.0, 1.0, 0.5]).shifted(0.2)
    fresh = PiecewiseLinearPrimitive(S.xs.copy(), S.ys.copy())
    assert not np.array_equal(S.fc, fresh.fc) and S.equals(fresh)


def test_closed_form_breakpoints_are_its_support_ends():
    F = get_function("cosine").primitive
    assert np.array_equal(F.breakpoints(), [-math.pi, math.pi])
    assert np.array_equal(F.shifted(0.5).breakpoints(), [-math.pi + 0.5, math.pi + 0.5])
    assert np.array_equal(F.scaled(3.0).breakpoints(), F.breakpoints())


@pytest.mark.parametrize("name", ["cheb", "tail"])
def test_cheb_eval_matches_per_panel_mask_loop(window_primitives, name):
    # reference: the per-panel boolean-mask loop that the sorted runs replaced
    F = window_primitives[name]
    e = F.edges
    rng = np.random.default_rng(7)
    x = rng.permutation(np.concatenate([rng.uniform(e[0] - 1.0, e[-1] + 1.0, 3000), e]))
    idx = np.clip(np.searchsorted(e, x, side="right") - 1, 0, len(e) - 2)
    xi = np.clip((2.0 * x - e[idx] - e[idx + 1]) / (e[idx + 1] - e[idx]), -1.0, 1.0)
    ref = np.empty_like(x)
    for i in np.unique(idx):
        m = idx == i
        ref[m] = np.polynomial.chebyshev.chebval(xi[m], F.Fc[i])
    ref[x <= e[0]] = F.F_edges[0]
    ref[x >= e[-1]] = F.F_edges[-1]
    assert np.array_equal(F.eval(x), ref)


def _closed_eval_masked(F, x):
    # the masked path that every closed-form input took before the all-finite one
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    neg, pos = np.isneginf(x), np.isposinf(x)
    fin = ~(neg | pos)
    out[neg] = F.limit_neg
    out[pos] = F.limit_pos
    if fin.any():
        out[fin] = F.func(x[fin] - F.shift)
    return float(out[0]) if scalar else out


@pytest.mark.parametrize("shift", [0.0, 1.25, -3.0])
def test_closed_form_eval_matches_the_masked_path(shift):
    seen = []

    def F_eval(y):
        seen.append(np.ndim(y))
        return np.exp(-np.asarray(y) ** 2) * np.cos(3.0 * np.asarray(y)) + 0.5 * np.tanh(y)

    F = ClosedFormPrimitive(F_eval, -0.5, 0.5, scan=(-6.0, 6.0)).shifted(shift)
    rng = np.random.default_rng(5)
    finite = rng.uniform(-8.0, 8.0, 60)
    odd = finite.copy()
    odd[[3, 17, 40]] = [-INF, INF, NAN]
    for x in (0.3, -INF, INF, NAN, finite, finite.reshape(6, 10), odd, odd.reshape(6, 10),
              np.asarray([2.0]), np.empty(0)):
        got, want = F.eval(x), _closed_eval_masked(F, x)
        if np.ndim(x) == 0:
            assert type(got) is float and (got == want or math.isnan(got) and math.isnan(want))
        else:
            assert got.shape == np.shape(x)
            assert np.array_equal(got, want, equal_nan=True)
    assert set(seen) == {1}  # the evaluator always gets a 1-d array


def test_critical_points_match_chebroots_per_panel():
    # reference: numpy's chebroots panel by panel, real roots inside (-1, 1)
    rng = np.random.default_rng(3)
    edges = np.cumsum(rng.uniform(0.1, 1.0, 41))
    fc = rng.normal(size=(40, 17))
    want = [edges]
    for i, row in enumerate(fc):
        r = np.polynomial.chebyshev.chebroots(row)
        r = r[(np.abs(r.imag) < 1e-6) & (np.abs(r.real) < 1.0)].real
        want.append(0.5 * (edges[i] + edges[i + 1]) + 0.5 * (edges[i + 1] - edges[i]) * r)
    got = _critical_points([(1.0, 0.0, PiecewiseChebyshevPrimitive(edges, fc).pieces(True))])
    assert np.array_equal(got, np.unique(np.concatenate(want)))


@pytest.mark.parametrize("name", ["table", "cheb", "tail"])
def test_cheb_eval_single_point_matches_array_path(window_primitives, name):
    # one point must give the bits the same point gets inside a larger array,
    # as a float for scalar input and with its shape kept for a one-element array
    F = window_primitives[name]
    e = F.edges
    assert len(e) > 3
    pts = np.concatenate([e[:-1] + 0.3 * np.diff(e), e[:-1] + 0.77 * np.diff(e), e[1:-1],
                          [e[0], e[-1], e[0] - 1.5, e[-1] + 1.5,
                           -INF, INF, float("nan")]])
    c = 0.5 * (e[0] + e[1])
    derived = F.pointwise_derived()
    with np.errstate(invalid="ignore"):
        ref_F = F.eval(pts)
        ref_f = derived(pts)
        ref_W = F.window_integral(np.full(pts.shape, c), pts)
    for k, p in enumerate(pts):
        for x in (float(p), np.asarray(p), np.asarray([p])):
            with np.errstate(invalid="ignore"):
                got = (F.eval(x), derived(x), F.window_integral(c, x))
            for g, ref in zip(got, (ref_F, ref_f, ref_W)):
                if np.ndim(x) == 0:
                    assert type(g) is float
                else:
                    assert isinstance(g, np.ndarray) and g.shape == (1,)
                assert np.array_equal(np.ravel(g), ref[k:k + 1], equal_nan=True), (p, x)


def _eval_coef_masked(P, x, coef_rows, below, above, at_neg, at_pos):
    # reference: the panel evaluator with np.clip, writing the +-inf limits
    # through np.isneginf and np.isposinf on every call
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    lo_mask = x <= P.edges[0]
    hi_mask = x >= P.edges[-1]
    out[lo_mask] = below
    out[hi_mask] = above
    mid = ~(lo_mask | hi_mask)
    if mid.any():
        xm = x[mid]
        idx = np.clip(np.searchsorted(P.edges, xm, side="right") - 1, 0, len(P.edges) - 2)
        a, b = P.edges[idx], P.edges[idx + 1]
        xi = np.clip((2.0 * xm - a - b) / (b - a), -1.0, 1.0)
        out[mid] = C.chebval(xi, coef_rows.T[:, idx], tensor=False)
    out[np.isneginf(x)] = at_neg
    out[np.isposinf(x)] = at_pos
    return float(out[0]) if scalar else out


@pytest.mark.parametrize("name", ["table", "cheb", "tail", "signed_zero"])
def test_panel_eval_matches_the_masked_path_bit_for_bit(window_primitives, name):
    if name == "signed_zero":
        # an edge value -0.0 under a declared limit 0.0, the two equal but
        # not the same bits
        P = PiecewiseChebyshevPrimitive([-1.0, 0.5, 2.0], [[1.0, 0.5], [-2.0, 0.25]],
                                        F_edge0=-0.0)
        P.limit_neg = 0.0
    else:
        P = window_primitives[name]  # "tail" has limits off its edge values
    e = P.edges
    rng = np.random.default_rng(11)
    special = [-INF, INF, NAN, -0.0, 0.0, e[0], e[-1]]
    x = np.concatenate([e, rng.uniform(e[0] - 2.0, e[-1] + 2.0, 200), special])
    x = x[:len(x) // 2 * 2]
    rows = [(P.Fc, float(P.F_edges[0]), float(P.F_edges[-1]), P.limit_neg, P.limit_pos),
            (P.fc, 0.0, 0.0, 0.0, 0.0)]
    for args in rows:
        for xin in [x, x.reshape(2, -1), np.asarray([INF])] + special:
            got = P._eval_coef(xin, *args)
            want = _eval_coef_masked(P, xin, *args)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), xin
        got = P._eval_coef(np.asarray(-INF), *args)
        assert type(got) is float and got == args[3]


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
def test_cheb_integral_keeps_its_bits(n):
    coefs = np.random.default_rng(n).normal(size=n)
    j = np.arange(0, n, 2)
    assert _cheb_integral(coefs) == float(np.dot(coefs[j], 2.0 / (1.0 - j * j)))


def _chained_per_panel(edges, coefs, start):
    # reference: one chebint and two chebval calls per panel, in order
    n, d = coefs.shape
    hw = 0.5 * np.diff(edges)
    out = np.zeros((n, d + 1))
    at_edges = np.empty(n + 1)
    at_edges[0] = start
    for i in range(n):
        out[i] = hw[i] * C.chebint(coefs[i])
        left = C.chebval(-1.0, out[i])
        out[i][0] += at_edges[i] - left
        at_edges[i + 1] = C.chebval(1.0, out[i])
    return out, at_edges


@pytest.mark.parametrize("degree", [0, 1, 16])
def test_chained_antiderivative_matches_per_panel_loop(degree):
    rng = np.random.default_rng(11 + degree)
    edges = np.cumsum(rng.uniform(0.01, 1.0, 3001)) - 700.0
    coefs = rng.normal(size=(3000, degree + 1)) * rng.uniform(0.1, 100.0, (3000, 1))
    coefs[::97] = 0.0  # zero rows take chebint's special case one row at a time
    for rows in (coefs, np.zeros_like(coefs)):
        got, got_edges = _chained_antiderivative(edges, rows, 1.25)
        want, want_edges = _chained_per_panel(edges, rows, 1.25)
        assert np.array_equal(got, want) and np.array_equal(got_edges, want_edges)


@pytest.fixture(scope="module")
def random_walk_table():
    rng = np.random.default_rng(5)
    xs = np.cumsum(rng.uniform(0.001, 0.1, 3000)) - 40.0
    return PiecewiseLinearPrimitive(xs, np.cumsum(rng.normal(size=3000)))


def _trapezoid_antiderivative(F, t):
    # reference: node-trapezoid sums, exact because F is linear on each piece
    xs, ys = F.xs, F.ys
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))])
    i = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(xs) - 2)
    dt = t - xs[i]
    slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    inside = cum[i] + ys[i] * dt + 0.5 * slope * dt * dt
    return np.where(t <= xs[0], (t - xs[0]) * F.limit_neg,
                    np.where(t >= xs[-1], cum[-1] + (t - xs[-1]) * F.limit_pos, inside))


def test_table_window_integral_matches_trapezoid_sums(random_walk_table):
    F = random_walk_table
    rng = np.random.default_rng(9)
    a, b = F.support_window()
    u = np.concatenate([np.full(2000, a - 1.0), rng.uniform(a - 1.0, b + 1.0, 2000)])
    v = np.concatenate([rng.uniform(a - 1.0, b + 1.0, 2000), np.full(2000, b + 1.0)])
    want = _trapezoid_antiderivative(F, v) - _trapezoid_antiderivative(F, u)
    # each window reaches past one end of the table
    assert np.allclose(F.window_integral(u, v), want, rtol=1e-12, atol=0.0)


def test_table_derivative_matches_slope_step(random_walk_table):
    F = random_walk_table
    xs, slopes = F.xs, np.diff(F.ys) / np.diff(F.xs)
    rng = np.random.default_rng(13)
    y = np.concatenate([rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, 5000), xs[1:],
                        [xs[0] - 1.0, -INF, INF]])
    idx = np.clip(np.searchsorted(xs, y, side="right") - 1, 0, len(slopes) - 1)
    step = np.where((y < xs[0]) | (y >= xs[-1]), 0.0, slopes[idx])
    assert np.array_equal(F.pointwise_derived()(y), step)
    # at the first node f is 0, as for every panel primitive; a null set
    assert F.pointwise_derived()(xs[0]) == 0.0 != slopes[0]


@pytest.mark.parametrize("edges, rows, F_edge0", [
    ([0.0, 1.0, INF], [[1.0], [2.0]], 0.0),
    ([0.0, 1.0, 2.0], [[1.0, NAN], [2.0, 0.0]], 0.0),
    ([0.0, 1.0, 2.0], [[1.0], [-INF]], 0.0),
    ([0.0, 1.0, 2.0], [[1.0], [2.0]], INF),
    ([0.0, 1.0, 2.0], [[1.0], [2.0]], NAN),
], ids=["edge_inf", "row_nan", "row_inf", "F_edge0_inf", "F_edge0_nan"])
def test_panel_constructor_refuses_non_finite(edges, rows, F_edge0):
    with pytest.raises(ValueError, match="must be finite"):
        PiecewiseChebyshevPrimitive(edges, rows, F_edge0=F_edge0)


@pytest.mark.parametrize("windows", [
    dict(scan=(NAN, 1.0)), dict(scan=(-INF, 1.0)), dict(scan=(1.0, -1.0)),
    dict(scan=(0.5, 0.5)), dict(scan=(-1.0, 1.0), support=(0.0, NAN)),
    dict(scan=(-1.0, 1.0), support=(0.5, -0.5)),
], ids=["scan_nan", "scan_inf", "scan_reversed", "scan_empty", "support_nan",
        "support_reversed"])
def test_closed_form_constructor_refuses_bad_windows(windows):
    with pytest.raises(ValueError, match="must be a finite window"):
        ClosedFormPrimitive(np.sin, 0.0, 0.0, **windows)


# -- integral ---------------------------------------------------------------


def test_integral_unit_box():
    f = get_function("indicator_01")
    assert integral(f, (0.0, 1.0)) == 1.0
    assert integral(f, (-INF, INF)) == 1.0


def test_integral_sinc_whole_line():
    # F(y) = sin(y)/y -> 0 at both ends; tails below 2e-6 at |y| = 1e6
    f = get_function("sinc_primitive")
    for y in (1e6, -1e6):
        assert abs(math.sin(y) / y) < 2e-6
    assert integral(f, (-INF, INF)) == 0.0


def test_integral_additive():
    f = get_function("step_signal")
    a, b, c = -0.5, 0.8, 2.4
    assert integral(f, (a, c)) == pytest.approx(
        integral(f, (a, b)) + integral(f, (b, c)), abs=1e-15)


# -- builder ----------------------------------------------------------------


def test_build_indicator_exactness():
    P = build_primitive_from_pointwise(chi01, (-1.0, 2.0), 1e-10)
    assert abs(P.eval(2.0) - 1.0) < 1e-10
    assert abs(P.limit_pos - 1.0) < 1e-10
    # spot evaluations against the exact ramp
    for x in (-0.5, 0.2, 0.9, 1.5):
        assert abs(P.eval(x) - min(max(x, 0.0), 1.0)) < 1e-9


def test_build_gaussian_total_mass():
    # oracle: dense composite midpoint refinement, independent of the builder
    xs = np.linspace(-8.0, 8.0, 1_000_001)
    mids = 0.5 * (xs[1:] + xs[:-1])
    oracle = float(np.sum(np.exp(-mids * mids)) * (xs[1] - xs[0]))
    assert abs(oracle - math.sqrt(math.pi)) < 1e-9
    P = build_primitive_from_pointwise(lambda y: np.exp(-np.asarray(y) ** 2),
                                       (-8.0, 8.0), 1e-10)
    assert abs(P.limit_pos - oracle) < 1e-9
    assert abs(P.limit_pos - math.sqrt(math.pi)) < 1e-10


def test_build_oscillatory_tail_does_not_converge():
    # cos(y)/y: the doubling tail windows' masses never settle below tol
    f = lambda y: np.cos(np.asarray(y, dtype=float)) / np.asarray(y, dtype=float)
    with pytest.raises(NonConvergentTail):
        build_primitive_from_pointwise(f, (1.0, INF), 1e-8)
    with pytest.raises(NonConvergentTail):
        build_primitive_from_pointwise(f, (-INF, -1.0), 1e-8)


def test_build_half_line_beyond_the_core_window():
    # (-inf, -100) lies left of the core window [-64, 64]: it is built on the
    # 128 left of -100, as (100, inf) is on the 128 right of 100; three
    # doubling tail panels, [-456, -228], [-912, -456] and [-1824, -912], follow
    P = build_primitive_from_pointwise(np.exp, (-INF, -100.0), 1e-12)
    assert -228.0 in P.edges
    assert P.support_window() == (-1824.0, -100.0)
    assert P.limit_pos == pytest.approx(math.exp(-100.0), abs=1e-12)
    # a half-line reaching into the core window keeps the core's end
    P = build_primitive_from_pointwise(np.exp, (-INF, 0.0), 1e-12)
    assert -64.0 in P.edges and P.support_window() == (-512.0, 0.0)
    P = build_primitive_from_pointwise(lambda y: np.exp(np.asarray(y) + 100.0),
                                       (-INF, -100.0), 1e-12)
    Q = build_primitive_from_pointwise(lambda y: np.exp(100.0 - np.asarray(y)),
                                       (100.0, INF), 1e-12)
    assert 228.0 in Q.edges and Q.support_window() == (100.0, 1824.0)
    assert P.limit_pos == pytest.approx(1.0, rel=1e-12)
    assert P.eval(-101.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert Q.eval(101.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_build_empty_support_is_invalid():
    with pytest.raises(InvalidSpec, match=r"support \[1.0, 1.0\] is empty"):
        build_primitive_from_pointwise(np.ones_like, (1.0, 1.0), 1e-9)


def test_evaluator_shape_mismatch_raises():
    # evaluators are vectorized: a scalar answer to an array is refused
    with pytest.raises(InvalidSpec, match=r"shape \(\) for input shape \(17,\)"):
        build_primitive_from_pointwise(lambda y: 1.0, (0.0, 1.0), 1e-8)


def test_build_panel_budget_exhaustion():
    noisy = lambda y: np.sign(np.sin(57.31 * np.asarray(y, dtype=float)))
    with pytest.raises(ToleranceNotMet):
        build_primitive_from_pointwise(noisy, (0.0, 10.0), 1e-12, max_panels=64)


def test_build_resolves_an_integrable_endpoint_singularity():
    # y^(-1/2) on (0, 1): the panels next to 0 must shrink far below 1e-14,
    # so the halving floor is relative to |pa|, |pb| (an absolute floor of
    # 64 eps ran out of its 20000 panels at an error of 2.5e-8)
    f = lambda y: 1.0 / np.sqrt(np.asarray(y, dtype=float))
    ts = np.linspace(0.0, 1.0, 1001)
    for tol in (1e-10, 1e-12):
        F = build_primitive_from_pointwise(f, (0.0, 1.0), tol)
        assert len(F.edges) < 200 and F.edges[1] < 1e-14
        assert np.abs(F.eval(ts) - 2.0 * np.sqrt(ts)).max() <= tol


def test_build_refuses_as_soon_as_unsplittable_panels_exceed_tol():
    # y^(-0.99) on (0, 1): the panel at 0 halves down to the smallest normal
    # width and still holds more than tol, so no budget of splits elsewhere
    # can help; the build says so at once instead of using up its panels
    f = lambda y: np.asarray(y, dtype=float) ** -0.99
    with pytest.raises(ToleranceNotMet, match="unsplittable"):
        build_primitive_from_pointwise(f, (0.0, 1.0), 1e-6)
    # a singularity the panels can resolve still builds: y^(-0.9) to 1e-8
    F = build_primitive_from_pointwise(lambda y: np.asarray(y, dtype=float) ** -0.9,
                                       (0.0, 1.0), 1e-8)
    assert abs(F.eval(1.0) - 10.0) < 1e-7


def test_build_nan_data_raises():
    # a NaN error estimate must not pass for a met tolerance
    with pytest.raises(ToleranceNotMet):
        build_primitive_from_pointwise(lambda y: np.full_like(y, np.nan), (0.0, 1.0), 1e-10)
    # on an infinite support too, before any tail window is fitted
    with pytest.raises(ToleranceNotMet):
        build_primitive_from_pointwise(lambda y: np.full_like(y, np.nan), (-INF, INF), 1e-10)
    # infinite data too, with no RuntimeWarning on the way (Tier-1 makes it an error)
    for v in (INF, -INF):
        for support in ((0.0, 1.0), (-INF, INF)):
            with pytest.raises(ToleranceNotMet):
                build_primitive_from_pointwise(lambda y: np.full_like(y, v), support, 1e-8)


def test_builder_reproduces_subinterval_quadrature():
    # invariant: integral over any subinterval within 10*tol of an oracle
    tol = 1e-10
    P = build_primitive_from_pointwise(lambda y: np.exp(-np.asarray(y) ** 2),
                                       (-6.0, 6.0), tol)
    f = lambda t: math.exp(-t * t)
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = np.sort(rng.uniform(-6.0, 6.0, 2))
        xs = np.linspace(a, b, 200_001)
        mids = 0.5 * (xs[1:] + xs[:-1])
        oracle = float(np.sum(np.exp(-mids * mids)) * (xs[1] - xs[0]))
        assert abs((P.eval(b) - P.eval(a)) - oracle) < max(10 * tol, 1e-8)


# -- variation and oscillation ----------------------------------------------


def test_variation_monotone_identity():
    for levels in (1, 4, 8):
        assert variation(lambda y: np.asarray(y, dtype=float),
                         (0.0, 1.0), levels) == pytest.approx(1.0, abs=1e-15)


def test_variation_ratio_closed_form():
    # the ratio of the reciprocal-quadratic weight has extrema R and 1/R with
    # R = (4 + x^2 + q)/(4 + x^2 - q), q = |x| sqrt(x^2 + 4); full-line
    # variation 2q.  Oracle: brute-force fine grid, cross-checked against R.
    w = lambda y: 1.0 / (np.asarray(y, dtype=float) ** 2 + 1.0)
    x = 0.5
    g = lambda y: w(np.asarray(y, dtype=float) + x) / w(y)
    ys = np.linspace(-200.0, 200.0, 2_000_001)
    gv = g(ys)
    brute = float(np.abs(np.diff(gv)).sum())
    q = abs(x) * math.sqrt(x * x + 4.0)
    R = (4.0 + x * x + q) / (4.0 + x * x - q)
    assert gv.max() == pytest.approx(R, abs=1e-8)
    assert gv.min() == pytest.approx(1.0 / R, abs=1e-8)
    # exact variation on [-L, L]: rise to R, fall to 1/R, rise back to g(L)
    L = 200.0
    v_exact = (R - float(g(np.asarray([-L]))[0])) + (R - 1.0 / R) \
        + (float(g(np.asarray([L]))[0]) - 1.0 / R)
    assert brute == pytest.approx(v_exact, abs=1e-6)
    assert v_exact == pytest.approx(2.0 * q, abs=4.0 * x / L + 1e-6)
    est = variation(g, (-200.0, 200.0), 16)
    assert est <= v_exact + 1e-9
    assert est == pytest.approx(v_exact, rel=2e-3)


def test_variation_exponential_ratio_constant():
    g = lambda y: np.exp(np.asarray(y, dtype=float) + 0.7) / np.exp(np.asarray(y, dtype=float))
    assert variation(g, (-30.0, 30.0), 10) < 1e-9


def test_variation_table_exact_any_level():
    F = PiecewiseLinearPrimitive([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    for levels in (1, 2, 6):
        assert variation(F, (-1.0, 3.0), levels) == 2.0


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=15, deadline=None)
def test_variation_monotone_in_levels(levels):
    h = lambda y: np.sin(3.0 * np.asarray(y, dtype=float)) + 0.3 * np.asarray(y, dtype=float)
    lo = variation(h, (0.0, 5.0), levels)
    hi = variation(h, (0.0, 5.0), levels + 1)
    assert hi >= lo - 1e-12


def test_oscillation_examples():
    assert oscillation(chi01, (-1.0, 2.0), 10) == 1.0
    assert oscillation(lambda y: np.sin(np.asarray(y, dtype=float)),
                       (0.0, 2.0 * math.pi), 12) == pytest.approx(2.0, abs=1e-6)
    F = get_function("indicator_01").primitive
    assert oscillation(F, (-INF, INF), 8) == 1.0


@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=15, deadline=None)
def test_oscillation_le_variation(levels):
    h = lambda y: np.cos(2.0 * np.asarray(y, dtype=float)) * np.exp(
        -0.1 * np.asarray(y, dtype=float) ** 2)
    I = (-4.0, 4.0)
    assert oscillation(h, I, levels) <= variation(h, I, levels) + 1e-12


def test_zero_length_interval():
    assert variation(chi01, (0.5, 0.5), 4) == 0.0
    assert oscillation(chi01, (0.5, 0.5), 4) == 0.0


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=8,
                unique=True),
       st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=40, deadline=None)
def test_integral_additivity_random_tables(pts, b, c):
    # F(c) - F(a) == (F(b) - F(a)) + (F(c) - F(b)) for any table and any b
    xs = np.sort(np.asarray(pts))
    F = PiecewiseLinearPrimitive(xs, np.cos(xs))
    a = -20.0
    assert (F.eval(b) - F.eval(a)) + (F.eval(c) - F.eval(b)) == pytest.approx(
        F.eval(c) - F.eval(a), abs=1e-12)
