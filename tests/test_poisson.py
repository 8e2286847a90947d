import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alexnorm.cli import serialize_poisson_reports
from alexnorm import poisson
from alexnorm.errors import (InvalidSpec, KernelSingularity, NonIntegrableProduct,
                             TailBoundFailure)
from alexnorm.poisson import (HalfPlaneOperator, HalfPlanePoint,
                              PeriodicIntegrand, disc_boundary_convergence,
                              disc_kernel, disc_kernel_mass,
                              halfplane_kernel, halfplane_kernel_mass,
                              halfplane_weighted_convergence, kernel_bv_audit,
                              kernel_pair, poisson_disc, poisson_halfplane)
from alexnorm.norms import translate
from alexnorm.realfn import (Integrand, PiecewiseChebyshevPrimitive,
                             PiecewiseLinearPrimitive, _call_vec,
                             build_primitive_from_pointwise, gauss_nodes)
from alexnorm.registry import get_function, get_weight, indicator
from alexnorm.weights import Weight, weighted_gap_sweep

ONE = lambda y: np.ones_like(np.asarray(y, dtype=float))


@pytest.fixture(scope="module")
def one_period():
    return PeriodicIntegrand(get_function("one_period"))


@pytest.fixture(scope="module")
def cos_period():
    return PeriodicIntegrand(get_function("cosine"))


@pytest.fixture(scope="module")
def chi_half():
    return PeriodicIntegrand(indicator(0.0, math.pi, label="chi_0_pi"))


@pytest.fixture(scope="module")
def rq():
    return get_weight("reciprocal_quadratic")


# -- disc kernel ----------------------------------------------------------------


def test_disc_kernel_mass_closed_form():
    for r in (0.0, 0.5, 0.9, 0.99):
        assert disc_kernel_mass(r, -math.pi, math.pi) == pytest.approx(1.0, abs=1e-12)


def test_disc_kernel_mass_numeric():
    # midpoint rule on the kernel itself, independent of the antiderivative
    for r in (0.0, 0.5, 0.9, 0.99):
        phis = -math.pi + (np.arange(65536) + 0.5) * (2.0 * math.pi / 65536)
        mass = float(np.sum(disc_kernel(r, phis)) * (2.0 * math.pi / 65536))
        assert abs(mass - 1.0) < 1e-10


def test_disc_kernel_mass_wrapped_arcs():
    # an arc crossing the cut carries the complementary mass
    r = 0.7
    a, b = 2.5, 2.5 + 2.0
    direct = disc_kernel_mass(r, a, b)
    comp = disc_kernel_mass(r, b - 2.0 * math.pi, a)
    assert direct + comp == pytest.approx(1.0, abs=1e-12)


def test_poisson_disc_constant(one_period):
    for r in (0.0, 0.3, 0.9):
        assert poisson_disc(one_period, r, 1.234) == pytest.approx(1.0, abs=1e-12)


def test_poisson_disc_exact_arcs_for_constant_panels(one_period):
    # f = 2 on (-pi, 0) and 0 on (0, pi) as panels: exact arcs, as for a table
    F = PiecewiseChebyshevPrimitive([-math.pi, 0.0, math.pi], [[2.0], [0.0]])
    f = PeriodicIntegrand(Integrand(F))
    edges, values = f.pieces()
    assert np.array_equal(edges, F.edges) and np.array_equal(values, [2.0, 0.0])
    assert poisson_disc(f, 0.6, 0.3) == 2.0 * disc_kernel_mass(0.6, -math.pi - 0.3, -0.3)
    assert np.array_equal(one_period.pieces()[1], [1.0])
    assert PeriodicIntegrand(Integrand(PiecewiseChebyshevPrimitive(
        [-math.pi, math.pi], [[0.0, 1.0]]))).pieces() is None


def test_poisson_disc_cosine_extension(cos_period):
    # the harmonic extension of cos is r cos(theta)
    for r in (0.0, 0.5, 0.9, 0.99):
        assert poisson_disc(cos_period, r, 0.0) == pytest.approx(r, abs=1e-8)
    assert poisson_disc(cos_period, 0.5, 0.25) == pytest.approx(
        0.5 * math.cos(0.25), abs=1e-8)


def test_poisson_disc_mean_at_center(chi_half, cos_period):
    assert poisson_disc(chi_half, 0.0, 0.77) == pytest.approx(0.5, abs=1e-12)
    assert poisson_disc(cos_period, 0.0, 0.77) == pytest.approx(0.0, abs=1e-10)


def test_poisson_disc_indicator_boundary_ladder(chi_half):
    vals = [poisson_disc(chi_half, r, math.pi / 2) for r in (0.9, 0.99, 0.999)]
    assert all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))
    assert abs(vals[-1] - 1.0) < 1e-3


def test_poisson_disc_singularity(one_period):
    with pytest.raises(KernelSingularity):
        poisson_disc(one_period, 1.0, 0.0)
    with pytest.raises(KernelSingularity):
        poisson_disc(one_period, 1.5, 0.0)
    with pytest.raises(ValueError):
        poisson_disc(one_period, -0.1, 0.0)
    # non-finite input is refused, never carried into a NaN value
    for r, theta in ((math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(KernelSingularity):
            poisson_disc(one_period, r, theta)


def test_disc_boundary_convergence_indicator(chi_half):
    reports = disc_boundary_convergence(chi_half, [0.9, 0.99, 0.999])
    gaps = [r.gap for r in reports]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05


def test_disc_boundary_convergence_constant(one_period):
    reports = disc_boundary_convergence(one_period, [0.5, 0.9])
    assert all(r.gap < 1e-8 for r in reports)


def test_disc_boundary_convergence_cosine(cos_period):
    # closed form: u_r = r cos, so the gap is the norm of (1-r) cos: 2(1-r)
    reports = disc_boundary_convergence(cos_period, [0.5, 0.75, 0.9])
    for r in reports:
        assert r.gap == pytest.approx(2.0 * (1.0 - r.x), abs=1e-6)


def test_disc_harmonicity_spot_check(chi_half):
    def u(x, y):
        return poisson_disc(chi_half, math.hypot(x, y), math.atan2(y, x))

    x0, y0 = 0.35, 0.2
    laps = []
    for h in (1e-2, 5e-3):
        laps.append((u(x0 + h, y0) + u(x0 - h, y0) + u(x0, y0 + h)
                     + u(x0, y0 - h) - 4.0 * u(x0, y0)) / h ** 2)
    # second-order stencil on a harmonic function: residual drops ~4x
    assert abs(laps[1]) <= 0.35 * abs(laps[0]) + 1e-7


# -- half-plane -------------------------------------------------------------------


def test_halfplane_panel_edges_hold_closed_form_jumps():
    # cosine's f jumps at +-pi, the ends of its declared support
    op = HalfPlaneOperator(get_function("cosine"), Weight.constant(1.0))
    edges = op._panel_edges(0.3, 0.5, -50.0, 50.0)   # offsets from x = 0.3
    assert {-math.pi - 0.3, math.pi - 0.3} <= set(edges.tolist())


def test_halfplane_kernel_mass():
    for y in (0.01, 0.1, 1.0, 10.0):
        assert halfplane_kernel_mass(y, -1e15, 1e15) == pytest.approx(1.0, abs=1e-10)
        xs = np.linspace(-2000.0, 2000.0, 2_000_001)
        num = float(np.trapezoid(halfplane_kernel(y, xs), xs))
        assert num == pytest.approx(halfplane_kernel_mass(y, -2000.0, 2000.0),
                                    abs=1e-9)


def test_halfplane_point_validation():
    with pytest.raises(ValueError):
        HalfPlanePoint(0.0, 0.0)
    with pytest.raises(ValueError):
        HalfPlanePoint(0.0, -1.0)
    for x, y in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                 (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError):
            HalfPlanePoint(x, y)


def test_poisson_halfplane_constant(rq):
    for y in (0.1, 1.0):
        for x in (0.0, 0.3, -1.7):
            u = poisson_halfplane(ONE, rq, HalfPlanePoint(x, y))
            assert abs(u - 1.0) <= 1e-6


def test_poisson_halfplane_half_indicator_symmetry(rq):
    # boundary data chi_[0, inf): the value on the symmetry axis is 1/2
    chi_pos = lambda t: (np.asarray(t, dtype=float) >= 0).astype(float)
    u = poisson_halfplane(chi_pos, rq, HalfPlanePoint(0.0, 1.0))
    assert u == pytest.approx(0.5, abs=1e-6)


def test_poisson_halfplane_indicator_against_closed_form(rq):
    # oracle: the unweighted convolution in closed form,
    # u(x, y) = (atan(x/y) - atan((x-1)/y)) / pi
    f = get_function("indicator_01")
    op = HalfPlaneOperator(f, rq)
    for (x, y) in ((0.5, 0.5), (0.2, 0.1), (-1.0, 2.0), (3.0, 0.25)):
        oracle = (math.atan2(x, y) - math.atan2(x - 1.0, y)) / math.pi
        assert op.value(HalfPlanePoint(x, y)) == pytest.approx(oracle, abs=1e-6)


def test_poisson_halfplane_rejects_nonintegrable_product(rq):
    with pytest.raises(NonIntegrableProduct):
        poisson_halfplane(lambda t: np.asarray(t, dtype=float), rq,
                          HalfPlanePoint(0.0, 1.0))


def _count_constructions(monkeypatch):
    built = []
    init = HalfPlaneOperator.__init__

    def counted(self, f, w):
        built.append((f, w))
        init(self, f, w)

    monkeypatch.setattr(HalfPlaneOperator, "__init__", counted)
    return built


def test_poisson_halfplane_reuses_the_operator_of_the_same_f_and_w(rq, monkeypatch):
    f, g = indicator(0.0, 1.0), indicator(0.0, 1.0)
    shifted = translate(f, 0.5)
    const2 = Weight.constant(2.0)
    zs = [HalfPlanePoint(x, y) for x, y in ((0.5, 0.2), (-1.0, 2.0), (3.0, 0.25),
                                            (0.5, 1e-3), (40.0, 0.5))]
    want = {(id(h), id(w)): [HalfPlaneOperator(h, w).value(z) for z in zs]
            for h, w in ((f, rq), (g, rq), (g, const2), (shifted, rq))}
    built = _count_constructions(monkeypatch)

    def calls(h, w):
        return [poisson_halfplane(h, w, z) for z in zs] == want[id(h), id(w)]

    assert calls(f, rq) and calls(f, rq)
    assert built == [(f, rq)]
    # an equal but distinct f builds its own operator, and so does another w
    assert g == f and calls(g, rq)
    assert calls(g, const2) and calls(g, const2)
    # a shifted copy shares f's primitive caches, never its operator
    assert calls(f, rq) and calls(shifted, rq)
    assert built == [(f, rq), (g, rq), (g, const2), (f, rq), (shifted, rq)]
    assert want[id(shifted), id(rq)] != want[id(f), id(rq)]


def test_poisson_halfplane_keeps_no_failed_construction(monkeypatch):
    w = Weight.constant(1.0)
    built = _count_constructions(monkeypatch)
    linear = lambda t: np.asarray(t, dtype=float)
    for _ in range(2):
        with pytest.raises(NonIntegrableProduct):
            poisson_halfplane(linear, w, HalfPlanePoint(0.0, 1.0))
        assert poisson._last_halfplane is None or poisson._last_halfplane[0] is not linear
    assert len(built) == 2


def test_halfplane_entry_points_refuse_bad_input(rq, monkeypatch):
    f = get_function("indicator_01")
    bare = lambda y: np.ones_like(np.asarray(y, dtype=float))
    with pytest.raises(InvalidSpec, match="Weight"):
        HalfPlaneOperator(f, bare)
    with pytest.raises(InvalidSpec, match="Weight"):
        poisson_halfplane(f, bare, HalfPlanePoint(0.5, 0.2))
    # the point is checked before anything is built
    built = _count_constructions(monkeypatch)
    with pytest.raises(InvalidSpec, match="HalfPlanePoint"):
        poisson_halfplane(indicator(0.0, 1.0), rq, (0.5, 0.2))
    assert built == []
    op = HalfPlaneOperator(f, rq)
    for tol in (math.nan, 0.0, -1e-6, math.inf, -math.inf):
        with pytest.raises(InvalidSpec, match="tolerance"):
            op.value(HalfPlanePoint(0.5, 0.2), tol=tol)
        with pytest.raises(InvalidSpec, match="tolerance"):
            op.values(np.asarray([0.5, 3.0]), 0.2, tol)
        with pytest.raises(InvalidSpec, match="tolerance"):
            op.values(np.empty(0), 0.2, tol)


def test_halfplane_values_refuse_bad_points(rq):
    # the batch is checked as a whole, with HalfPlanePoint's message; an
    # empty batch has no point to check
    op = HalfPlaneOperator(get_function("indicator_01"), rq)
    for xs, y in (([0.5, math.nan], 0.2), ([math.inf], 0.2), ([0.5], 0.0),
                  ([0.5], -1.0), ([0.5], math.nan), ([0.5], math.inf)):
        with pytest.raises(ValueError, match="finite x and y > 0"):
            op.values(np.asarray(xs), y, 1e-6)
    assert op.values(np.empty(0), math.nan, 1e-6).shape == (0,)


def _table(edges, values):
    F = PiecewiseLinearPrimitive(edges,
                                 np.concatenate([[0.0], np.cumsum(values * np.diff(edges))]))
    return Integrand(F, F.pointwise_derived())


# Table weights are left out: the weighted-parts form drops the Stieltjes jump
# terms at a table weight's breakpoints, so its values depend on w (a known
# defect, ROADMAP open item 1).
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_poisson_halfplane_does_not_depend_on_the_weight(data):
    widths = data.draw(st.lists(st.floats(1e-2, 2.0), min_size=1, max_size=5))
    edges = data.draw(st.floats(-3.0, 1.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    values = np.asarray(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(widths),
                                           max_size=len(widths))))
    f = _table(edges, values)
    w = data.draw(st.one_of(st.floats(0.1, 10.0).map(Weight.constant),
                            st.just(get_weight("reciprocal_quadratic"))))
    for x, y in data.draw(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(1e-2, 3.0)),
                                   min_size=1, max_size=3)):
        want = sum(v * halfplane_kernel_mass(y, a - x, b - x)
                   for v, a, b in zip(values, edges[:-1], edges[1:]))
        assert poisson_halfplane(f, w, HalfPlanePoint(x, y)) == pytest.approx(want, abs=1e-6)


def test_halfplane_weighted_convergence_indicator(rq):
    f = get_function("indicator_01")
    reports = halfplane_weighted_convergence(f, rq, [1.0, 0.1, 0.01], (-8.0, 8.0))
    gaps = [r.gap for r in reports]
    assert gaps[0] > gaps[1] > gaps[2]
    for r in reports:
        assert r.gap <= r.bound_upper + 1e-6  # kernel-averaged majorant
    # independent oracle for the final gap from the closed-form convolution
    y = 0.01
    ts = np.linspace(-8.0, 8.0, 400001)
    u = (np.arctan(ts / y) - np.arctan((ts - 1.0) / y)) / math.pi
    chi = ((ts >= 0) & (ts <= 1)).astype(float)
    e = (u - chi) / (ts * ts + 1.0)
    E = np.concatenate([[0.0], np.cumsum((e[1:] + e[:-1]) * 0.5 * np.diff(ts))])
    oracle = float(E.max() - E.min())
    assert gaps[-1] == pytest.approx(oracle, abs=1e-4)


def test_halfplane_weighted_convergence_constant(rq):
    reports = halfplane_weighted_convergence(ONE, rq, [1.0, 0.1], (-8.0, 8.0))
    assert all(r.gap < 1e-6 for r in reports)
    assert all(r.passed for r in reports)


def _majorant_oracle(y: float) -> float:
    # c10's gamma(s) = ||(tau_s f - f) w|| for f = chi_[0, 1], w = 1/(1 + t^2)
    # is atan(min(s, 1)); the majorant is 2 * integral_0^S Phi_y gamma plus the
    # tail term 2 * (1 - mass(-S, S)) * pi/4, S = max(200 y, 2)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        S = max(200 * y, 2)
        phi = lambda s: y / (mpmath.pi * (s * s + y * y))
        body = (mpmath.quad(lambda s: phi(s) * mpmath.atan(s), [0, y / 4, y, 4 * y, 1])
                + mpmath.quad(lambda s: phi(s) * mpmath.pi / 4, [1, S]))
        tail = 1 - (mpmath.atan2(S, y) - mpmath.atan2(-S, y)) / mpmath.pi
        return float(2 * body + 2 * tail * mpmath.pi / 4)


@pytest.fixture(scope="module")
def c10_ladder(rq):
    # canonical's c10 ladder, with the shifts gamma is computed at
    seen = []
    shift_gap = poisson._shift_gap

    def counted(f, fp, w, s, build_tol):
        seen.append(s)
        return shift_gap(f, fp, w, s, build_tol)

    poisson._shift_gap = counted
    try:
        reports = halfplane_weighted_convergence(get_function("indicator_01"), rq,
                                                 [1.0, 0.1, 0.01], (-8.0, 8.0))
    finally:
        poisson._shift_gap = shift_gap
    return reports, seen


def test_halfplane_majorant_matches_the_mpmath_oracle(c10_ladder):
    reports, _ = c10_ladder
    for r in reports:
        assert r.bound_upper == pytest.approx(_majorant_oracle(r.x), abs=1e-10), r.x
        assert r.gap <= r.bound_upper


def test_halfplane_majorant_shares_gamma_across_the_ladder(c10_ladder):
    # 18 panels of 8 nodes (edges 0, 2^-8 ... 2^7, 20 and 200), gamma once per node
    _, seen = c10_ladder
    assert len(seen) == len(set(seen)) <= 144
    assert min(seen) > 0.0 and max(seen) < 200.0


def test_halfplane_majorant_adds_the_kinks_of_gamma(rq):
    # gamma kinks where a jump of f(. - s) meets one of f or w: at the pairwise
    # differences of their breakpoints, at most 32 of them
    f = indicator(0.0, 3.0)
    assert poisson._kinks(f, rq, 200.0).tolist() == [3.0]
    assert poisson._kinks(f, Weight.piecewise_constant([0.5], [1.0, 2.0]),
                          200.0).tolist() == [0.5, 2.5, 3.0]
    many = _table(np.arange(40.0) ** 1.5, np.ones(39))
    kinks = poisson._kinks(many, rq, 200.0)
    b = many.primitive.breakpoints()
    d = np.unique(np.subtract.outer(b, b))
    assert kinks.tolist() == d[(d > 0) & (d < 200.0)][:32].tolist()
    assert len(poisson._kinks(ONE, rq, 200.0)) == 0


def test_halfplane_weighted_convergence_checks_its_ladder(rq):
    f = get_function("indicator_01")
    assert halfplane_weighted_convergence(f, rq, [], (-8.0, 8.0)) == []
    for ys in ([0.0], [-1.0], [math.nan], [math.inf], [1.0, math.nan]):
        with pytest.raises(ValueError, match="finite x and y > 0"):
            halfplane_weighted_convergence(f, rq, ys, (-8.0, 8.0))


def test_gaussian_product_finds_its_bump(rq):
    # a closed form without a declared support: its scan window's ends are
    # panel hints, so the first fits on the 4096 core see the bump
    from scipy.special import erfc
    G = HalfPlaneOperator(get_function("gaussian"), rq).G
    assert G.limit_pos == pytest.approx(math.pi * math.e * erfc(1.0), abs=1e-10)


@pytest.mark.parametrize("name", ["gaussian", "cosine", "sinc_primitive"])
def test_poisson_halfplane_of_closed_forms_matches_quad(rq, name):
    from scipy.integrate import quad
    f = get_function(name)
    fp = f.pointwise_or_derived()
    for x, y in ((0.3, 0.2), (-1.5, 1.0), (2.0, 0.05)):
        kern = lambda t: float(fp(np.asarray(t))) * y / (math.pi * ((x - t) ** 2 + y * y))
        pts = sorted({x - 10.0 * y, x, x + 10.0 * y, -math.pi, math.pi})
        want = quad(kern, -2000.0, 2000.0, points=pts, limit=2000,
                    epsabs=1e-12, epsrel=1e-12)[0]
        assert poisson_halfplane(f, rq, HalfPlanePoint(x, y)) == pytest.approx(want, abs=1e-6)


def test_halfplane_harmonicity_spot_check(rq):
    op = HalfPlaneOperator(get_function("indicator_01"), rq)

    def u(x, y):
        return op.value(HalfPlanePoint(x, y), tol=1e-9)

    x0, y0 = 0.3, 0.8
    laps = []
    for h in (1e-2, 5e-3):
        laps.append((u(x0 + h, y0) + u(x0 - h, y0) + u(x0, y0 + h)
                     + u(x0, y0 - h) - 4.0 * u(x0, y0)) / h ** 2)
    assert abs(laps[1]) <= 0.35 * abs(laps[0]) + 1e-7


def _value_per_panel(op, z, tol=1e-6):
    # reference: the half-plane value with one G.eval and one Psi_prime call
    # per 16-node panel, summed left to right, the nodes placed as offsets du
    # from x and the kernel taking u = -du.  The window is clipped to the
    # panels of G on each side where G's edge value is its limit, and each
    # residual term is the change of G beyond the window's end
    lim_neg, lim_pos = kernel_pair(op.w, z.y)
    Psi = lambda t: poisson._psi(op.w, z.x, z.y, np.asarray(t, dtype=float))
    G = op.G
    g_lo, g_hi = -math.inf, math.inf
    pieces = G.pieces(False)
    if pieces is not None:
        edges, _, below, above = pieces
        if below == G.limit_neg:
            g_lo = edges[0]
        if above == G.limit_pos:
            g_hi = edges[-1]
    T = max(50.0 * z.y, 50.0)
    for _ in range(14):
        A = min(max(z.x - T, g_lo), z.x + T)
        B = max(min(z.x + T, g_hi), A)
        psiB = float(_call_vec(Psi, np.asarray([B]))[0])
        psiA = float(_call_vec(Psi, np.asarray([A]))[0])
        dB = abs(lim_pos - psiB)
        dA = abs(psiA - lim_neg)
        resid = 2.0 * (abs(op.G_inf - G.eval(B)) * dB + abs(G.eval(A) - G.limit_neg) * dA)
        if resid <= 0.5 * tol:
            break
        T *= 2.0
    edges = op._panel_edges(z.x, z.y, A, B)
    nodes, wts = gauss_nodes(16)
    quad = 0.0
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        mid = 0.5 * (a + b)
        hw = 0.5 * (b - a)
        du = mid + hw * nodes
        ts = z.x + du
        quad += hw * float(np.dot(wts, G.eval(ts) * poisson._psi_prime(op.w, -du, z.y, ts)))
    quad += op.G_inf * (lim_pos - psiB)
    quad += G.eval(A) * (psiA - lim_neg)
    return op.G_inf * lim_pos - quad


def _cubic():
    cube = lambda y: np.asarray(y, dtype=float) ** 3
    F = build_primitive_from_pointwise(cube, (-1.0, 1.5), 1e-12)
    return Integrand(F, F.pointwise_derived(), "cubic")


@pytest.mark.parametrize("pair", ["table_rq", "table_const2", "cheb_rq", "cheb_const2",
                                  "offset_const2", "one_rq"])
def test_halfplane_value_matches_per_panel_reference(rq, pair):
    f, w = {"table_rq": (get_function("indicator_01"), rq),
            "table_const2": (get_function("indicator_01"), Weight.constant(2.0)),
            "cheb_rq": (_cubic(), rq),
            "cheb_const2": (_cubic(), Weight.constant(2.0)),
            # G(-inf) = 10 here, so the left residual must be G's change
            "offset_const2": (Integrand(PiecewiseLinearPrimitive([0.0, 1.0], [5.0, 6.0])),
                              Weight.constant(2.0)),
            # G carries tail remainders: its window is never clipped
            "one_rq": (ONE, rq)}[pair]
    op = HalfPlaneOperator(f, w)
    # inside, near the support's edge, left of it and far to the right.  With
    # G clipped, the first four points take no window doubling and the last
    # two 1 to 6, until the window reaches G's panels (at y = 1e-3 under the
    # constant weight none do); unclipped, one_rq takes 0 to 11.  At y = 2 the
    # first window half-width is 50y = 100, at the lower heights it is 50
    xs = np.asarray([0.5, 0.2, -1.0, 40.0, 130.0, 3000.0])
    for y in (1e-3, 0.5, 2.0):
        ref = [_value_per_panel(op, HalfPlanePoint(float(x), y)) for x in xs]
        assert list(op.values(xs, y, 1e-6)) == ref, y
        for x, r in zip(xs, ref):
            assert op.value(HalfPlanePoint(float(x), y)) == r, (x, y)


def test_halfplane_clips_the_window_only_where_G_sits_at_its_limit(rq):
    table = HalfPlaneOperator(get_function("indicator_01"), rq)
    assert table._g_span == (0.0, 1.0)
    offset = HalfPlaneOperator(Integrand(PiecewiseLinearPrimitive([0.0, 1.0], [5.0, 6.0])),
                               Weight.constant(2.0))
    assert offset._g_span == (0.0, 1.0)
    # tail remainders on both sides, and a closed form with no panels
    assert HalfPlaneOperator(ONE, rq)._g_span == (-math.inf, math.inf)
    cos = HalfPlaneOperator(get_function("cosine"), Weight.constant(1.0))
    assert cos.G.pieces(False) is None and cos._g_span == (-math.inf, math.inf)


def test_halfplane_values_share_one_quadrature_call(rq, monkeypatch):
    # k points: one kernel pair; each window doubling step evaluates G and
    # Psi_z once, at both ends of its points' windows, and one G.eval and one
    # Psi_z' call go over all the panel nodes
    op = HalfPlaneOperator(get_function("indicator_01"), rq)
    xs = np.asarray([0.5, 0.2, -1.0, 40.0, 3.0, 130.0])
    calls = {"kernel_pair": 0, "_psi": 0, "_psi_prime": 0}
    sizes = []
    G_eval = op.G.eval

    def counted(name):
        inner = getattr(poisson, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    def G_counted(t):
        sizes.append(np.size(t))
        return G_eval(t)

    for name in calls:
        monkeypatch.setattr(poisson, name, counted(name))
    monkeypatch.setattr(op.G, "eval", G_counted)
    op.values(xs, 0.5, 1e-6)
    assert calls["kernel_pair"] == 1
    assert calls["_psi_prime"] == 1
    # 130 takes two window doublings, the others none
    assert sizes[:-1] == [2 * len(xs), 2, 2] and calls["_psi"] == 3
    assert sizes[-1] % 16 == 0 and sizes[-1] > 0


def _seeded_table(seed: int, n: int = 6):
    # a seeded table on about [-2, 3] whose primitive starts at F(-inf) = 5
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.2, 1.0, n)) - 2.0
    ys = 5.0 + np.r_[0.0, np.cumsum(rng.normal(size=n - 1))]
    return xs, ys


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("wname", ["constant", "rq", "table"])
def test_halfplane_table_values_match_the_exact_kernel_mass(rq, seed, wname):
    # u_y(x) = sum_j v_j * (kernel mass of the j-th cell), whatever the weight.
    # The table weight jumps outside the table only: a jump inside G's span
    # still loses its Stieltjes term (see the weight-independence test above)
    w = {"constant": Weight.constant(2.0), "rq": rq,
         "table": Weight.piecewise_constant([-2.5, 4.5], [1.0, 3.0, 0.5])}[wname]
    nodes, F = _seeded_table(seed)
    v = np.diff(F) / np.diff(nodes)
    op = HalfPlaneOperator(Integrand(PiecewiseLinearPrimitive(nodes, F)), w)
    lo, hi = nodes[0], nodes[-1]
    f_max = float(np.abs(v).max())
    xs = np.asarray([0.5 * (lo + hi), nodes[2], nodes[2] + 1e-3, lo - 0.01, hi + 0.3,
                     -40.0, 75.0, 3000.0])
    for y in (1e-3, 0.01, 0.1, 1.0, 10.0):
        got = op.values(xs, y, 1e-6)
        T0 = max(50.0 * y, 50.0)
        for x, u in zip(xs.tolist(), got.tolist()):
            exact = sum(vj * halfplane_kernel_mass(y, x - b, x - a)
                        for vj, a, b in zip(v, nodes[:-1], nodes[1:]))
            # a first window that covers the table leaves rounding alone: the
            # kernel takes each node's offset u exactly, so eps * |t| reaches
            # only G's argument, times G's slope, against a kernel of height
            # 1/(pi y) (the oracle's x - b carries the same); farther points
            # stop once the tail bound clears 1e-6
            if x - T0 <= lo and x + T0 >= hi:
                bound = 1e-12 + 4 * np.finfo(float).eps * f_max * (1 + abs(x)) / (math.pi * y)
            else:
                bound = 1e-6
            assert abs(u - exact) <= bound, (x, y, u - exact)


def test_halfplane_cubic_matches_mpmath(rq):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    op = HalfPlaneOperator(_cubic(), rq)
    for x, y in ((0.3, 1e-3), (-0.9, 0.05), (1.4, 0.5), (4.0, 2.0), (0.0, 10.0)):
        kern = lambda t: t ** 3 * y / (mpmath.pi * ((x - t) ** 2 + y * y))
        pts = sorted({-1.0, 1.5, min(max(x, -1.0), 1.5)})
        exact = float(mpmath.quad(kern, pts))
        assert op.value(HalfPlanePoint(x, y)) == pytest.approx(exact, abs=1e-12), (x, y)


def test_halfplane_values_tail_failure(rq):
    op = HalfPlaneOperator(ONE, rq)
    with pytest.raises(TailBoundFailure):
        op.values(np.asarray([0.5, 3.0]), 0.5, 1e-300)
    # a one-point batch reports its own residual, read from G's tail panels
    with pytest.raises(TailBoundFailure) as info:
        op.values(np.asarray([0.5]), 0.5, 1e-300)
    assert str(info.value) == "tail bound 3.795e-12 above 5.000e-301 after window doubling"
    with pytest.raises(TailBoundFailure) as info_value:
        op.value(HalfPlanePoint(0.5, 0.5), tol=1e-300)
    assert str(info_value.value) == str(info.value)


def test_majorant_skips_weighted_gap_bound(rq, monkeypatch):
    # the majorant needs the weighted gaps only, not their triangle bound
    f = get_function("indicator_01")

    def no_bound(*args, **kwargs):
        raise AssertionError("the triangle bound is not needed here")

    with monkeypatch.context() as m:
        m.setattr("alexnorm.weights._difference_extrema", no_bound)
        reports = halfplane_weighted_convergence(f, rq, [1.0], (-4.0, 4.0))
    assert len(reports) == 1 and reports[0].gap <= reports[0].bound_upper
    for r in weighted_gap_sweep(f, rq, [0.5, 0.0, -0.25]):
        assert r.gap <= r.bound_upper


# -- kernel/weight pairing -----------------------------------------------------------


def test_kernel_pair_limits_closed_form(rq):
    lim_neg, lim_pos = kernel_pair(rq, 0.7)
    assert lim_pos == pytest.approx(0.7 / math.pi, abs=1e-12)
    assert lim_neg == pytest.approx(0.7 / math.pi, abs=1e-12)


def test_kernel_pair_derivative_matches_finite_difference(rq):
    ts = np.linspace(-3.0, 3.0, 11)
    h = 1e-6
    fd = (poisson._psi(rq, 0.2, 0.5, ts + h) - poisson._psi(rq, 0.2, 0.5, ts - h)) / (2.0 * h)
    assert np.allclose(poisson._psi_prime(rq, 0.2 - ts, 0.5, ts), fd, atol=1e-6)


def test_kernel_bv_audit_reciprocal_quadratic(rq):
    rep = kernel_bv_audit(rq, HalfPlanePoint(0.0, 1.0), (-20.0, 20.0))
    assert rep.bounded
    assert math.isfinite(rep.V_Psi) and math.isfinite(rep.V_invPsi)


def test_kernel_bv_audit_constant_weight():
    w = get_weight("constant")
    z = HalfPlanePoint(0.0, 0.5)
    rep = kernel_bv_audit(w, z, (-20.0, 20.0))
    # unimodal kernel on a window: rise to the peak and back down
    peak = halfplane_kernel(0.5, 0.0)
    edge = halfplane_kernel(0.5, 20.0)
    assert rep.V_Psi == pytest.approx(2.0 * peak - 2.0 * edge, rel=1e-4)
    assert rep.bounded


def test_halfplane_needs_a_declared_weight_derivative(rq):
    # Psi_z' needs w'; a closed form declared without one is refused rather
    # than differenced numerically, while the Psi-only audit still runs
    def w(y):
        y = np.asarray(y, dtype=float)
        return 1.0 / (y * y + 1.0)   # the reciprocal_quadratic builtin's values

    bare = Weight(w, label="bare")
    z = HalfPlanePoint(0.5, 0.2)
    with pytest.raises(InvalidSpec):
        poisson_halfplane(indicator(-1.0, 1.0), bare, z)
    rep = kernel_bv_audit(bare, HalfPlanePoint(0.0, 1.0), (-20.0, 20.0))
    ref = kernel_bv_audit(rq, HalfPlanePoint(0.0, 1.0), (-20.0, 20.0))
    assert rep == ref


def test_kernel_bv_audit_point_window(rq):
    rep = kernel_bv_audit(rq, HalfPlanePoint(0.0, 1.0), (3.0, 3.0))
    assert rep.V_Psi == 0.0 and rep.V_invPsi == 0.0


def test_kernel_pair_without_a_limit_raises_rather_than_nan():
    # Phi/e^t has no limit at -inf: the probes overflow to inf and the
    # Richardson estimates are NaN, which is refused, not returned
    with pytest.raises(TailBoundFailure, match="no stable limit"):
        kernel_pair(get_weight("exponential"), 1.0)
    with pytest.raises(TailBoundFailure, match="no stable limit"):
        poisson_halfplane(get_function("indicator_01"), get_weight("exponential"),
                          HalfPlanePoint(0.0, 1.0))


def test_kernel_pair_limits_of_constant_and_step_weights():
    # Phi_z -> 0 and these weights are bounded below: the limits are declared
    for w in (get_weight("constant", c=2.0), get_weight("step_weight")):
        assert kernel_pair(w, 0.7) == (0.0, 0.0)


def test_kernel_pair_probes_a_weight_without_a_declared_limit(rq):
    # reciprocal_quadratic's values and derivative, but no kernel_ratio_limit:
    # the limits come from probes at x = 0, once per batch, so a batch and
    # its one-point calls share their bits
    bare = Weight(lambda y: 1.0 / (np.asarray(y, dtype=float) ** 2 + 1.0),
                  derivative=lambda y: -2.0 * np.asarray(y, dtype=float)
                  / (np.asarray(y, dtype=float) ** 2 + 1.0) ** 2, label="bare")
    f = get_function("indicator_01")
    op, ref = HalfPlaneOperator(f, bare), HalfPlaneOperator(f, rq)
    xs = np.asarray([0.5, -1.0, 3.0, 40.0])
    for y in (0.01, 0.5, 2.0):
        lims = kernel_pair(bare, y)
        assert lims == pytest.approx((y / math.pi, y / math.pi), rel=1e-14)
        got = op.values(xs, y, 1e-6)
        assert list(got) == [op.value(HalfPlanePoint(x, y)) for x in xs.tolist()]
        assert got == pytest.approx(ref.values(xs, y, 1e-6), abs=1e-9)


def test_constant_weight_takes_a_float_and_no_jumps():
    # a manifest passes c as an int
    w = Weight.constant(2)
    assert type(w.constant_value) is float and w.constant_value == 2.0
    assert w.breakpoints().size == 0
    assert kernel_pair(w, 0.3) == (0.0, 0.0)
    assert Weight(ONE).constant_value is None


def test_kernel_bv_audit_needs_no_kernel_limit():
    # the audit reads Psi only, so a weight whose Psi has no limit at -inf
    # still gets its windowed variation
    rep = kernel_bv_audit(get_weight("exponential"), HalfPlanePoint(0.0, 1.0), (-5.0, 5.0))
    assert rep.V_Psi == 1.8168935010375222
    assert rep.bounded


# -- serialization and types ----------------------------------------------------------


def test_periodic_integrand_validation():
    # a spec error: a run records it for its scenario and goes on
    with pytest.raises(InvalidSpec, match=r"on \[0.0, 7.0\]"):
        PeriodicIntegrand(indicator(0.0, 7.0))


def test_poisson_csv_format(chi_half):
    reports = disc_boundary_convergence(chi_half, [0.9, 0.99])
    text = serialize_poisson_reports(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "param,gap,majorant,passed"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.9
