import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alexnorm.cli import serialize_gap_reports
from alexnorm.errors import InvalidSpec, NotAbsolutelyIntegrable, ToleranceNotMet
from alexnorm import norms, realfn, weights
from alexnorm.norms import (DecaySpec, SmoothBump, _sinc,
                            alexiewicz_norm, alexiewicz_norm_halfline, gap_sweep,
                            hk_not_l1_witness, one_norm, osc_lower_bound_check,
                            primitive_gap_l1, primitive_gap_norm, sinc_integrand,
                            slow_decay_construct, sweep_converged, translate,
                            translation_gap, verify_slow_decay)
from alexnorm.poisson import halfplane_weighted_convergence
from alexnorm.realfn import (ClosedFormPrimitive, Integrand, PiecewiseChebyshevPrimitive,
                             PiecewiseLinearPrimitive, build_primitive_from_pointwise,
                             gauss_nodes)
from alexnorm.registry import get_function, get_weight, indicator
from alexnorm.weights import Weight, product_integrand, weighted_gap_sweep, weighted_norm

INF = float("inf")
EPS = float(np.finfo(float).eps)

BUILTIN_NAMES = ("indicator_01", "ramp", "sinc_primitive", "gaussian", "bump",
                 "cosine", "step_signal")


def brute_norm(F, lo, hi, n=1001):
    """Independent oracle: sup over n^2 interval pairs of |F(b) - F(a)|."""
    xs = np.linspace(lo, hi, n)
    vals = np.concatenate([F.eval(xs), [F.limit_neg, F.limit_pos]])
    return float(np.abs(vals[:, None] - vals[None, :]).max())


# -- norms -------------------------------------------------------------------


def test_norm_indicator_vs_brute_force():
    f = get_function("indicator_01")
    assert alexiewicz_norm(f) == pytest.approx(1.0, abs=1e-12)
    assert alexiewicz_norm(f) == pytest.approx(
        brute_norm(f.primitive, -1.0, 2.0), abs=1e-9)


def test_norm_zero_function():
    z = Integrand(PiecewiseLinearPrimitive([0.0, 1.0], [0.0, 0.0]))
    assert alexiewicz_norm(z) == 0.0


def test_norm_step_signal():
    f = get_function("step_signal")
    assert alexiewicz_norm(f) == pytest.approx(1.0, abs=1e-12)
    assert alexiewicz_norm(f) == pytest.approx(
        brute_norm(f.primitive, -1.0, 3.0), abs=1e-9)


def test_halfline_norm_examples():
    assert alexiewicz_norm_halfline(get_function("indicator_01")) == 1.0
    f = get_function("step_signal")
    xs = np.linspace(-1.0, 3.0, 100001)
    oracle = float(np.abs(f.primitive.eval(xs)).max())
    assert alexiewicz_norm_halfline(f) == pytest.approx(oracle, abs=1e-9)


def test_norm_equivalence_bounds():
    for name in BUILTIN_NAMES:
        f = get_function(name)
        half = alexiewicz_norm_halfline(f)
        full = alexiewicz_norm(f)
        assert half <= full + 1e-12
        assert full <= 2.0 * half + 1e-12


# -- translation --------------------------------------------------------------


def test_translate_indicator():
    g = translate(get_function("indicator_01"), 1.0)
    assert g == indicator(1.0, 2.0)
    assert g.pointwise_or_derived()(np.asarray([1.5]))[0] == 1.0


def test_translate_zero_is_identity():
    f = get_function("indicator_01")
    assert translate(f, 0.0) is f


def test_translation_isometry():
    rng = np.random.default_rng(12345)
    for _ in range(30):
        name = BUILTIN_NAMES[int(rng.integers(len(BUILTIN_NAMES)))]
        x = float(rng.uniform(-5.0, 5.0))
        f = get_function(name)
        assert abs(alexiewicz_norm(translate(f, x)) - alexiewicz_norm(f)) <= 1e-12


def test_translation_gap_indicator_vs_brute_force():
    # oracle: brute-force sup over interval pairs of the difference primitive
    f = get_function("indicator_01")
    x = 0.25
    ys = np.linspace(-1.0, 2.5, 20001)
    H = f.primitive.eval(ys - x) - f.primitive.eval(ys)
    H = np.concatenate([H, [0.0]])
    oracle = float(H.max() - H.min())
    assert translation_gap(f, x) == pytest.approx(oracle, abs=1e-9)
    assert translation_gap(f, x) == pytest.approx(0.25, abs=1e-15)


def test_translation_gap_zero_shift():
    for name in BUILTIN_NAMES:
        assert translation_gap(get_function(name), 0.0) == 0.0


@given(st.sampled_from(BUILTIN_NAMES), st.floats(min_value=1e-3, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_translation_gap_symmetric(name, x):
    f = get_function(name)
    assert translation_gap(f, x) == pytest.approx(translation_gap(f, -x),
                                                  rel=1e-9, abs=1e-11)


def test_gap_sweep_indicator_closed_form():
    f = get_function("indicator_01")
    xs = [0.5, 0.25, 0.125, 0.0625]
    reports = gap_sweep(f, xs)
    assert [r.gap for r in reports] == xs  # gap(x) = x exactly for 0 < x < 1
    assert all(r.passed for r in reports)
    assert sweep_converged(reports, final_gap=0.1)


def test_gap_sweep_zero_function():
    z = Integrand(PiecewiseLinearPrimitive([0.0, 1.0], [0.0, 0.0]))
    assert all(r.gap == 0.0 for r in gap_sweep(z, [0.5, 0.1]))


def test_gap_sweep_sinc_decreasing():
    f = get_function("sinc_primitive")
    reports = gap_sweep(f, [2.0 ** -k for k in range(1, 9)])
    gaps = [r.gap for r in reports]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    assert gaps[-1] < 1e-2


def test_gap_triangle_bound_invariant():
    for name in BUILTIN_NAMES:
        for r in gap_sweep(get_function(name), [1.3, 0.37, 0.01]):
            assert r.gap <= r.bound_upper + 1e-9


def test_gap_report_serialization_order():
    f = get_function("indicator_01")
    text = serialize_gap_reports(gap_sweep(f, [0.125, 0.5, 0.25]))
    lines = text.strip().splitlines()
    assert lines[0] == "x,gap,bound_lower,bound_upper,passed"
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == [0.5, 0.25, 0.125]
    # 17 significant digits round-trip
    assert float(lines[1].split(",")[1]) == 0.5


# -- slow decay ---------------------------------------------------------------


def test_decay_envelopes_dominate():
    # the envelope chain is certified at the construction's own sample points
    spec = DecaySpec(lambda x: np.asarray(x, dtype=float), 64)
    xs = spec.samples
    psi = xs
    assert np.all(spec.psi1(xs) >= psi - 1e-15)
    assert np.all(spec.psi2(xs) >= psi - 1e-15)
    assert np.all(spec.psi3(xs) >= psi - 1e-15)
    # psi1 nondecreasing, psi3 nondecreasing and continuous on the mesh
    assert np.all(np.diff(spec.psi1(xs)) >= -1e-15)
    assert np.all(np.diff(spec.psi3(xs)) >= -1e-15)


def test_decay_construct_linear_target():
    spec = DecaySpec(lambda x: np.asarray(x, dtype=float), 64)
    f = slow_decay_construct(spec)
    fp = f.pointwise_or_derived()
    assert np.all(fp(np.linspace(0.01, 0.99, 500)) >= -1e-12)  # f >= 0
    for n in (2, 5, 17, 64):
        x = 1.0 / n
        assert translation_gap(f, x) >= x - 1e-12


def test_decay_construct_sqrt_target():
    spec = DecaySpec(lambda x: np.sqrt(np.asarray(x, dtype=float)), 256)
    f = slow_decay_construct(spec)
    for n in (2, 3, 100, 256):
        x = 1.0 / n
        assert f.primitive.eval(x) >= math.sqrt(x) - 1e-12
        assert translation_gap(f, x) >= math.sqrt(x) - 1e-12


def test_decay_reports():
    spec = DecaySpec(lambda x: np.sqrt(np.asarray(x, dtype=float)), 256)
    f = slow_decay_construct(spec)
    reports = verify_slow_decay(f, spec, [0.25, 1.0 / 16, 1.0 / 64])
    assert all(r.passed for r in reports)
    assert all(r.bound_lower is not None for r in reports)
    # x = 1 is outside "sufficiently small" but still reported
    big = verify_slow_decay(f, spec, [1.0])
    assert len(big) == 1 and big[0].passed
    # below the truncation point: informational, no bound claimed
    tiny = verify_slow_decay(f, spec, [1.0 / 1024])
    assert tiny[0].bound_lower is None and tiny[0].passed


def test_decay_dominates_smaller_target():
    spec_big = DecaySpec(lambda x: np.asarray(x, dtype=float), 64)
    spec_small = DecaySpec(lambda x: 0.5 * np.asarray(x, dtype=float), 64)
    f = slow_decay_construct(spec_big)
    reports = verify_slow_decay(f, spec_small, [0.5, 0.25, 1.0 / 32])
    assert all(r.passed for r in reports)


def test_decay_invalid_targets():
    with pytest.raises(InvalidSpec):
        DecaySpec(lambda x: np.ones_like(np.asarray(x, dtype=float)), 64)
    with pytest.raises(InvalidSpec):
        DecaySpec(lambda x: -np.sqrt(np.asarray(x, dtype=float)), 64)
    with pytest.raises(InvalidSpec):
        DecaySpec(lambda x: np.sqrt(np.asarray(x, dtype=float)), 1)


# -- bump oscillation bound -----------------------------------------------------


def test_bump_constants_against_dense_grid():
    b = SmoothBump()
    t = np.linspace(-1 + 1e-12, 1 - 1e-12, 2_000_001)
    phi = np.exp(-1.0 / (1.0 - t * t))
    dphi = phi * (-2.0 * t) / (1.0 - t * t) ** 2
    assert b.osc() == pytest.approx(float(phi.max()), abs=1e-12)
    assert b.derivative_sup() == pytest.approx(float(np.abs(dphi).max()), abs=1e-9)


def test_osc_lower_bound_check_standard_bump():
    reports = osc_lower_bound_check(SmoothBump(), [0.1, 0.01])
    assert all(r.passed for r in reports)
    b = SmoothBump()
    for r in reports:
        assert abs(r.gap / r.x - b.osc()) <= 2.0 * b.derivative_sup() * r.x + 1e-6


def test_osc_bound_zero_amplitude():
    reports = osc_lower_bound_check(SmoothBump(amplitude=0.0), [0.1])
    assert reports[0].gap == pytest.approx(0.0, abs=1e-12)
    assert reports[0].bound_lower == 0.0 and reports[0].bound_upper == 0.0
    assert reports[0].passed


def test_osc_bound_clamped_lower():
    # narrow bump at a large shift: osc*|x| - 2 sup|f'| x^2 < 0, clamped to 0
    b = SmoothBump(halfwidth=0.05)
    reports = osc_lower_bound_check(b, [0.5])
    assert reports[0].bound_lower == 0.0
    assert reports[0].passed


# -- shifted-primitive estimates ------------------------------------------------


def window_oracle(F, x, lo, hi, n=4001, m=800):
    """Independent oracle for ||tau_x F - F||: dense moving-window integrals of
    F by the composite midpoint rule, oscillation over a dense grid."""
    a_grid = np.linspace(lo, hi, n)
    W = np.empty(n)
    for i, a in enumerate(a_grid):
        ts = np.linspace(a - x, a, m + 1)
        mids = 0.5 * (ts[1:] + ts[:-1])
        W[i] = float(np.sum(F.eval(mids)) * (ts[1] - ts[0]))
    W = np.concatenate([W, [x * F.limit_neg, x * F.limit_pos]])
    return float(W.max() - W.min())


def test_primitive_gap_norm_indicator():
    f = get_function("indicator_01")
    x = 0.5
    got = primitive_gap_norm(f, x)
    assert 0.0 < got <= alexiewicz_norm(f) * x + 1e-12
    assert got == pytest.approx(window_oracle(f.primitive, x, -1.0, 2.5), abs=1e-6)


def test_primitive_gap_norm_zero_shift():
    assert primitive_gap_norm(get_function("gaussian"), 0.0) == 0.0


def test_primitive_gap_norm_sinc_finite():
    f = sinc_integrand()
    val = primitive_gap_norm(f, 1.0)
    assert math.isfinite(val) and val > 0
    assert val <= alexiewicz_norm(f) * 1.0 + 1e-9


def test_primitive_gap_norm_bound_across_builtins():
    for name in ("indicator_01", "ramp", "gaussian", "step_signal", "bump"):
        f = get_function(name)
        norm = alexiewicz_norm(f)
        for x in (0.5, 0.1, 0.01):
            assert primitive_gap_norm(f, x) <= norm * x + 1e-9


def test_primitive_gap_l1_indicator():
    f = get_function("indicator_01")
    # hat-shaped |difference|: exact area x for 0 < x < 1, then linear ramp
    assert primitive_gap_l1(f, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert primitive_gap_l1(f, 0.0) == 0.0
    assert primitive_gap_l1(f, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert primitive_gap_l1(f, 2.0) <= one_norm(f) * 2.0 + 1e-12


def test_primitive_gap_l1_bound_across_builtins():
    for name in ("indicator_01", "ramp", "gaussian", "step_signal", "bump"):
        f = get_function(name)
        n1 = one_norm(f)
        for x in (0.5, 0.1):
            assert primitive_gap_l1(f, x) <= n1 * x + 1e-9


def test_table_and_its_degree_zero_twin_agree():
    # a table is the panel primitive with one constant row of f per node interval
    xs = np.asarray([-1.0, 0.0, 0.4, 2.0, 3.0])
    ys = np.asarray([0.0, 1.5, -0.3, 0.7, 0.2])
    table = Integrand(PiecewiseLinearPrimitive(xs, ys))
    twin = Integrand(PiecewiseChebyshevPrimitive(xs, (np.diff(ys) / np.diff(xs))[:, None],
                                                 F_edge0=ys[0]))
    for op in (alexiewicz_norm, one_norm):
        assert op(twin) == pytest.approx(op(table), abs=1e-13)
    for x in (0.3, -1.7, 4.5):
        for op in (translation_gap, primitive_gap_norm, primitive_gap_l1):
            assert op(twin, x) == pytest.approx(op(table, x), abs=1e-13)
    u, v = np.asarray([-2.0, -0.5, 0.1, 1.0]), np.asarray([-1.5, 0.3, 2.9, 4.0])
    assert np.allclose(twin.primitive.window_integral(u, v),
                       table.primitive.window_integral(u, v), rtol=0.0, atol=1e-13)


_SHIFT_ENTRY_POINTS = {
    "translate_table": lambda x: translate(indicator(0.0, 1.0), x),
    "translate_panels": lambda x: alexiewicz_norm(translate(get_function("bump"), x)),
    "translation_gap": lambda x: translation_gap(get_function("bump"), x),
    "translation_gap_sinc": lambda x: translation_gap(sinc_integrand(), x),
    "gap_sweep": lambda x: gap_sweep(indicator(0.0, 1.0), [0.5, x]),
    "primitive_gap_norm": lambda x: primitive_gap_norm(indicator(0.0, 1.0), x),
    "primitive_gap_l1": lambda x: primitive_gap_l1(indicator(0.0, 1.0), x),
    "weighted_gap_sweep": lambda x: weighted_gap_sweep(
        indicator(0.0, 1.0), get_weight("reciprocal_quadratic"), [0.5, x]),
    "hk_not_l1_witness": hk_not_l1_witness,
}


@pytest.mark.parametrize("x", [float("nan"), INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(_SHIFT_ENTRY_POINTS))
def test_non_finite_shift_is_invalid_spec(entry, x):
    with pytest.raises(InvalidSpec, match=f"shift x = {x!r} is not finite"):
        _SHIFT_ENTRY_POINTS[entry](x)


def test_primitive_gap_l1_rejects_sinc():
    with pytest.raises(NotAbsolutelyIntegrable):
        primitive_gap_l1(sinc_integrand(), 1.0)


def trig_window_oracle(omega, phase, a, b, x):
    """(norm, L1) of the primitive gap of f = sin(omega y + phase) on [a, b],
    0 < x < b - a, from the closed-form antiderivative of F and the closed-form
    zeros of W' = F - F(. - x) on [a, a + x], [a + x, b] and [b, b + x]."""
    C0 = math.cos(omega * a + phase)
    Fb = (C0 - math.cos(omega * b + phase)) / omega

    def S(t):  # the integral of F from a to t
        u = np.clip(t, a, b)
        inner = (C0 * (u - a) - (np.sin(omega * u + phase)
                                 - math.sin(omega * a + phase)) / omega) / omega
        return inner + np.maximum(t - b, 0.0) * Fb

    k = 2.0 * math.pi * np.arange(-int(omega * (b - a)) - 4, int(omega * (b - a)) + 4)
    t = np.concatenate([[a, a + x, b, b + x], (k + omega * x - 2.0 * phase) / (2.0 * omega)]
                       + [(s * (omega * a + phase) - phase + k) / omega for s in (1, -1)]
                       + [x + (s * (omega * b + phase) - phase + k) / omega for s in (1, -1)])
    t = np.unique(t[(t >= a) & (t <= b + x)])
    W = S(t) - S(t - x)
    norm = max(W.max(), 0.0, x * Fb) - min(W.min(), 0.0, x * Fb)
    return float(norm), float(np.abs(np.diff(W)).sum())


def test_primitive_gaps_exact_on_long_chebyshev_support():
    # 1300 panels: the zeros of W' come from derivative roots, not a fill grid
    f = lambda y: np.sin(5.0 * np.asarray(y, dtype=float) + 0.3)
    P = build_primitive_from_pointwise(f, (-80.0, 80.0), 1e-10)
    g = Integrand(P, f)
    norm, l1 = trig_window_oracle(5.0, 0.3, -80.0, 80.0, 0.5)
    assert primitive_gap_norm(g, 0.5) == pytest.approx(norm, rel=1e-10, abs=0.0)
    assert primitive_gap_l1(g, 0.5) == pytest.approx(l1, rel=1e-10, abs=0.0)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) > 1e-3))
@settings(max_examples=30, deadline=None)
def test_translation_gap_brackets_dense_grid(seed, x):
    # random polynomial densities on random panels: the root engine is never
    # below a dense sampling of H = F(.-x) - F, and never above it by more
    # than H's Lipschitz constant 2 sup|f| times the grid spacing
    rng = np.random.default_rng(seed)
    edges = np.cumsum(np.concatenate([[rng.uniform(-3.0, 0.0)],
                                      rng.uniform(0.05, 2.0, rng.integers(1, 6))]))
    fc = rng.uniform(-1.0, 1.0, (len(edges) - 1, rng.integers(1, 8)))
    F = PiecewiseChebyshevPrimitive(edges, fc)
    ys = np.linspace(min(edges[0], edges[0] + x), max(edges[-1], edges[-1] + x), 2 ** 15 + 1)
    H = np.concatenate([F.eval(ys - x) - F.eval(ys), [0.0]])
    sup_f = float(np.abs(fc).sum(axis=1).max())
    gap = translation_gap(Integrand(F), x)
    assert gap >= H.max() - H.min() - 1e-13
    assert gap <= H.max() - H.min() + 2.0 * sup_f * (ys[1] - ys[0])


def test_piecewise_polynomial_data_needs_no_grid_search(monkeypatch):
    table = PiecewiseLinearPrimitive([-1.0, 0.0, 0.5, 2.0], [0.0, 1.0, -0.5, 0.25])
    inputs = [Integrand(table, table.pointwise_derived()), get_function("ramp"),
              get_function("bump")]
    f01, rq = get_function("indicator_01"), get_weight("reciprocal_quadratic")

    def no_grid(*args, **kwargs):
        raise AssertionError("grid search or adaptive rebuild on piecewise-polynomial data")

    for target in ("alexnorm.realfn.grid_extrema",
                   "alexnorm.norms.build_primitive_from_pointwise"):
        monkeypatch.setattr(target, no_grid)
    # weights binds no grid_extrema of its own; a binding put back there is caught too
    monkeypatch.setattr("alexnorm.weights.grid_extrema", no_grid, raising=False)
    for f in inputs:
        assert alexiewicz_norm(f) > 0.0
        assert len(gap_sweep(f, [0.5, -0.25])) == 2
        assert primitive_gap_norm(f, 0.5) > 0.0
        assert primitive_gap_l1(f, 0.5) > 0.0
    assert all(r.passed for r in weighted_gap_sweep(f01, rq, [0.5, 0.1]))
    row, = halfplane_weighted_convergence(f01, rq, [1.0], (-4.0, 4.0))
    assert row.gap <= row.bound_upper


def test_one_norm_values():
    assert one_norm(get_function("indicator_01")) == 1.0
    assert one_norm(get_function("step_signal")) == 2.0
    assert one_norm(get_function("gaussian")) == pytest.approx(
        math.sqrt(math.pi), abs=1e-8)


# -- the HK-but-not-L1 witness ---------------------------------------------------


def test_witness_at_pi():
    rep = hk_not_l1_witness(math.pi)
    assert rep.tail_coefficient_sin == pytest.approx(-2.0, abs=1e-12)
    assert rep.tail_coefficient_cos == pytest.approx(0.0, abs=1e-12)
    assert rep.abs_integral_diverges
    assert rep.r_squared >= 0.999
    assert rep.log_slope > 0
    assert rep.alexiewicz_finite


def test_witness_at_two_pi_inconclusive():
    rep = hk_not_l1_witness(2.0 * math.pi)
    assert abs(rep.tail_coefficient_sin) < 1e-12
    assert abs(rep.tail_coefficient_cos) < 1e-12
    assert rep.certificate == "inconclusive"
    assert not rep.abs_integral_diverges


def test_witness_small_shift_coefficients():
    rep = hk_not_l1_witness(0.1)
    assert rep.tail_coefficient_sin == pytest.approx(math.cos(0.1) - 1.0, abs=1e-15)
    assert rep.tail_coefficient_cos == pytest.approx(-math.sin(0.1), abs=1e-15)


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_sinc_matches_numpy_sinc_bit_for_bit():
    rng = np.random.default_rng(4)
    special = np.asarray([0.0, -0.0, INF, -INF, float("nan"), 1e-300, -5e-324, np.pi,
                          -np.pi, 1e300, 2.0 ** 60])
    ys = np.concatenate([special, rng.uniform(-400.0, 400.0, 2000),
                         rng.standard_normal(500) * 1e-8])
    with np.errstate(invalid="ignore"):
        assert _same_bits(_sinc(ys), np.sinc(ys / np.pi))
        grid = ys[:2000].reshape(40, 50)
        assert _same_bits(_sinc(grid), np.sinc(grid / np.pi))
        for y in (0.0, -0.0, 2.5, -7.0, INF, 0, 3):
            got, want = _sinc(y), np.sinc(np.asarray(y, dtype=float) / np.pi)
            assert type(got) is type(want) and _same_bits(got, want), y
        kept = ys.copy()
        _sinc(ys)
    assert _same_bits(ys, kept)  # the input is not written to


def test_closed_form_proxy_is_built_once_and_shared_by_shifts(monkeypatch):
    # norm, gaps and primitive gaps of a closed form and of its shifted copies
    # read one Chebyshev proxy of F, built on first use on the unshifted window
    calls = []
    inner = realfn.build_primitive_from_pointwise

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(realfn, "build_primitive_from_pointwise", counted)
    F = ClosedFormPrimitive(_sinc, 0.0, 0.0, scan=(-400.0, 400.0))
    f = Integrand(F, None)
    first = primitive_gap_norm(f, math.pi)
    assert calls == [(-400.0, 400.0)]
    moved = F.shifted(2.0)
    g = Integrand(moved, None)
    assert alexiewicz_norm(g) == alexiewicz_norm(f)
    assert translation_gap(g, 0.5) > 0.0 and translation_gap(f, 0.5) > 0.0
    assert primitive_gap_norm(g, math.pi) == pytest.approx(first, abs=1e-15)
    assert primitive_gap_norm(f, -math.pi) == first
    assert len(calls) == 1
    edges, rows, below, above = F.search_pieces(False)
    m_edges, m_rows, m_below, m_above = moved.search_pieces(False)
    assert m_rows is rows and np.array_equal(m_edges, edges + 2.0)
    assert (below, above) == (m_below, m_above) == (0.0, 0.0)
    assert moved.search_pieces(True)[1] is F.search_pieces(True)[1]
    F._extrema_cache.clear()
    assert primitive_gap_norm(f, math.pi) == first
    assert len(calls) == 2


def test_closed_form_proxy_rows_are_F_and_f():
    # the proxy's F rows follow F to about its build tolerance, and their
    # derivative rows follow f
    F = get_function("sinc_primitive").primitive
    edges, Fc, _, _ = F.search_pieces(False)
    edges_f, fc, below, above = F.search_pieces(True)
    assert np.array_equal(edges, edges_f) and (below, above) == (0.0, 0.0)
    ys = np.linspace(-399.0, 399.0, 4001)
    F_rows = PiecewiseChebyshevPrimitive(edges, Fc).pointwise_derived()
    f_rows = PiecewiseChebyshevPrimitive(edges, fc).pointwise_derived()
    assert np.abs(F_rows(ys) - F.eval(ys)).max() < 1e-6
    assert np.abs(f_rows(ys) - sinc_integrand().pointwise(ys)).max() < 1e-4


def _window_integral_per_row(F, u, v):
    # reference: one np.dot per window over gauss_nodes(48), on the window's
    # part inside F's declared support, plus limit x length for the parts outside
    nodes, wts = gauss_nodes(48)
    lo, hi = F.support if F.support is not None else (-INF, INF)
    out = []
    for s, t in zip(u, v):
        a, b = min(max(s, lo), hi), min(max(t, lo), hi)
        hw = 0.5 * (b - a)
        val = np.dot(hw * F.eval(0.5 * (a + b) + hw * nodes), wts)
        if F.support is not None:
            val = (val + (F.limit_neg if s < lo else F.limit_pos) * (a - s)
                   + (F.limit_neg if t < lo else F.limit_pos) * (t - b))
        out.append(val)
    return np.array(out)


@pytest.mark.parametrize("name", ["sinc_primitive", "gaussian", "cosine"])
def test_closed_form_window_values_match_per_row_dot(name):
    # each window integral keeps np.dot's bits, alone or in a batch of any size
    F = get_function(name).primitive
    x = math.pi
    for n in (1, 2, 1023, 1024, 1025, 3 * 1024 + 1):
        v = np.linspace(-12.0, 15.0, n)
        got = F.window_integral(v - x, v)
        assert got.shape == (n,)
        assert np.array_equal(got, _window_integral_per_row(F, v - x, v))
        for k in {0, n // 2, n - 1}:
            assert np.array_equal(F.window_integral(v[k:k + 1] - x, v[k:k + 1]), got[k:k + 1])
            one = F.window_integral(v[k] - x, v[k])
            assert type(one) is float and one == got[k]


def test_gauss_nodes_are_gauss_legendre():
    # numpy's nodes, with weights within 3e-16 of 40-digit mpmath (numpy's
    # own weights are off by up to 3.9e-15 at 48 nodes); the 48-node rule
    # integrates x^k exactly for k <= 95 to rounding
    import mpmath
    for n in (8, 16, 48):
        nodes, wts = gauss_nodes(n)
        assert np.array_equal(nodes, np.polynomial.legendre.leggauss(n)[0])
        assert np.array_equal(wts, wts[::-1])
        with mpmath.workdps(40):
            exact = [2 / ((1 - mpmath.mpf(x) ** 2) * mpmath.diff(lambda t: mpmath.legendre(n, t),
                                                                  mpmath.mpf(x)) ** 2)
                     for x in nodes]
        assert max(abs(float(e - w)) for e, w in zip(exact, wts)) <= 3e-16
    for k in (0, 2, 10, 40, 94):
        assert abs(np.dot(wts, nodes ** k) - 2.0 / (k + 1)) < 4e-16


def test_closed_form_window_clipped_at_declared_support():
    # F is sin on [-pi, pi] and 0 outside, so W = F(.-x) - F has the closed-form
    # spread 4 sin(min(x, pi)/2); windows that straddle +-pi must not put the
    # 48-node rule across F's kink there
    f = get_function("cosine")
    for x in np.linspace(0.05, 10.0, 200):
        exact = 4.0 * math.sin(min(x, math.pi) / 2.0)
        assert abs(primitive_gap_norm(f, x) - exact) <= 8 * EPS, x


def test_gaussian_primitive_takes_scalars_and_arrays():
    # math.erf, applied elementwise: a scalar gives a float, an array its values
    F = get_function("gaussian").primitive
    one = F.func(0.5)
    assert isinstance(one, float)
    assert one == 0.5 * math.sqrt(math.pi) * (1.0 + math.erf(0.5))
    ys = np.linspace(-6.0, 6.0, 101)
    got = F.func(ys)
    assert got.shape == ys.shape and got.dtype == float
    assert np.array_equal(got, [F.func(y) for y in ys])
    assert np.array_equal(got, [0.5 * math.sqrt(math.pi) * (1.0 + math.erf(y)) for y in ys])


def test_closed_form_primitive_gap_norm_peak_memory():
    # the proxy's windows, 48 nodes each, need no temporary of several MiB
    F = ClosedFormPrimitive(_sinc, 0.0, 0.0, scan=(-400.0, 400.0))
    tracemalloc.start()
    try:
        primitive_gap_norm(Integrand(F, None), math.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


# -- closed forms against 40-digit mpmath ---------------------------------------------

C02_LADDER = [0.5 / 2 ** k for k in range(10)]


def _closed_form_oracle(name):
    """F, its antiderivative S and the jumps of f, in mpmath and in numpy (the
    numpy ones only place and rank the candidates), F's limits and a window
    holding the extrema."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import sici
    pi = math.pi
    if name == "sinc_primitive":
        def d_np(y):
            t = np.where(y == 0.0, 1.0, y)
            return np.where(y == 0.0, 0.0, np.cos(t) / t - np.sin(t) / t ** 2)
        return (lambda y: mpmath.sin(y) / y if y else mpmath.mpf(1), mpmath.si,
                lambda y: np.sinc(y / pi), d_np, lambda y: sici(y)[0], (0, 0), (), 60.0)
    if name == "gaussian":
        erf = np.vectorize(math.erf, otypes=[float])
        return (lambda y: mpmath.sqrt(mpmath.pi) / 2 * (1 + mpmath.erf(y)),
                lambda y: (mpmath.sqrt(mpmath.pi) / 2 * (y + y * mpmath.erf(y))
                           + mpmath.exp(-y * y) / 2),
                lambda y: 0.5 * math.sqrt(pi) * (1.0 + erf(y)), lambda y: np.exp(-y * y),
                lambda y: 0.5 * math.sqrt(pi) * (y + y * erf(y)) + 0.5 * np.exp(-y * y),
                (0, mpmath.sqrt(mpmath.pi)), (), 12.0)
    inside = lambda y: np.abs(y) <= pi
    return (lambda y: mpmath.sin(y) if abs(y) <= mpmath.pi else mpmath.mpf(0),
            lambda y: -mpmath.cos(min(max(y, -mpmath.pi), mpmath.pi)),
            lambda y: np.where(inside(y), np.sin(y), 0.0),
            lambda y: np.where(inside(y), np.cos(y), 0.0),
            lambda y: -np.cos(np.clip(y, -pi, pi)), (0, 0), (-pi, pi), 8.0)


def _oracle_osc(h_np, dh_np, h_mp, lo, hi, extra, limits):
    """sup - inf of h over the line at 40 digits: h at the double-precision
    roots of dh (bisected from the sign changes on a grid) and at extra, the
    three largest and three smallest by double value, with the limits."""
    import mpmath
    ys = np.linspace(lo, hi, 20001)
    d = dh_np(ys)
    i = np.flatnonzero(np.sign(d[1:]) * np.sign(d[:-1]) < 0)
    a, b, sa = ys[i], ys[i + 1], np.sign(d[i])
    for _ in range(60):
        m = 0.5 * (a + b)
        left = np.sign(dh_np(m)) == sa
        a, b = np.where(left, m, a), np.where(left, b, m)
    cand = np.r_[a, ys[1:-1][(d[1:-1] == 0.0) & (d[:-2] != 0.0) & (d[2:] != 0.0)], extra]
    order = np.argsort(h_np(cand))
    with mpmath.workdps(40):
        vals = [h_mp(mpmath.mpf(float(t))) for t in cand[np.r_[order[:3], order[-3:]]]]
        vals += [mpmath.mpf(v) for v in limits]
        return float(max(vals) - min(vals)), float(2 * max(abs(v) for v in vals))


@pytest.mark.parametrize("name", ["sinc_primitive", "gaussian", "cosine"])
def test_closed_form_values_match_the_mpmath_oracle(name):
    # candidates placed by the proxy, values from the closed form: the norm,
    # c02's gap ladder with its triangle bound, and the primitive gaps each
    # lie within 4 eps max(1, |oracle|) of 40-digit mpmath
    import mpmath
    F_mp, S_mp, F_np, f_np, S_np, limits, jumps, L = _closed_form_oracle(name)
    f = get_function(name)
    F = f.primitive
    F._extrema_cache.clear()
    jumps = np.asarray(jumps, dtype=float)
    close = lambda got, want: abs(got - want) <= 4 * EPS * max(1.0, abs(want))

    want, _ = _oracle_osc(F_np, f_np, F_mp, -L, L, jumps, limits)
    assert close(alexiewicz_norm(f), want)
    for r in gap_sweep(f, C02_LADDER):
        x = r.x
        gap, bound = _oracle_osc(lambda y: F_np(y - x) - F_np(y),
                                 lambda y: f_np(y - x) - f_np(y),
                                 lambda y: F_mp(y - x) - F_mp(y),
                                 -L, L + x, np.r_[jumps, jumps + x], (0, 0))
        assert close(r.gap, gap) and close(r.bound_upper, bound), x
    for x in (math.pi, 1.0, 0.5):
        xm = mpmath.mpf(x)
        want, _ = _oracle_osc(lambda a: S_np(a) - S_np(a - x),
                              lambda a: F_np(a) - F_np(a - x),
                              lambda a: S_mp(a) - S_mp(a - xm),
                              -L, L + x, np.r_[jumps, jumps + x],
                              (0, x * float(limits[0]), x * float(limits[1])))
        assert close(primitive_gap_norm(f, x), want), x


@pytest.mark.parametrize("c", [1e-8, 3.0, 1e8])
@pytest.mark.parametrize("name", ["sinc_primitive", "Si"])
def test_closed_form_values_scale_with_a_constant_weight(name, c):
    # the proxy's build tolerance follows the spread of F, so under
    # Weight.constant(c) the norm, c02's gap ladder and the primitive gaps
    # are c times those under weight 1, within 4 eps c max(1, |value|): the
    # c * F(y - x) - c * F(y) of a small shift cancels to that floor.  A
    # fixed tolerance took one coarse panel for 1e-8 Si, whose derivative
    # roots miss the peak at pi, and could not be met for 1e8 Si.
    if name == "Si":
        sici = pytest.importorskip("scipy.special").sici
        F = ClosedFormPrimitive(lambda y: sici(y)[0], -math.pi / 2, math.pi / 2,
                                scan=(-400.0, 400.0))
        f = Integrand(F, None)
    else:
        f = get_function(name)
    w = Weight.constant(c)
    fw = product_integrand(f, w)
    close = lambda got, want: abs(got - c * want) <= 4 * EPS * c * max(1.0, abs(want))
    assert close(weighted_norm(f, w), alexiewicz_norm(f))
    for r, r1 in zip(weighted_gap_sweep(f, w, C02_LADDER), gap_sweep(f, C02_LADDER)):
        assert r.x == r1.x
        assert close(r.gap, r1.gap) and close(r.bound_upper, r1.bound_upper), r.x
    for x in (math.pi, 1.0, 0.5):
        assert close(primitive_gap_norm(fw, x), primitive_gap_norm(f, x)), x


def test_closed_forms_need_no_grid_search(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid search or bounded minimization on a closed form")

    monkeypatch.setattr(realfn, "grid_extrema", no_grid)
    monkeypatch.setattr(realfn, "minimize_scalar", no_grid)
    for name in ("sinc_primitive", "gaussian", "cosine"):
        f = get_function(name)
        f.primitive._extrema_cache.clear()
        assert alexiewicz_norm(f) > 0.0
        assert len(gap_sweep(f, [0.5, -0.25, 2.0 ** -10])) == 3
        assert primitive_gap_norm(f, math.pi) > 0.0


def test_closed_form_with_nan_values_raises():
    # NaN on part of the window is refused by the proxy's build, not turned
    # into a NaN norm, gap or primitive gap
    def F_eval(y):
        y = np.asarray(y, dtype=float)
        return np.where(y > 1.0, np.nan, np.sin(y))

    for call in (alexiewicz_norm, lambda f: translation_gap(f, 0.5),
                 lambda f: primitive_gap_norm(f, 0.5)):
        f = Integrand(ClosedFormPrimitive(F_eval, 0.0, 0.0, scan=(-4.0, 4.0)), None)
        with pytest.raises(ToleranceNotMet, match="not finite"):
            call(f)


# -- bound-pruned extrema ----------------------------------------------------------
#
# Extrema solve for derivative roots only on the merged panels whose bound can
# reach the edge extrema; variations still take every root.  The reference is
# the unpruned routine, value taken at every critical point.


def _every_root_extrema(terms, value, *limits):
    v = np.r_[value(realfn._critical_points(terms)), limits]
    return float(v.min()), float(v.max())


def _random_primitive(kind, rng):
    if kind == "panels":  # decaying coefficient rows of degree 2 to 16, as fits have
        edges = np.cumsum(np.r_[rng.uniform(-4.0, 0.0), rng.uniform(0.05, 2.0, rng.integers(1, 12))])
        n = rng.integers(3, 18)
        fc = rng.standard_normal((len(edges) - 1, n)) * 0.6 ** np.arange(n)
        return PiecewiseChebyshevPrimitive(edges, fc, rng.uniform(-1.0, 1.0))
    if kind == "table":
        xs = np.sort(rng.uniform(-3.0, 3.0, 48))
        return PiecewiseLinearPrimitive(xs, np.cumsum(rng.standard_normal(48)) / 8.0)
    return get_function(kind).primitive.shifted(rng.uniform(-1.0, 1.0))


@given(st.sampled_from(["panels", "table", "sinc_primitive", "gaussian", "cosine"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=40),
       st.floats(min_value=1.0, max_value=2.0, exclude_max=True), st.booleans())
@settings(max_examples=80, deadline=None)
def test_pruned_extrema_equal_every_root_bit_for_bit(kind, seed, k, mantissa, negative):
    # H = F(.-x) - F, W(a) = the integral of F over [a-x, a], and F itself:
    # pruning never drops the candidate that holds the min or the max
    F = _random_primitive(kind, np.random.default_rng(seed))
    x = math.ldexp(mantissa, -k) * (-1.0 if negative else 1.0)
    f = F.search_pieces(True)
    want = _every_root_extrema([(1.0, x, f), (-1.0, 0.0, f)],
                               lambda t: F.eval(t - x) - F.eval(t), 0.0)
    assert _same_bits(norms._difference_extrema(F, x), want)
    Fp, ax = F.search_pieces(False), abs(x)
    lo, hi = _every_root_extrema([(1.0, 0.0, Fp), (-1.0, ax, Fp)],
                                 lambda a: F.window_integral(a - ax, a),
                                 ax * F.limit_neg, ax * F.limit_pos)
    assert _same_bits(primitive_gap_norm(Integrand(F), x), hi - lo)
    if isinstance(F, ClosedFormPrimitive):
        F._extrema_cache.pop("ext", None)
        edges, _, fc, _ = F._proxy()
        want = _every_root_extrema([(1.0, 0.0, (edges, fc, 0.0, 0.0))],
                                   lambda t: realfn._call_vec(F.func, t),
                                   F.limit_neg, F.limit_pos)
        assert _same_bits(F.extrema(), want)


@given(st.sampled_from(["bump", "gaussian", "indicator_01", "panels"]),
       st.sampled_from(["reciprocal_quadratic", "exponential"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=40),
       st.floats(min_value=1.0, max_value=2.0, exclude_max=True))
@settings(max_examples=12, deadline=None)
def test_pruned_weighted_gap_equals_every_root_bit_for_bit(name, wname, seed, k, mantissa):
    # D = G(.-x) - G + C_x(.-x) for the product primitive G and the ratio
    # correction C_x, against D at every critical point
    if name == "panels":
        F = _random_primitive(name, np.random.default_rng(seed))
        f = Integrand(F, F.pointwise_derived())
    else:
        f = get_function(name)
    w = get_weight(wname)
    x = math.ldexp(mantissa, -k)
    G = product_integrand(f, w).primitive
    gap, C = weights._weighted_gap_single(f, weights._resolve_pointwise(f), w, G, x, 1e-10)
    g = G.pieces(True)
    lo, hi = _every_root_extrema([(1.0, x, g), (-1.0, 0.0, g), (1.0, x, C.pieces(True))],
                                 lambda t: G.eval(t - x) - G.eval(t) + C.eval(t - x),
                                 0.0, C.limit_pos)
    assert _same_bits(gap, hi - lo)


def _count_colleague_rows(monkeypatch):
    rows = []
    eigvals = realfn.np.linalg.eigvals

    def counted(A):
        rows.append(len(A))
        return eigvals(A)

    monkeypatch.setattr(realfn.np.linalg, "eigvals", counted)
    return rows


def test_gaps_solve_few_colleague_matrices(monkeypatch):
    # the canonical sinc ladder and witness gaps: 2558 and 787 rows when
    # every panel that may hold a root solves its colleague matrix
    f = sinc_integrand()
    f.primitive._extrema_cache.clear()
    f.primitive.search_pieces(True)  # the proxy's build solves no colleague matrix
    rows = _count_colleague_rows(monkeypatch)
    gap_sweep(f, [2.0 ** -k for k in range(1, 11)])
    assert 0 < sum(rows) <= 100
    rows.clear()
    for x in (math.pi, 1.0, 0.5):
        primitive_gap_norm(f, x)
    assert 0 < sum(rows) <= 100


def test_variations_take_every_root(monkeypatch):
    # L1 gaps and total variations sum |increments| over every critical point:
    # they never reach the pruning helper, and match brute-force references
    def no_pruning(*args):
        raise AssertionError("a variation reached the pruned extremum search")

    monkeypatch.setattr(realfn, "_extreme_values", no_pruning)
    monkeypatch.setattr(norms, "_extreme_values", no_pruning)
    rng = np.random.default_rng(30)
    xs = np.sort(rng.uniform(-3.0, 3.0, 48))
    ys = np.cumsum(rng.standard_normal(48)) / 8.0
    table = Integrand(PiecewiseLinearPrimitive(xs, ys))
    for x in (0.37, 1.5, -2.0 ** -20):
        # H = F(.-x) - F is linear between merged nodes: integrate |H| exactly
        t = np.union1d(xs, xs + x)
        h = np.interp(t - x, xs, ys) - np.interp(t, xs, ys)
        h0, h1, dt = h[:-1], h[1:], np.diff(t)
        same = h0 * h1 >= 0.0
        den = np.where(same, 1.0, np.abs(h0) + np.abs(h1))
        want = np.where(same, 0.5 * (np.abs(h0) + np.abs(h1)), 0.5 * (h0 * h0 + h1 * h1) / den)
        assert primitive_gap_l1(table, x) == pytest.approx(float(want @ dt), rel=1e-12, abs=1e-15)
    edges = np.cumsum(np.r_[-2.0, rng.uniform(0.2, 1.5, 9)])
    fc = rng.standard_normal((9, 12)) * 0.7 ** np.arange(12)
    P = PiecewiseChebyshevPrimitive(edges, fc)
    want = 0.0  # |F| increments between numpy's chebroots of each panel's f
    for a, b, row in zip(edges[:-1], edges[1:], fc):
        r = np.polynomial.chebyshev.chebroots(row)
        r = np.sort(r.real[(np.abs(r.imag) < 1e-12) & (np.abs(r.real) < 1.0)])
        want += np.abs(np.diff(P.eval(0.5 * (a + b) + 0.5 * (b - a) * np.r_[-1.0, r, 1.0]))).sum()
    assert P.total_variation() == pytest.approx(want, rel=1e-12, abs=0.0)
