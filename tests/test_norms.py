import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alexnorm.cli import serialize_gap_reports
from alexnorm.errors import InvalidSpec, NotAbsolutelyIntegrable
from alexnorm import norms
from alexnorm.norms import (DecaySpec, SmoothBump, _sinc, _window_values_closed,
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
from alexnorm.weights import weighted_gap_sweep

INF = float("inf")

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

    for target in ("alexnorm.realfn.grid_extrema", "alexnorm.norms.grid_extrema",
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


def test_closed_form_primitive_gap_norm_is_computed_once_per_shift(monkeypatch):
    # the witness norm of c06's ladder and of hk_not_l1_witness share one grid
    # search; a shifted copy shares the cache but not the entry, since its grid
    # moves with the shift and rounds differently
    calls = []
    inner = norms.grid_extrema

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(norms, "grid_extrema", counted)
    F = ClosedFormPrimitive(_sinc, 0.0, 0.0, scan=(-400.0, 400.0))
    f = Integrand(F, None)
    first = primitive_gap_norm(f, math.pi)
    assert len(calls) == 1
    assert primitive_gap_norm(f, math.pi) == first
    assert primitive_gap_norm(f, -math.pi) == first
    assert len(calls) == 1
    moved = primitive_gap_norm(Integrand(F.shifted(2.0), None), math.pi)
    assert len(calls) == 2
    fresh = ClosedFormPrimitive(_sinc, 0.0, 0.0, scan=(-400.0, 400.0)).shifted(2.0)
    assert primitive_gap_norm(Integrand(fresh, None), math.pi) == moved
    assert len(calls) == 3
    primitive_gap_norm(f, 1.0)
    assert len(calls) == 4
    F._extrema_cache.clear()
    assert primitive_gap_norm(f, math.pi) == first
    assert len(calls) == 5


def _window_values_per_row(F, a_pts, x):
    # reference: one np.dot per grid point over its 48 Gauss-Legendre nodes
    nodes, wts = gauss_nodes(48)
    hw = 0.5 * x
    return np.array([np.dot(hw * F.eval((a - hw) + hw * nodes), wts) for a in a_pts])


@pytest.mark.parametrize("name", ["sinc_primitive", "gaussian", "cosine"])
def test_closed_form_window_values_match_per_row_dot(name):
    # blocked rows keep np.dot's bits: in any block, alone or in a batch
    F = get_function(name).primitive
    x = math.pi
    for n in (1, 2, 1023, 1024, 1025, 3 * 1024 + 1):
        a = np.linspace(-12.0, 15.0, n)
        got = _window_values_closed(F, a, x)
        assert got.shape == (n,)
        assert np.array_equal(got, _window_values_per_row(F, a, x))
        for k in {0, n // 2, n - 1}:
            assert np.array_equal(_window_values_closed(F, a[k:k + 1], x), got[k:k + 1])


def test_closed_form_primitive_gap_norm_peak_memory():
    # the 2^14 + 1 point grid of window values runs in blocks, so no temporary
    # holds the whole grid times 48 nodes (about 6 MiB each)
    import scipy.optimize  # noqa: F401  (loaded on first refinement; not traced)
    F = ClosedFormPrimitive(_sinc, 0.0, 0.0, scan=(-400.0, 400.0))
    tracemalloc.start()
    try:
        primitive_gap_norm(Integrand(F, None), math.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
