"""Tests of the benchmark's oracles and of its failure accounting.

Run from the repository root:  python3 -m pytest -q bench/test_oracles.py
"""

import math

import numpy as np
import pytest
from scipy.special import erf

import oracles as o
import run
import workloads

XS = (0.75, 0.25, 2.0 ** -5, 1.0, 3.0)


@pytest.mark.parametrize("x", XS)
def test_indicator_gap_is_min_abs_x_1(x):
    # chi_[0,1]: F is the unit ramp, and ||tau_x f - f|| = min(|x|, 1)
    assert o.table_gap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), x) == \
        pytest.approx(min(abs(x), 1.0), abs=1e-15)
    assert o.table_gap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), -x) == \
        pytest.approx(min(abs(x), 1.0), abs=1e-15)
    assert o.poly_gap(o.PolyPiece([1.0], 0.0, 1.0), x) == pytest.approx(min(x, 1.0), abs=1e-14)


@pytest.mark.parametrize("x", (0.75, 0.25, 2.0 ** -5))
def test_indicator_primitive_gaps(x):
    # H = F(y-x) - F(y) is -y, then -x, then y-x-1 on [0, x], [x, 1], [1, 1+x],
    # so int |H| = x; W(a) = int_{a-x}^a F runs from 0 to x, so its osc is x
    xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    pp = o.PolyPiece([1.0], 0.0, 1.0)
    for value in (o.table_primitive_gap_l1(xs, ys, x), o.poly_primitive_gap_l1(pp, x),
                  o.table_primitive_gap_norm(xs, ys, x), o.poly_primitive_gap_norm(pp, x)):
        assert value == pytest.approx(x, abs=1e-14)


@pytest.mark.parametrize("x", (0.5, 0.125))
def test_weighted_gap_engines_agree(x):
    # the same input through the table and the polynomial engines
    xs, ys = np.array([-0.5, 1.5]), np.array([0.0, 2.0])
    pp = o.PolyPiece([1.0], -0.5, 1.5)
    for w in (o.RQ, ("table", np.array([0.2, 1.0]), np.array([1.0, 3.0, 0.5]))):
        assert o.table_weighted_gap(xs, ys, x, w) == \
            pytest.approx(o.poly_weighted_gap(pp, x, w), rel=1e-12)
    # a constant weight 1 gives back the unweighted gap
    one = ("table", np.array([0.0]), np.array([1.0, 1.0]))
    assert o.table_weighted_gap(xs, ys, x, one) == pytest.approx(o.table_gap(xs, ys, x))


@pytest.mark.parametrize("x", (0.5, 0.125, 2.0 ** -6))
def test_gaussian_gap_closed_form(x):
    # H(y) = (sqrt(pi)/2)(erf(y-x) - erf(y)) is extreme at y = x/2
    assert o.smooth_gap(o.gaussian_form(), x) == \
        pytest.approx(math.sqrt(math.pi) * erf(x / 2.0), rel=1e-12)
    assert o.smooth_norm(o.gaussian_form()) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


@pytest.mark.parametrize("r,theta", ((0.3, 0.4), (0.9, -2.0), (0.99, 3.0)))
def test_disc_cosine_extends_to_r_cos(r, theta):
    assert o.disc_quad(np.cos, r, theta) == pytest.approx(r * math.cos(theta), abs=1e-11)
    assert o.disc_harmonic(1, r, theta) == pytest.approx(r * math.cos(theta), abs=1e-15)
    # the kernel has mass 1 over the circle
    assert o.disc_piecewise_constant([-math.pi, math.pi], [1.0], r, theta) == \
        pytest.approx(1.0, abs=1e-11)


def test_halfplane_mass_is_weight_independent_value():
    # f = chi_[-1, 1] at z = (0.5, 0.2): u = (atan(1.5/0.2) + atan(0.5/0.2))/pi,
    # whatever the weight in the integration by parts
    want = (math.atan(7.5) + math.atan(2.5)) / math.pi
    assert want == pytest.approx(0.8366885952503154, abs=1e-15)
    assert o.halfplane_piecewise_constant([-1.0, 1.0], [1.0], 0.5, 0.2) == \
        pytest.approx(want, abs=1e-15)
    assert o.halfplane_quad(lambda t: 1.0, -1.0, 1.0, 0.5, 0.2) == pytest.approx(want, abs=1e-12)
    assert o.halfplane_piecewise_constant([-1e15, 1e15], [1.0], 0.3, 1e-3) == \
        pytest.approx(1.0, abs=1e-12)


def test_c10_oracle_matches_published_ground_truth():
    assert o.halfplane_indicator_gap(0.01, -8.0, 8.0) == pytest.approx(0.0274491278, abs=1e-9)


def test_c07_ratio_variation_window_values():
    assert o.reciprocal_quadratic_ratio_variation(0.5, -50.0, 50.0) == \
        pytest.approx(2.0215608180, abs=1e-9)
    assert o.reciprocal_quadratic_ratio_variation(0.1, -50.0, 50.0) == \
        pytest.approx(0.3925028227, abs=1e-9)


# ---------------------------------------------------------------------------
# a wrong library result is a failed operation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def alexnorm():
    return run.import_library()


def _perturb(monkeypatch, module, name, delta):
    orig = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: orig(*a, **k) + delta)


def test_perturbed_disc_value_fails(alexnorm, monkeypatch):
    wl = workloads.PoissonPoints()
    wl.setup(run.ROOT, 7)
    _, ops = wl.round()
    assert [op.name for op in ops if not op.ok] == ["halfplane.table.table_weight"] * 4
    assert all(op.known_fault for op in ops if not op.ok)
    _perturb(monkeypatch, alexnorm, "poisson_disc", 1e-7)
    _, ops = wl.round()
    disc = [op for op in ops if op.name.startswith("disc.")]
    assert disc and not any(op.ok for op in disc)
    assert not any(op.known_fault for op in disc)


def test_perturbed_norm_fails(alexnorm, monkeypatch):
    wl = workloads.GapEngines()
    wl.setup(run.ROOT, 7)
    wl.inputs = [inp for inp in wl.inputs if inp[1] in ("table6", "poly3", "gaussian")]
    _, ops = wl.round()
    assert all(op.ok for op in ops), [op.detail for op in ops if not op.ok]
    _perturb(monkeypatch, alexnorm, "alexiewicz_norm", 1e-6)
    _, ops = wl.round()
    bad = {op.name for op in ops if not op.ok}
    assert {"table6.norm", "poly3.norm", "gaussian.norm", "table6.isometry"} <= bad


def test_perturbed_canonical_rows_fail():
    rows = [{"x": "0.5", "gap": "0.5"}, {"x": "0.25", "gap": "0.25000001"}]
    assert len(workloads._check_c02_indicator(rows, None, None, o)) == 1
    sc = {"interval": [-8.0, 8.0]}
    good = o.halfplane_indicator_gap(0.1, -8.0, 8.0)
    assert workloads._check_c10([{"param": "0.1", "gap": repr(good)}], None, sc, o) == []
    assert workloads._check_c10([{"param": "0.1", "gap": repr(good + 2e-6)}], None, sc, o)


def test_tracer_counts_and_restores(alexnorm):
    import tracer as tracing
    orig_eval = alexnorm.PiecewiseLinearPrimitive.eval
    t = tracing.Tracer()
    t.install(alexnorm)
    t.enabled = True
    f = alexnorm.indicator(0.0, 1.0)
    alexnorm.gap_sweep(f, [0.5, 0.25])
    alexnorm.alexiewicz_norm(alexnorm.get_function("gaussian"))
    t.enabled = False
    t.uninstall()
    assert alexnorm.PiecewiseLinearPrimitive.eval is orig_eval
    m = t.metrics(1)
    assert m["realfn.eval.table.calls"][0] == 4          # two evaluations per shift
    assert m["norms.difference_extrema.calls"][0] == 2
    assert m["realfn.grid_extrema.refine_calls"][0] in (0, 6)
    assert set(m) | {"trace.untraced_round_s", "trace.traced_round_s",
                     "trace.overhead_ratio"} == {n for n, _ in tracing.PER_LAYER}
