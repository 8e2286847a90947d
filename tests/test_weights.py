import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from alexnorm.errors import (DegenerateWeight, HypothesisViolated, InvalidSpec,
                             NonIntegrableProduct)
from alexnorm.norms import gap_sweep
from alexnorm.realfn import (Integrand, PiecewiseChebyshevPrimitive,
                            PiecewiseLinearPrimitive, build_primitive_from_pointwise)
from alexnorm.registry import get_function, get_weight
from alexnorm.weights import (Weight, _shift_gap, _weighted_gap_single,
                              convergence_in_measure, product_integrand,
                              ratio_conditions_check, sufficient_conditions_check,
                              uniform_bound_lemma_check, variation_bound_check,
                              weight_ratio, weighted_gap_sweep, weighted_norm)

ONE = lambda y: np.ones_like(np.asarray(y, dtype=float))


@pytest.fixture(scope="module")
def rq():
    return get_weight("reciprocal_quadratic")


@pytest.fixture(scope="module")
def expw():
    return get_weight("exponential")


@pytest.fixture(scope="module")
def stepw():
    return get_weight("step_weight")


# -- ratio functions ----------------------------------------------------------


def test_ratio_exponential_constant(expw):
    g = weight_ratio(expw, 0.3)
    ys = np.linspace(-20.0, 20.0, 101)
    assert np.allclose(g(ys), math.exp(0.3), rtol=1e-14)


def test_ratio_zero_shift_is_one(rq, expw, stepw):
    for w in (rq, expw, stepw):
        g = weight_ratio(w, 0.0)
        assert np.all(g(np.linspace(-5.0, 5.0, 41)) == 1.0)


def test_ratio_reciprocal_quadratic_value(rq):
    g = weight_ratio(rq, 1.0)
    assert g(np.asarray([0.0]))[0] == pytest.approx(0.5, abs=1e-15)


@given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-5, max_value=5))
@settings(max_examples=50, deadline=None)
def test_ratio_cocycle(x, xp, y):
    # g_{x+x'}(y) = g_x(y+x') * g_{x'}(y), an identity of the definition
    w = get_weight("reciprocal_quadratic")
    lhs = weight_ratio(w, x + xp)(np.asarray([y]))[0]
    rhs = weight_ratio(w, x)(np.asarray([y + xp]))[0] * \
        weight_ratio(w, xp)(np.asarray([y]))[0]
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- admissibility checks -------------------------------------------------------


def test_ratio_conditions_three_weights(rq, expw, stepw):
    xs = [0.5, 0.25, 0.1, 0.01]
    for w in (rq, expw, stepw):
        rep = ratio_conditions_check(w, xs, (-10.0, 10.0), 0.1)
        assert rep.passed, w.label


def test_ratio_conditions_variation_matches_closed_form(rq):
    # the ratio's exact variation on a window, from its reciprocal-pair extrema
    xs = [0.5, 0.1]
    rep = ratio_conditions_check(rq, xs, (-50.0, 50.0), 0.1, levels=16)
    for x, v in zip(rep.xs, rep.variation_per_x):
        q = abs(x) * math.sqrt(x * x + 4.0)
        g = weight_ratio(rq, x)
        R = (4.0 + x * x + q) / (4.0 + x * x - q)
        v_exact = (R - g(np.asarray([-50.0]))[0]) + (R - 1.0 / R) \
            + (g(np.asarray([50.0]))[0] - 1.0 / R)
        assert v == pytest.approx(v_exact, rel=1e-2)


def test_sufficient_conditions_reciprocal_quadratic(rq):
    rep = sufficient_conditions_check(rq, (-5.0, 5.0))
    assert rep.passed
    assert rep.m_I == pytest.approx(1.0 / 26.0, rel=1e-3)
    assert rep.M_I == pytest.approx(1.0, abs=1e-5)
    # w decreases away from 0 on each side: exact variation 2(w(0) - w(5))
    assert rep.bv_local == pytest.approx(2.0 * (1.0 - 1.0 / 26.0), rel=1e-6)


def test_sufficient_conditions_step(stepw):
    rep = sufficient_conditions_check(stepw, (-1.0, 1.0))
    assert rep.passed
    assert rep.m_I == 1.0 and rep.M_I == 2.0
    assert rep.bv_local == 1.0  # the jump, caught exactly via the breakpoint


def test_sufficient_conditions_exponential_local(expw):
    rep = sufficient_conditions_check(expw, (-3.0, 3.0))
    assert rep.passed  # locally fine even though unbounded globally


def test_degenerate_weight_raises():
    w = Weight(lambda y: np.asarray(y, dtype=float))  # vanishes
    with pytest.raises(DegenerateWeight):
        sufficient_conditions_check(w, (-1.0, 1.0))


def test_audits_refuse_a_weight_not_positive_on_the_grid():
    # e^{-y^2} underflows to 0 on (30, 40); g_x would divide by it
    w = Weight(lambda y: np.exp(-np.asarray(y, dtype=float) ** 2), label="gauss")
    I = (30.0, 40.0)
    for audit in (lambda: ratio_conditions_check(w, [0.5, 0.25], I, 0.1),
                  lambda: sufficient_conditions_check(w, I),
                  lambda: variation_bound_check(w, 0.5, I)):
        with pytest.raises(DegenerateWeight,
                           match=r"grid infimum 0\.0 is not positive on \[30\.0, 40\.0\]"):
            audit()
    nan_w = Weight(lambda y: np.full_like(np.asarray(y, dtype=float), np.nan))
    with pytest.raises(DegenerateWeight, match="grid infimum nan"):
        ratio_conditions_check(nan_w, [0.5], (-1.0, 1.0), 0.1)


# eps and the variation budget M: non-finite, zero, negative and finite draws
AUDIT_PARAMS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
                         st.floats(min_value=1e-3, max_value=1e3))


@settings(max_examples=8, deadline=None)
@given(eps=AUDIT_PARAMS)
@example(eps=math.nan)
@example(eps=math.inf)
def test_ratio_check_refuses_an_eps_that_makes_the_verdict_vacuous(expw, eps):
    # every fraction off by more than NaN or inf is 0, so such an eps would
    # pass the measure condition for any weight
    audit = lambda: ratio_conditions_check(expw, [0.5, 0.25], (-3.0, 3.0), eps)
    if not 0.0 < eps < math.inf:
        with pytest.raises(ValueError, match="eps"):
            audit()
        return
    rep = audit()
    nums = [rep.uniform_bound, rep.uniform_variation, *rep.variation_per_x]
    nums += [v for e in rep.measure_estimates for v in (e.fraction, e.l1_average)]
    assert all(math.isfinite(v) for v in nums)


def test_ratio_check_measure_condition_at_a_real_eps(expw):
    # e^{x} - 1 exceeds 0.1 everywhere for x = 0.5 and 0.25
    rep = ratio_conditions_check(expw, [0.5, 0.25], (-3.0, 3.0), 0.1)
    assert [e.fraction for e in rep.measure_estimates] == [1.0, 1.0]
    assert not rep.passed


SPIKES = [(lambda y, n=n: n * ((np.asarray(y, dtype=float) >= 0)
                               & (np.asarray(y, dtype=float) < 1.0 / n)).astype(float))
          for n in (1, 2, 4, 8, 16)]
ZERO = lambda y: np.zeros_like(np.asarray(y, dtype=float))


@settings(max_examples=8, deadline=None)
@given(M=AUDIT_PARAMS)
@example(M=math.nan)
@example(M=math.inf)
def test_lemma_check_refuses_a_budget_that_makes_the_verdict_vacuous(M):
    # Vn > NaN is never true, so a NaN budget would turn the variation check off
    audit = lambda: uniform_bound_lemma_check(SPIKES, (0.0, 1.0), ZERO, M)
    if not math.isfinite(M):
        with pytest.raises(ValueError, match="budget"):
            audit()
        return
    try:
        rep = audit()
    except HypothesisViolated:
        assert M < 16.0  # member 4 has variation 16
        return
    assert all(math.isfinite(v) for v in (rep.bound, *rep.variations, *rep.sup_values))


def test_variation_bound_three_weights(rq, expw, stepw):
    cases = [(rq, 0.5, (-10.0, 10.0)), (expw, 0.3, (-3.0, 3.0)),
             (stepw, 0.1, (-1.0, 1.0))]
    for w, x, I in cases:
        rep = variation_bound_check(w, x, I)
        assert rep.passed, w.label


def test_variation_bound_lhs_value_reciprocal_quadratic(rq):
    # windowed closed form for the lhs: rise to R, fall to 1/R, rise to g(10)
    x, L = 0.5, 10.0
    rep = variation_bound_check(rq, x, (-L, L))
    q = abs(x) * math.sqrt(x * x + 4.0)
    R = (4.0 + x * x + q) / (4.0 + x * x - q)
    g = weight_ratio(rq, x)
    v_exact = (R - g(np.asarray([-L]))[0]) + (R - 1.0 / R) \
        + (g(np.asarray([L]))[0] - 1.0 / R)
    assert rep.lhs == pytest.approx(v_exact, rel=1e-3)
    assert rep.lhs <= v_exact + 1e-9


def test_variation_bound_step_exact(stepw):
    # g jumps by 1 at -0.1 and at 0: lhs = 2; rhs = 1/1 + 2*1/1 = 3
    rep = variation_bound_check(stepw, 0.1, (-1.0, 1.0))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(3.0, abs=1e-12)
    assert rep.passed


def test_variation_bound_constant_weight():
    rep = variation_bound_check(get_weight("constant"), 0.5, (-2.0, 2.0))
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


# -- weighted norms ---------------------------------------------------------------


def test_weighted_norm_unweighted_case():
    assert weighted_norm(get_function("indicator_01"), get_weight("constant")) == 1.0


def test_weighted_norm_constant_function(rq):
    # f = 1: the product is the weight itself; its primitive is arctan-shaped
    assert weighted_norm(ONE, rq) == pytest.approx(math.pi, abs=1e-6)


def test_weighted_norm_step_product(stepw):
    assert weighted_norm(get_function("indicator_01"), stepw) == pytest.approx(
        2.0, abs=1e-10)


def test_product_integrand_not_integrable(rq):
    with pytest.raises(NonIntegrableProduct):
        product_integrand(lambda y: np.asarray(y, dtype=float), rq)


# -- weighted sweeps --------------------------------------------------------------


def test_weighted_sweep_decreasing(rq):
    f = get_function("indicator_01")
    reports = weighted_gap_sweep(f, rq, [0.5, 0.25, 0.1, 0.01])
    gaps = [r.gap for r in reports]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    assert all(r.passed for r in reports)
    assert gaps[-1] < 0.05


def test_weighted_sweep_against_direct_product_norm(rq):
    # oracle: build the product primitive of (tau_x f - f) w directly and take
    # its oscillation on a dense grid
    f = get_function("indicator_01")
    x = 0.25
    w = rq

    def diff_prod(y):
        y = np.asarray(y, dtype=float)
        chi = lambda t: ((t >= 0) & (t <= 1)).astype(float)
        return (chi(y - x) - chi(y)) * w(y)

    from alexnorm.realfn import build_primitive_from_pointwise
    P = build_primitive_from_pointwise(diff_prod, (-1.0, 2.0), 1e-12,
                                       breakpoints=[0.0, x, 1.0, 1.0 + x])
    lo, hi = P.extrema()
    oracle = hi - lo
    got = weighted_gap_sweep(f, w, [x])[0].gap
    assert got == pytest.approx(oracle, abs=1e-8)


def test_weighted_sweep_unit_weight_matches_gap_sweep():
    f = get_function("step_signal")
    xs = [0.7, 0.3, 0.05]
    a = weighted_gap_sweep(f, get_weight("constant"), xs)
    b = gap_sweep(f, xs)
    for ra, rb in zip(a, b):
        assert abs(ra.gap - rb.gap) <= 1e-12


def test_weighted_sweep_constant_function(rq):
    # tau_x f = f for constant f, so the weighted gaps sit at tail-noise level
    reports = weighted_gap_sweep(ONE, rq, [0.5, 0.1])
    assert all(r.gap < 1e-3 for r in reports)


# -- convergence in measure ---------------------------------------------------------


def test_measure_step_fraction_exact(stepw):
    fam = {x: weight_ratio(stepw, x) for x in (0.5, 0.25, 0.125)}
    ests = convergence_in_measure(fam, ONE, (-1.0, 1.0), 0.1)
    for e in ests:
        assert e.fraction == abs(e.x) / 2.0  # aligned grid: exact
        assert 0.0 <= e.fraction <= 1.0


def test_measure_identical_family():
    fam = {x: ONE for x in (0.5, 0.1)}
    ests = convergence_in_measure(fam, ONE, (-2.0, 2.0), 0.05)
    assert all(e.fraction == 0.0 and e.l1_average == 0.0 for e in ests)


def test_measure_reciprocal_quadratic_converges(rq):
    fam = {x: weight_ratio(rq, x) for x in (0.5, 0.1, 0.01)}
    ests = convergence_in_measure(fam, ONE, (-10.0, 10.0), 0.05)
    fr = [e.fraction for e in ests]
    l1 = [e.l1_average for e in ests]
    assert fr[0] >= fr[1] >= fr[2]
    assert fr[-1] == 0.0
    assert l1[0] > l1[1] > l1[2]


# -- bounded-variation family bound ---------------------------------------------------


def test_lemma_sine_family():
    ns = (1, 2, 4, 8)
    seq = [(lambda y, n=n: 1.0 + np.sin(np.asarray(y, dtype=float)) / n) for n in ns]
    rep = uniform_bound_lemma_check(seq, (0.0, 4.0 * math.pi), ONE, 8.0)
    assert rep.bound == pytest.approx(10.0, abs=1e-9)
    assert rep.witnessed
    # exact variation of the scaled sinusoid: 8/n over two full periods
    for n, v in zip(ns, rep.variations):
        assert v == pytest.approx(8.0 / n, rel=1e-4)


def test_lemma_constants():
    cs = (1.3, 1.05, 1.01)
    seq = [(lambda y, c=c: np.full_like(np.asarray(y, dtype=float), c)) for c in cs]
    rep = uniform_bound_lemma_check(seq, (0.0, 1.0), ONE, 0.0)
    assert rep.bound == pytest.approx(2.0, abs=1e-12)  # M + 1 + sup|g| = 0+1+1
    assert rep.witnessed


def test_lemma_check_walks_its_family_once():
    # a one-pass iterable gets the verdict of the list it came from
    cs = (5.0, 50.0)
    seq = [(lambda y, c=c: np.full_like(np.asarray(y, dtype=float), c)) for c in cs]
    rep = uniform_bound_lemma_check(seq, (0.0, 1.0), ONE, 1.0)
    assert rep == uniform_bound_lemma_check(iter(seq), (0.0, 1.0), ONE, 1.0)
    assert rep.sup_values == cs and not rep.witnessed


def test_lemma_spike_family_violates():
    seq = [(lambda y, n=n: n * ((np.asarray(y, dtype=float) >= 0)
                                & (np.asarray(y, dtype=float) < 1.0 / n)).astype(float))
           for n in (1, 2, 8, 64)]
    with pytest.raises(HypothesisViolated):
        uniform_bound_lemma_check(seq, (0.0, 1.0),
                                  lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                                  8.0)


# -- caches -----------------------------------------------------------------------


def test_step_weight_right_continuous(stepw):
    # table weights evaluate to their limit from the right at each jump
    assert stepw(np.asarray([0.0]))[0] == 2.0
    assert stepw(np.asarray([-1e-12]))[0] == 1.0


def test_table_weight_derivative_is_exactly_zero(stepw):
    # at the jump, on both sides of it within a finite-difference step, and
    # far away: a piecewise-constant weight has derivative 0 off its jumps,
    # and the jump itself is no part of w'
    w3 = Weight.piecewise_constant([-1.0, 0.5, 2.0], [1.0, 3.0, 0.5, 2.0])
    ys = np.asarray([-1.0, -1.0 - 1e-7, 0.5, 0.5 + 1e-9, 2.0, 2.0 - 1e-12, -50.0, 7.0])
    for w, pts in ((stepw, np.asarray([0.0, -1e-7, 1e-7, -3e-7, 5.0])), (w3, ys)):
        d = w.derivative(pts)
        assert d.shape == pts.shape
        assert np.all(d == 0.0)
        assert w.derivative(0.0) == 0.0


def test_weight_without_derivative_raises():
    bare = Weight(lambda y: 1.0 / (np.asarray(y, dtype=float) ** 2 + 1.0), label="bare")
    with pytest.raises(InvalidSpec, match="bare"):
        bare.derivative(np.asarray([0.5]))
    assert bare(np.asarray([1.0]))[0] == 0.5  # the weight itself still evaluates


def test_weight_caches_are_stable(rq):
    a = rq.bounds_on((-5.0, 5.0))
    b = rq.bounds_on((-5.0, 5.0))
    assert a == b
    v1 = rq.variation_on((-5.0, 5.0), 10)
    v2 = rq.variation_on((-5.0, 5.0), 10)
    assert v1 == v2


def test_weighted_gap_hints_closed_form_support_ends():
    # cosine jumps at +-pi; the exact gap is the oscillation of
    # D(t) = int_{-inf}^t (f(s - x) - f(s)) w(s) ds, taken in closed form (F is sin
    # on [-pi, pi]) at every jump of f(. - x), f and w and every zero of the integrand
    bps = np.asarray([-1.2547, -0.1599, 1.9297])
    vals = np.asarray([1.9481, 1.8795, 2.4322, 1.4438])
    x = 0.125
    F = lambda y: np.where(np.abs(y) <= math.pi, np.sin(y), 0.0)
    k = math.pi * np.arange(-3, 4)
    t = np.concatenate([[-math.pi, math.pi, x - math.pi, x + math.pi], bps,
                        0.5 * x + k, x + 0.5 * math.pi + k, 0.5 * math.pi + k])
    t = np.unique(t[(t >= -math.pi) & (t <= math.pi + x)])
    p, q = t[:-1], t[1:]
    w_piece = vals[np.searchsorted(bps, 0.5 * (p + q), side="right")]
    D = np.cumsum(np.concatenate([[0.0], w_piece * (F(q - x) - F(p - x) - F(q) + F(p))]))
    want = D.max() - D.min()
    got = weighted_gap_sweep(get_function("cosine"), Weight.piecewise_constant(bps, vals),
                             [x])[0].gap
    assert got == pytest.approx(want, abs=1e-10)


def test_product_of_tail_estimated_panels_keeps_its_tails(rq):
    # f = e^{-|y|} is built on the core [-6, 6] with tail panels beyond; the
    # product with 1/(1 + y^2) must cover those tail panels, not the core alone
    e = lambda y: np.exp(-np.abs(np.asarray(y, dtype=float)))
    P = build_primitive_from_pointwise(e, (-math.inf, math.inf), 1e-12, core_halfwidth=6.0)
    G = product_integrand(Integrand(P, e), rq).primitive
    want = 2.0 * quad(lambda y: math.exp(-y) / (1.0 + y * y), 0.0, math.inf,
                      epsabs=1e-14, epsrel=1e-14)[0]
    assert G.limit_pos - G.limit_neg == pytest.approx(want, abs=1e-9)


def test_product_of_far_tail_panels(rq):
    # at tol 1e-12 the tail panels of 1/(1 + y^2) reach +-1.1e12; a product
    # core widened to them left its own tail no doubling window
    P = build_primitive_from_pointwise(rq, (-math.inf, math.inf), 1e-12)
    assert P.support_window()[1] > 1e12
    f = Integrand(P, rq)
    G = product_integrand(f, rq).primitive
    assert G.limit_pos - G.limit_neg == pytest.approx(0.5 * math.pi, abs=1e-10)
    # ||(tau_2 f - f) w|| = (1 + pi)/4 for f = w = 1/(1 + y^2)
    gap = weighted_gap_sweep(f, rq, [2.0])[0].gap
    assert gap == pytest.approx(0.25 * (1.0 + math.pi), abs=1e-10)


def test_product_carries_the_remainder_beyond_the_tail_panels():
    # F's limits differ from its edge values by a remainder of 0.25 on each
    # side, which the product takes over times w at the panel ends
    F = PiecewiseChebyshevPrimitive([0.0, 1.0], [[1.0]], F_edge0=0.25, tail_estimated=True)
    F.limit_neg, F.limit_pos = 0.0, 1.5
    G = product_integrand(Integrand(F), Weight.piecewise_constant([0.5], [2.0, 3.0])).primitive
    assert G.tail_estimated and G.limit_neg == 0.0
    assert G.eval(0.0) == pytest.approx(0.5, abs=1e-12)
    assert G.eval(1.0) == pytest.approx(0.5 + 2.5, abs=1e-12)
    assert G.limit_pos == pytest.approx(3.0 + 0.75, abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda: Weight.piecewise_constant([math.nan], [1.0, 2.0]),
    lambda: Weight.piecewise_constant([-math.inf, 0.0], [1.0, 2.0, 3.0]),
    lambda: Weight.piecewise_constant([0.0], [1.0, math.nan]),
    lambda: Weight.piecewise_constant([0.0], [math.inf, 1.0]),
    lambda: Weight.constant(math.nan),
    lambda: Weight.constant(math.inf),
], ids=["nan_breakpoint", "inf_breakpoint", "nan_value", "inf_value",
        "nan_constant", "inf_constant"])
def test_weight_constructors_refuse_non_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_breakpoints_empty_without_nodes(rq):
    # "no nodes" is an empty float array for primitives and weights alike
    for owner in (get_function("gaussian").primitive, rq, Weight.constant(2.0)):
        bp = owner.breakpoints()
        assert isinstance(bp, np.ndarray)
        assert bp.dtype == float and bp.shape == (0,)


# -- the shift gap gamma(s) = ||(tau_s f - f) w|| ------------------------------------


def _both_gaps(f, w, s):
    # the direct primitive of (f(. - s) - f) w against the decomposition through
    # G and C_s; each is built to 1e-7, so they may differ by twice that per side
    fp = f.pointwise_or_derived()
    G = product_integrand(f, w).primitive
    return _shift_gap(f, fp, w, s, 1e-7), _weighted_gap_single(f, fp, w, G, s, 1e-7)[0]


_TABLE_WEIGHT = Weight.piecewise_constant([-0.7, 0.4, 1.9], [1.5, 0.6, 2.2, 1.1])


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_shift_gap_matches_the_decomposition_on_tables(data):
    widths = data.draw(st.lists(st.floats(1e-2, 2.0), min_size=1, max_size=6))
    edges = data.draw(st.floats(-3.0, 1.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    values = np.asarray(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(widths),
                                           max_size=len(widths))))
    F = PiecewiseLinearPrimitive(edges,
                                 np.concatenate([[0.0], np.cumsum(values * np.diff(edges))]))
    w = data.draw(st.sampled_from([get_weight("reciprocal_quadratic"), _TABLE_WEIGHT]))
    s = data.draw(st.floats(1e-3, 90.0))
    direct, decomposed = _both_gaps(Integrand(F, F.pointwise_derived()), w, s)
    assert direct == pytest.approx(decomposed, abs=4e-7)


def test_shift_gap_matches_the_decomposition_on_fixed_data(rq):
    cheb = build_primitive_from_pointwise(lambda y: np.cos(3.0 * y) * (2.0 - y), (-1.0, 2.0),
                                          1e-12)
    tail = build_primitive_from_pointwise(rq, (-math.inf, math.inf), 1e-12)
    cases = [Integrand(cheb), Integrand(tail, rq), get_function("gaussian")]
    for f in cases:
        for w in (rq, _TABLE_WEIGHT):
            for s in (1e-3, 0.37, 5.0, 90.0):
                direct, decomposed = _both_gaps(f, w, s)
                assert direct == pytest.approx(decomposed, abs=4e-7), (f, w.label, s)
    # ||(tau_2 f - f) w|| = (1 + pi)/4 for f = w = 1/(1 + y^2), tail remainders included
    assert _shift_gap(cases[1], rq, rq, 2.0, 1e-7) == pytest.approx(0.25 * (1.0 + math.pi),
                                                                     abs=2e-7)


def test_shift_gap_of_a_constant_is_exactly_zero(rq):
    assert _shift_gap(ONE, ONE, rq, 0.5, 1e-7) == 0.0
