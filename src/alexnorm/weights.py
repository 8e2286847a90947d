"""Weighted norms and weight admissibility.

A positive weight w acts through its ratio functions g_x(y) = w(y+x)/w(y).
Translation continuity in the weighted norm holds exactly when the g_x are
essentially bounded and of essentially bounded variation uniformly for small
x, with g_x -> 1 in measure on compacts; the checks here estimate those three
properties on grids (midpoint cells, refinement-stability deltas) and verify
the variation transfer bound

    V_I g_x <= V_{I+x} w / m_I + M * V_I w / m_I^2.

Verdicts are evidence grade: stable under one refinement doubling, never
claimed as proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

import numpy as np

from .errors import (DegenerateWeight, HypothesisViolated, InvalidSpec,
                     NonConvergentTail, NonIntegrableProduct, ToleranceNotMet)
from .norms import (GapReport, _check_shift, _difference_extrema, alexiewicz_norm,
                    gap_sweep)
from .realfn import (Integrand, Interval, PiecewiseChebyshevPrimitive, _as_interval,
                     _call_vec, _critical_points, build_primitive_from_pointwise,
                     variation)

Evaluator = Callable[[np.ndarray], np.ndarray]

# Midpoint cells of every grid estimate; each estimate is repeated at twice
# this count to check that one refinement doubling leaves it settled.
_GRID = 4096


def _zeros(y):
    return np.zeros_like(np.asarray(y, dtype=float))


def _vanishing_kernel_ratio(y) -> tuple:
    # Phi_z(t) -> 0 at +-inf, and a table or constant weight is bounded below
    return 0.0, 0.0


class Weight:
    """A positive weight function.

    Table weights are piecewise constant and normalized to right continuity on
    ingestion; their derivative is zero, the jumps being no part of it.
    ``kernel_ratio_limit(y)``, when given, returns the limits at -inf and +inf
    of Phi_y(x - t)/w(t) (the half-plane kernel over the weight) in closed form;
    they do not depend on x.  Table and constant weights declare the exact
    zeros, and set their jumps and their constant themselves.
    """

    def __init__(self, func: Evaluator, *, derivative: Optional[Evaluator] = None,
                 kernel_ratio_limit: Optional[Callable] = None, label: str = ""):
        self._func = func
        self._derivative = derivative
        self.kernel_ratio_limit = kernel_ratio_limit
        self.label = label
        self._breakpoints = np.empty(0)
        self.constant_value = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def piecewise_constant(cls, breakpoints, values, label: str = "") -> "Weight":
        bps = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bps.ndim != 1 or len(vals) != len(bps) + 1:
            raise ValueError("need len(values) == len(breakpoints) + 1")
        if not np.all(np.isfinite(bps)) or not np.all(np.diff(bps) > 0):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not np.all((vals > 0) & (vals < math.inf)):
            raise ValueError("weight values must be positive and finite")

        def step(y):
            idx = np.searchsorted(bps, np.asarray(y, dtype=float), side="right")
            return vals[idx]

        w = cls(step, derivative=_zeros, kernel_ratio_limit=_vanishing_kernel_ratio,
                label=label)
        w._breakpoints = bps
        return w

    @classmethod
    def constant(cls, c: float = 1.0, label: str = "constant") -> "Weight":
        if not 0 < c < math.inf:
            raise ValueError("a weight must be positive and finite")
        c = float(c)
        w = cls(lambda y: np.full_like(np.asarray(y, dtype=float), c),
                derivative=_zeros, kernel_ratio_limit=_vanishing_kernel_ratio, label=label)
        w.constant_value = c
        return w

    # -- evaluation ---------------------------------------------------------

    def __call__(self, y):
        return _call_vec(self._func, np.asarray(y, dtype=float))

    def derivative(self, y):
        """w'(y) as declared: exactly zero for table and constant weights.  A
        closed form declared without a derivative raises InvalidSpec."""
        if self._derivative is None:
            raise InvalidSpec(f"weight {self.label!r} has no declared derivative")
        return _call_vec(self._derivative, np.asarray(y, dtype=float))

    def breakpoints(self) -> np.ndarray:
        """Jump locations of a table weight; empty for every other weight."""
        return self._breakpoints

    # -- grid estimates -----------------------------------------------------

    def bounds_on(self, I) -> tuple:
        """(m, M) from midpoint cells at _GRID and 2 * _GRID."""
        I = _as_interval(I)
        vals1 = self(_midpoints(I, _GRID))
        vals2 = self(_midpoints(I, 2 * _GRID))
        return (float(min(vals1.min(), vals2.min())),
                float(max(vals1.max(), vals2.max())))

    def variation_on(self, I, levels: int = 12) -> float:
        return variation(self, I, levels, extra_points=tuple(self.breakpoints()))


def _midpoints(I: Interval, n: int) -> np.ndarray:
    return I.a + (np.arange(n) + 0.5) * (I.length / n)


@dataclass(frozen=True)
class RatioFunction:
    """g_x(y) = w(y+x)/w(y) for a fixed shift x."""

    x: float
    weight: Weight

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.weight(y + self.x) / self.weight(y)

    def sup_on(self, I) -> tuple:
        """Maxima over midpoint cells at _GRID and at 2 * _GRID."""
        I = _as_interval(I)
        return tuple(float(self(_midpoints(I, n)).max()) for n in (_GRID, 2 * _GRID))

    def variation_on(self, I, levels: int = 12) -> float:
        # the jumps of g_x: those of w and of w(. + x); the partition keeps
        # the ones inside I
        bp = self.weight.breakpoints()
        return variation(self, I, levels, extra_points=np.union1d(bp, bp - self.x))


def weight_ratio(w: Weight, x: float) -> RatioFunction:
    return RatioFunction(x=x, weight=w)


@dataclass(frozen=True)
class MeasureEstimate:
    """Fraction of the _GRID midpoint cells of an interval where a function
    strays from its target."""

    fraction: float
    l1_average: float
    x: float = 0.0


def convergence_in_measure(h_family: Mapping[float, Evaluator], target: Evaluator,
                           I, eps: float) -> List[MeasureEstimate]:
    """Per shift: fraction of midpoint cells where |h_x - target| > eps, plus
    the companion L1 grid estimate of the integral of |h_x - target| over I."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must lie in (0, inf), not {eps}")
    I = _as_interval(I)
    mids = _midpoints(I, _GRID)
    tv = _call_vec(target, mids)
    out = []
    for x in sorted(h_family, key=lambda t: (-abs(t), t)):
        diff = np.abs(_call_vec(h_family[x], mids) - tv)
        out.append(MeasureEstimate(fraction=float(np.mean(diff > eps)),
                                   l1_average=float(np.mean(diff) * I.length), x=x))
    return out


# ---------------------------------------------------------------------------
# Admissibility checks
# ---------------------------------------------------------------------------


def _refinement_stable(coarse: float, fine: float) -> bool:
    """An estimate counts as settled when one refinement doubling moves it by
    at most max(1e-6, 5e-3 * (1 + fine))."""
    return abs(fine - coarse) <= max(1e-6, 5e-3 * (1.0 + fine))


def _measure_converges(ests: Sequence[MeasureEstimate]) -> bool:
    """Off-by-eps fractions nonincreasing as the shift shrinks, within one and
    a half grid cells, with the last one at most 0.05."""
    fr = [e.fraction for e in ests]
    slack = 1.5 / _GRID + 1e-12
    return (all(fr[i + 1] <= fr[i] + slack for i in range(len(fr) - 1))
            and fr[-1] <= 0.05)


def _positive_bounds(w: Weight, I: Interval) -> tuple:
    """(m, M) of w on I's grid; DegenerateWeight unless m > 0 (NaN is not)."""
    m, M = w.bounds_on(I)
    if not m > 0:
        raise DegenerateWeight(f"grid infimum {m} is not positive on [{I.a}, {I.b}]")
    return m, M


@dataclass(frozen=True)
class RatioConditionsReport:
    xs: tuple
    variation_per_x: tuple
    uniform_bound: float
    uniform_variation: float
    bound_stable: bool
    variation_stable: bool
    measure_estimates: tuple
    measure_converges: bool
    passed: bool


def ratio_conditions_check(w: Weight, xs: Sequence[float], I, eps: float,
                           levels: int = 12) -> RatioConditionsReport:
    """Evidence-grade verdicts on the three ratio conditions on I: uniform
    bound, uniform variation, and convergence to 1 in measure (the fraction
    of cells off by more than eps falls to at most 0.05)."""
    if not len(xs):
        raise ValueError("xs must be nonempty")
    I = _as_interval(I)
    _positive_bounds(w, I)  # g_x divides by w
    xs_sorted = sorted(xs, key=lambda t: (-abs(t), t))
    gs = [weight_ratio(w, x) for x in xs_sorted]

    sups = [g.sup_on(I) for g in gs]
    coarse_variations = [g.variation_on(I, levels) for g in gs]
    variations = [g.variation_on(I, levels + 1) for g in gs]
    uniform_bound = max(max(b, b2) for b, b2 in sups)
    bound_stable = all(abs(b - b2) <= 1e-3 * (1.0 + max(b, b2)) for b, b2 in sups)
    variation_stable = all(_refinement_stable(v, v2)
                           for v, v2 in zip(coarse_variations, variations))

    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    measures = convergence_in_measure(dict(zip(xs_sorted, gs)), one, I, eps)
    measure_ok = _measure_converges(measures)

    passed = (math.isfinite(uniform_bound) and bound_stable and
              variation_stable and measure_ok)
    return RatioConditionsReport(
        xs=tuple(xs_sorted), variation_per_x=tuple(variations),
        uniform_bound=uniform_bound, uniform_variation=max(variations),
        bound_stable=bound_stable, variation_stable=variation_stable,
        measure_estimates=tuple(measures), measure_converges=measure_ok,
        passed=passed)


@dataclass(frozen=True)
class SufficientConditionsReport:
    m_I: float
    M_I: float
    bv_local: float
    bv_stable: bool
    measure_continuity: tuple
    passed: bool


def sufficient_conditions_check(w: Weight, I) -> SufficientConditionsReport:
    """Positive bounds, local bounded variation (12 dyadic levels against 13),
    and continuity in measure of the weight itself on a compact interval
    (shifts 2^-1 ... 2^-9, eps 0.05)."""
    I = _as_interval(I)
    m, M = _positive_bounds(w, I)
    bv = w.variation_on(I, 12)
    bv2 = w.variation_on(I, 13)
    bv_stable = _refinement_stable(bv, bv2)

    x_ladder = [2.0 ** -k for k in range(1, 10)]
    family = {x: (lambda y, x=x: w(np.asarray(y, dtype=float) + x)) for x in x_ladder}
    ests = convergence_in_measure(family, lambda y: w(y), I, 0.05)
    measure_ok = _measure_converges(ests)

    passed = bool(math.isfinite(M) and bv_stable and measure_ok)
    return SufficientConditionsReport(m_I=m, M_I=M, bv_local=bv2,
                                      bv_stable=bv_stable,
                                      measure_continuity=tuple(ests), passed=passed)


@dataclass(frozen=True)
class VariationBoundReport:
    x: float
    lhs: float
    rhs: float
    m_I: float
    passed: bool


def variation_bound_check(w: Weight, x: float, I) -> VariationBoundReport:
    """Check V_I g_x <= V_{I+x} w / m_I + M V_I w / m_I^2 to within 1e-9,
    every variation at 12 dyadic levels.

    m_I is the grid infimum of w over I (the denominators live there); M is a
    grid upper bound of w over I and I+x, covering the shifted evaluations.
    """
    I = _as_interval(I)
    m, M0 = _positive_bounds(w, I)
    lhs = weight_ratio(w, x).variation_on(I)
    M = max(M0, w.bounds_on(I.shifted(x))[1])
    rhs = w.variation_on(I.shifted(x)) / m + M * w.variation_on(I) / (m * m)
    return VariationBoundReport(x=x, lhs=lhs, rhs=rhs, m_I=m, passed=lhs <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# Weighted norms and sweeps
# ---------------------------------------------------------------------------


def _resolve_pointwise(f) -> Optional[Evaluator]:
    if isinstance(f, Integrand):
        return f.pointwise_or_derived()
    if callable(f):
        return f
    return None


def product_integrand(f, w: Weight, *, core_halfwidth: float = 64.0) -> Integrand:
    """The integrable object fw, built from pointwise data to 1e-10.

    f may be an Integrand or a bare evaluator (the weighted theory covers
    functions that are not integrable on their own, e.g. constants).
    """
    if isinstance(f, Integrand) and w.constant_value is not None:
        c = w.constant_value
        if c == 1.0:
            return f
        pt = f.pointwise_or_derived()
        scaled_pt = None if pt is None else (lambda y: c * _call_vec(pt, y))
        return Integrand(f.primitive.scaled(c), scaled_pt, f"{f.label}*{w.label}")

    fp = _resolve_pointwise(f)
    if fp is None:
        raise NonIntegrableProduct("no pointwise data for the product")
    prod = lambda y: _call_vec(fp, np.asarray(y, dtype=float)) * w(y)
    P = _weighted_primitive(prod, w, f, w, 1e-10, core_halfwidth, 0.0, label="product")
    return Integrand(P, prod, "product")


def _weighted_primitive(h: Evaluator, g: Evaluator, f, w: Weight, tol: float,
                        core_halfwidth: float, x: float, *, s: float = 0.0,
                        label: str = ""):
    """Primitive of h = f g, where g is w or w(. + x) - w, or of
    h = (f(. - s) - f) w, where g is w(. + s) - w.  The jumps of w, of
    w(. + x), of f and of f(. - s), and f's window ends, are panel hints.  An
    f made of panels confines the support to its window and that window
    moved by s, and the remainder its limits carry beyond them (a tail-built
    f) is carried over times g at the window ends; any other f widens the
    core window to its own, plus |s|."""
    wb = w.breakpoints()
    hints = list(wb) + list(wb - x)
    support = Interval(-math.inf, math.inf)
    core = core_halfwidth + abs(s)
    rem = (0.0, 0.0)
    if isinstance(f, Integrand):
        F = f.primitive
        lo, hi = F.support_window()
        fb = np.r_[F.breakpoints(), lo, hi]
        hints.extend(fb)
        hints.extend(fb + s)
        if F.pieces(True) is not None:
            support = Interval(min(lo, lo + s), max(hi, hi + s))
            _, _, F_lo, F_hi = F.pieces(False)
            rem = (F_lo - F.limit_neg, F.limit_pos - F_hi)
        else:
            core = max(core_halfwidth, abs(lo), abs(hi)) + abs(s)
    try:
        P = build_primitive_from_pointwise(h, support, tol, breakpoints=hints,
                                           core_halfwidth=core, label=label)
    except (NonConvergentTail, ToleranceNotMet) as exc:
        raise NonIntegrableProduct(str(exc)) from exc
    if rem == (0.0, 0.0):
        return P
    g_lo, g_hi = g(np.asarray([lo, hi]))  # a BV weight varies little out there
    out = PiecewiseChebyshevPrimitive(P.edges, P.fc, g_lo * rem[0], label=label,
                                      tail_estimated=True)
    out.limit_neg, out.limit_pos = 0.0, float(out.F_edges[-1] + g_hi * rem[1])
    return out


def weighted_norm(f, w: Weight) -> float:
    """Alexiewicz norm of the product fw."""
    return alexiewicz_norm(product_integrand(f, w))


def weighted_gap_sweep(f, w: Weight, xs: Sequence[float],
                       tol: float = 1e-9) -> List[GapReport]:
    """||(tau_x f - f) w|| along a shift ladder.

    Computed through the decomposition into the uniform-continuity term of the
    product primitive G and the ratio correction: the norm is the oscillation
    of D(t) = G(t-x) - G(t) + C_x(t-x), where C_x is the primitive of
    f(y) w(y) (g_x(y) - 1) = f(y) (w(y+x) - w(y)).  G and C_x are built to
    1e-10.
    """
    if not len(xs):
        raise ValueError("xs must be nonempty")
    for x in xs:
        _check_shift(x)
    if w.constant_value == 1.0 and isinstance(f, Integrand):
        return gap_sweep(f, xs, tol)

    build_tol = 1e-10
    G = product_integrand(f, w).primitive
    fp = _resolve_pointwise(f)
    reports = []
    for x in sorted(xs, key=lambda t: (-abs(t), t)):
        if x == 0.0:
            gap = bound = 0.0
        else:
            # triangle bound: the G difference term twice plus the spread of C_x
            gap, C = _weighted_gap_single(f, fp, w, G, x, build_tol)
            dmn, dmx = _difference_extrema(G, x)
            c_lo, c_hi = C.extrema()
            bound = 2.0 * max(abs(dmn), abs(dmx)) + (c_hi - c_lo)
        reports.append(GapReport(x=x, gap=gap, bound_upper=bound,
                                 passed=gap <= bound + tol))
    return reports


def _shift_gap(f, fp, w: Weight, s: float, build_tol: float) -> float:
    """||(tau_s f - f) w|| for a shift s != 0: the oscillation of one
    primitive of h_s = (f(. - s) - f) w, built to build_tol."""
    h = lambda y: (_call_vec(fp, y - s) - _call_vec(fp, y)) * w(y)
    dw = lambda y: w(y + s) - w(y)
    lo, hi = _weighted_primitive(h, dw, f, w, build_tol, 64.0, 0.0, s=s).extrema()
    return hi - lo


def _weighted_gap_single(f, fp, w: Weight, G, x: float, build_tol: float) -> tuple:
    """(gap, C_x) for a shift x != 0: the oscillation of D and the ratio
    correction primitive it was built from."""
    dw = lambda y: w(np.asarray(y, dtype=float) + x) - w(np.asarray(y, dtype=float))
    corr = lambda y: _call_vec(fp, np.asarray(y, dtype=float)) * dw(y)
    C = _weighted_primitive(corr, dw, f, w, build_tol, 64.0, x)

    g = G.pieces(True)
    if g is None:  # a constant weight times a closed-form f, so C = 0
        mn, mx = _difference_extrema(G, x)
        return mx - mn, C
    # D' = g(.-x) - g + c(.-x): D at the merged edges and its real roots
    t = _critical_points([(1.0, x, g), (-1.0, 0.0, g), (1.0, x, C.pieces(True))])
    D = np.r_[G.eval(t - x) - G.eval(t) + C.eval(t - x), 0.0, C.limit_pos]
    return float(D.max() - D.min()), C


# ---------------------------------------------------------------------------
# Uniform boundedness of BV families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaBoundReport:
    bound: float
    witnessed: bool
    variations: tuple
    sup_values: tuple


def uniform_bound_lemma_check(g_seq: Sequence[Evaluator], E, g_limit: Evaluator,
                              M: float) -> LemmaBoundReport:
    """Witness the uniform bound M + 1 + sup|g| for a variation-bounded family
    converging in measure to a BV limit; variations take 12 dyadic levels,
    sups the _GRID midpoint cells (sup|g| also 2 * _GRID), and both
    comparisons a slack of 1e-9.  M must be finite.

    Raises HypothesisViolated when a family member exceeds the variation
    budget M on the sampled window (the hypotheses fail, not the library).
    """
    if not math.isfinite(M):
        raise ValueError(f"the variation budget M must be finite, not {M}")
    E = _as_interval(E)
    tol = 1e-9
    mids = _midpoints(E, _GRID)
    variations, sups = [], []
    for i, gn in enumerate(g_seq):  # one pass, so any iterable is checked whole
        Vn = variation(gn, E)
        if Vn > M + tol:
            raise HypothesisViolated(
                f"family member {i} has variation {Vn:.6g} > budget {M:.6g}")
        variations.append(Vn)
        sups.append(float(np.abs(_call_vec(gn, mids)).max()))

    g_sup = max(float(np.abs(_call_vec(g_limit, mids)).max()),
                float(np.abs(_call_vec(g_limit, _midpoints(E, 2 * _GRID))).max()))
    bound = M + 1.0 + g_sup
    return LemmaBoundReport(bound=bound, witnessed=all(sn <= bound + tol for sn in sups),
                            variations=tuple(variations), sup_values=tuple(sups))
