"""Real functions represented by their continuous primitives.

An integrable object is stored through its primitive F (so that F' = f in the
distributional sense), a continuous function on the extended real line with
finite limits at both infinities.  Everything downstream (norms, translation
gaps, weighted products, Poisson integrals) reduces to evaluating, integrating
and taking oscillations/variations of such primitives, so this module carries
the concrete representations and the low-level engines:

* ``PiecewiseChebyshevPrimitive`` -- panels with a Chebyshev series for f and
  its antiderivative for F, made adaptively by ``build_primitive_from_pointwise``;
  extrema and variation are taken at the edges and the real roots of f, so
  they are exact to machine precision.
* ``PiecewiseLinearPrimitive`` -- exact node tables: panel primitives whose f
  is constant on each panel; only their interpolating evaluator is their own.
* ``ClosedFormPrimitive`` -- user- or registry-supplied closed forms; a cached
  Chebyshev proxy of F places the extrema, the closed form values them.

Other modules read a representation only through ``Primitive``: ``pieces``
gives panel rows (``search_pieces`` a closed form's proxy rows too),
``breakpoints`` the points where f may jump.

The extended real line is modelled by ordinary floats together with
``float('inf')`` / ``float('-inf')``, which already carry the required total
order.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import InvalidSpec, NonConvergentTail, ToleranceNotMet

Evaluator = Callable[[np.ndarray], np.ndarray]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # a subnormal width halves to itself
PROXY_TOL = 1e-6  # per unit spread of F: a closed form's proxy only places candidates
ROUNDING = 2.0 ** -40  # slack per unit operand size for the rounding in a pruning bound


@dataclass(frozen=True)
class Interval:
    """A closed interval [a, b] of the extended real line, a <= b."""

    a: float
    b: float

    def __post_init__(self):
        if math.isnan(self.a) or math.isnan(self.b):
            raise ValueError("interval endpoints must not be NaN")
        if not self.a <= self.b:
            raise ValueError(f"interval endpoints out of order: [{self.a}, {self.b}]")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.a) and math.isfinite(self.b)

    @property
    def length(self) -> float:
        return self.b - self.a

    def shifted(self, dx: float) -> "Interval":
        return Interval(self.a + dx, self.b + dx)


def _as_interval(I) -> Interval:
    if isinstance(I, Interval):
        return I
    a, b = I
    return Interval(float(a), float(b))


@dataclass(frozen=True)
class Partition:
    """A finite strictly increasing point set inside an interval."""

    points: tuple

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a partition needs at least two points")
        diffs = np.diff(np.asarray(self.points, dtype=float))
        if not np.all(diffs > 0):
            raise ValueError("partition points must be strictly increasing")

    @classmethod
    def dyadic(cls, I: Interval, levels: int, extra: Sequence[float] = ()) -> "Partition":
        """2**levels + 1 equispaced points on I, merged with any extra points in I."""
        if not I.finite:
            raise ValueError("dyadic partitions need a finite interval")
        if levels < 1:
            raise ValueError("levels must be >= 1")
        pts = np.linspace(I.a, I.b, 2 ** levels + 1)
        if len(extra):
            inside = np.asarray(extra, dtype=float)
            inside = inside[(inside >= I.a) & (inside <= I.b)]
            pts = np.union1d(pts, inside)
        return cls(tuple(pts))


def _call_vec(func: Evaluator, xs: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized func on an array; its output must have the
    input's shape."""
    xs = np.asarray(xs, dtype=float)
    out = np.asarray(func(xs), dtype=float)
    if out.shape != xs.shape:
        raise InvalidSpec(f"evaluator returned shape {out.shape} for input shape {xs.shape}")
    return out


@lru_cache(maxsize=64)
def gauss_nodes(n: int):
    # numpy's nodes, and w = 2 / ((1 - x^2) P_n'(x)^2) by the three-term
    # recurrence: within 1.2e-16 of 40-digit mpmath at n = 8, 16 and 48,
    # where numpy's own weights are off by up to 3.9e-15
    x = np.polynomial.legendre.leggauss(n)[0]
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# ---------------------------------------------------------------------------
# Primitive representations
# ---------------------------------------------------------------------------


class Primitive:
    """Continuous F on the extended real line with finite limits at +-inf."""

    limit_neg: float
    limit_pos: float
    label: str
    tail_estimated = False  # limits carry an extrapolated tail remainder beyond the panels

    def eval(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)

    def breakpoints(self) -> np.ndarray:
        """Increasing points where f = F' may jump, moving with ``shifted``: panel
        edges, or a closed form's declared support ends (empty if none)."""
        raise NotImplementedError

    def support_window(self) -> tuple:
        """Finite window outside which F is (at least numerically) constant."""
        raise NotImplementedError

    def shifted(self, dx: float) -> "Primitive":
        raise NotImplementedError

    def scaled(self, c: float) -> "Primitive":
        raise NotImplementedError

    def extrema(self) -> tuple:
        """(min, max) of F over the extended real line, limits included."""
        raise NotImplementedError

    def window_integral(self, u, v):
        """Integral of F itself over the finite windows [u, v], elementwise
        for arrays u and v of one shape; a scalar pair gives a float.  Beyond
        the nodes of a table or panels F is taken at its declared limits."""
        raise NotImplementedError

    def pointwise_derived(self) -> Optional[Evaluator]:
        """Derivative evaluator recovered from the representation, if exact."""
        return None

    def pieces(self, derivative: bool) -> Optional[tuple]:
        """(edges, rows, below, above): per panel the Chebyshev coefficient
        rows (local coordinates) of f = F' when derivative is true, else of F,
        and the values left and right of the panels.  None for a closed form."""
        return None

    def search_pieces(self, derivative: bool) -> tuple:
        """The ``pieces`` rows that place critical points (a closed form's proxy)."""
        return self.pieces(derivative)

    def search_slack(self) -> tuple:
        """(err, size): how far F may stray from the F of its search rows (0
        where they are its own), and a bound on |F| from those rows' absolute
        coefficient sums and the limits."""
        _, rows, below, above = self.search_pieces(False)
        return 0.0, max(abs(below), abs(above), float(np.abs(rows).sum(axis=1).max()))

    def total_variation(self) -> Optional[float]:
        """Exact total variation of F when the representation allows it."""
        return None

    def equals(self, other: "Primitive") -> bool:
        return self is other


def _same_bits(a: float, b: float) -> bool:
    """a and b are the same float, the sign of a zero included."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _finite_window(window, name: str) -> tuple:
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"{name} must be a finite window [a, b] with a < b, got {window!r}")
    return a, b


def _chained_antiderivative(edges: np.ndarray, coefs: np.ndarray, start: float):
    """Per-panel Chebyshev antiderivatives of the rows of coefs, each constant
    shifted so the panels join continuously from value start at edges[0].
    Returns the coefficient rows and the values at the edges."""
    n, d = coefs.shape
    out = np.zeros((n, d + 1))
    ints = _cheb.chebint(coefs, axis=1)  # a single all-zero column stays one column
    out[:, :ints.shape[1]] = 0.5 * np.diff(edges)[:, None] * ints
    left = _cheb.chebval(-1.0, out.T)
    at_edges = np.empty(n + 1)
    at_edges[0] = start
    for i, row in enumerate(out):  # in order: each panel starts where the last ended
        row[0] += at_edges[i] - left[i]
        at_edges[i + 1] = _cheb.chebval(1.0, row)
    return out, at_edges


class PiecewiseChebyshevPrimitive(Primitive):
    """Panel representation: per panel a Chebyshev series for f (``fc``) and
    its exact antiderivative for F (``Fc``).  Constant outside the panels."""

    def __init__(self, edges, f_coefs, F_edge0: float = 0.0, label: str = "",
                 tail_estimated: bool = False):
        edges = np.asarray(edges, dtype=float)
        f_coefs = np.asarray(f_coefs, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError("panel edges must be strictly increasing")
        if f_coefs.shape[0] != len(edges) - 1:
            raise ValueError("one coefficient row per panel required")
        if not np.isfinite(np.r_[edges, f_coefs.ravel(), F_edge0]).all():
            raise ValueError("panel edges, rows and F_edge0 must be finite")
        self._set_panels(edges, f_coefs, *_chained_antiderivative(edges, f_coefs, F_edge0),
                         label)
        self.tail_estimated = tail_estimated

    def _set_panels(self, edges, fc, Fc, F_edges, label: str):
        self.edges, self.fc, self.Fc, self.F_edges = edges, fc, Fc, F_edges
        self.limit_neg = float(F_edges[0])
        self.limit_pos = float(F_edges[-1])
        self.label = label
        self._extrema_cache = {}
        self._SF = None  # window-integral antiderivative, built on first use

    def _eval_coef(self, x, coef_rows, below: float, above: float,
                   at_neg: float, at_pos: float):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        lo_mask = x <= self.edges[0]
        hi_mask = x >= self.edges[-1]
        out[lo_mask] = below
        out[hi_mask] = above
        mid = ~(lo_mask | hi_mask)  # NaN lands here and stays NaN
        if mid.any():
            xm = x[mid]
            # clamped in place: a fresh temporary costs page faults on large input
            idx = np.searchsorted(self.edges, xm, side="right") - 1
            idx = np.minimum(np.maximum(idx, 0, out=idx), len(self.edges) - 2, out=idx)
            a, b = self.edges[idx], self.edges[idx + 1]
            xi = (2.0 * xm - a - b) / (b - a)
            xi = np.minimum(np.maximum(xi, -1.0, out=xi), 1.0, out=xi)
            # each point runs the Clenshaw recurrence on its own panel's row
            out[mid] = _cheb.chebval(xi, coef_rows.T[:, idx], tensor=False)
        if not _same_bits(at_neg, below):
            out[x == -np.inf] = at_neg
        if not _same_bits(at_pos, above):
            out[x == np.inf] = at_pos
        return float(out[0]) if scalar else out

    def eval(self, x):
        # finite points outside the panel range sit at the edge values; the
        # declared limits (which may differ by an extrapolated tail remainder)
        # are returned exactly at +-inf
        return self._eval_coef(x, self.Fc, float(self.F_edges[0]),
                               float(self.F_edges[-1]),
                               self.limit_neg, self.limit_pos)

    def pointwise_derived(self):
        return lambda y: self._eval_coef(y, self.fc, 0.0, 0.0, 0.0, 0.0)

    def breakpoints(self):
        return self.edges

    def support_window(self):
        return (float(self.edges[0]), float(self.edges[-1]))

    def shifted(self, dx: float):
        if dx == 0.0:
            return self
        out = copy.copy(self)  # shares _extrema_cache: extrema are shift invariant
        out.edges = self.edges + dx
        out._SF = None
        return out

    def scaled(self, c: float):
        out = copy.copy(self)
        out.fc, out.Fc, out.F_edges = self.fc * c, self.Fc * c, self.F_edges * c
        out.limit_neg, out.limit_pos = self.limit_neg * c, self.limit_pos * c
        out._extrema_cache, out._SF = {}, None
        return out

    def pieces(self, derivative):
        if derivative:
            return self.edges, self.fc, 0.0, 0.0
        return self.edges, self.Fc, float(self.F_edges[0]), float(self.F_edges[-1])

    def _critical_values(self) -> np.ndarray:
        # F at its edges and at the real roots of f, in increasing order
        if "crit" not in self._extrema_cache:
            t = _critical_points([(1.0, 0.0, self.pieces(True))])
            self._extrema_cache["crit"] = self.eval(t)
        return self._extrema_cache["crit"]

    def extrema(self):
        vals = self._critical_values()
        return (min(float(vals.min()), self.limit_neg, self.limit_pos),
                max(float(vals.max()), self.limit_neg, self.limit_pos))

    def total_variation(self):
        return float(np.abs(np.diff(self._critical_values())).sum())

    def window_integral(self, u, v):
        if self._SF is None:
            self._SF = _chained_antiderivative(self.edges, self.Fc, 0.0)
        SFc, SF_edges = self._SF
        a, b = self.support_window()

        def S(t):  # S' = F and S(a) = 0; F is at its limits outside [a, b]
            t = np.asarray(t, dtype=float)
            return np.where(t <= a, (t - a) * self.limit_neg,
                            np.where(t >= b, SF_edges[-1] + (t - b) * self.limit_pos,
                                     self._eval_coef(t, SFc, 0.0, 0.0, 0.0, 0.0)))

        out = S(v) - S(u)
        return float(out) if np.ndim(out) == 0 else out

    def equals(self, other):
        # F itself: a table's chord rows depend on its node values alone
        return (
            type(other) is type(self)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.Fc, other.Fc)
            and np.array_equal(self.F_edges, other.F_edges)
            and self.limit_neg == other.limit_neg
            and self.limit_pos == other.limit_pos
        )


class PiecewiseLinearPrimitive(PiecewiseChebyshevPrimitive):
    """Node table (x_i, F_i); F is linear between nodes and constant outside.

    A panel primitive whose panels are the node intervals: f is the slope
    (a degree-0 row) and F the chord (a degree-1 row) on each.  Only its
    evaluator is its own: interpolation, exact at the nodes."""

    def __init__(self, xs, ys, label: str = ""):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("need matching 1-d arrays with at least two nodes")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("table entries must be finite")
        self._set_panels(xs, (np.diff(ys) / np.diff(xs))[:, None],
                         np.c_[ys[1:] + ys[:-1], np.diff(ys)] * 0.5, ys, label)

    xs = property(lambda self: self.edges, doc="The nodes x_i.")
    ys = property(lambda self: self.F_edges, doc="F at the nodes.")

    def eval(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.xs, self.ys)
        return float(out) if np.ndim(out) == 0 else out


class ClosedFormPrimitive(Primitive):
    """F given by a vectorized closed-form evaluator plus declared limits.

    ``scan`` is the window where F is allowed to vary appreciably, or
    ``support`` when one is declared.  A Chebyshev proxy of F on that window,
    built on first use to PROXY_TOL per unit spread of F, places the candidate
    extrema at its edges and its derivative's real roots; F gives the values.
    """

    def __init__(self, func: Evaluator, limit_neg: float, limit_pos: float,
                 scan, support=None, label: str = ""):
        if not (math.isfinite(limit_neg) and math.isfinite(limit_pos)):
            raise ValueError("a primitive needs finite limits at both infinities")
        self.func = func
        self.limit_neg = float(limit_neg)
        self.limit_pos = float(limit_pos)
        self.scan = _finite_window(scan, "scan")
        self.support = None if support is None else _finite_window(support, "support")
        self.shift = 0.0
        self.label = label
        self._extrema_cache = {}

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.isfinite(x).all():  # one call, no masks
            out = _call_vec(self.func, x.ravel() - self.shift).reshape(x.shape)
            return float(out[0]) if scalar else out
        out = np.empty_like(x)
        neg = np.isneginf(x)
        pos = np.isposinf(x)
        fin = ~(neg | pos)
        out[neg] = self.limit_neg
        out[pos] = self.limit_pos
        if fin.any():
            out[fin] = _call_vec(self.func, x[fin] - self.shift)
        return float(out[0]) if scalar else out

    def breakpoints(self):
        if self.support is None:
            return np.empty(0)
        return np.asarray(self.support) + self.shift

    def support_window(self):
        win = self.support if self.support is not None else self.scan
        return (win[0] + self.shift, win[1] + self.shift)

    def shifted(self, dx: float):
        if dx == 0.0:
            return self
        out = copy.copy(self)  # shares _extrema_cache: extrema are shift invariant
        out.shift = self.shift + dx
        return out

    def scaled(self, c: float):
        base = self.func
        sh = self.shift
        return ClosedFormPrimitive(lambda y: c * _call_vec(base, y - sh),
                                   c * self.limit_neg, c * self.limit_pos,
                                   (self.scan[0] + sh, self.scan[1] + sh),
                                   None if self.support is None else
                                   (self.support[0] + sh, self.support[1] + sh),
                                   self.label)

    def _proxy(self) -> tuple:
        # (edges, F rows, f rows, err) of the unshifted proxy, shared by shifted
        # copies (the builder's fc are F's rows); tol is PROXY_TOL times F's spread
        # on 1025 points and the limits, in powers of two, so c = 2^j scales the
        # proxy by c; err, the largest per-panel build error over its half-width,
        # bounds |F - proxy| on the window
        if "proxy" not in self._extrema_cache:
            w = self.support or self.scan
            F = np.r_[self.limit_neg, self.limit_pos, _call_vec(self.func, np.linspace(*w, 1025))]
            spread = float(F.max()) - float(F.min())  # inf - inf: NaN, no warning
            exp = math.frexp(spread)[1] - 1 if 0.0 < spread < math.inf else 0
            P = build_primitive_from_pointwise(self.func, w, math.ldexp(PROXY_TOL, exp))
            df = _cheb.chebder(P.fc, axis=1) * (2.0 / np.diff(P.edges))[:, None]
            j, moments = _cheb_moments(P.fc.shape[1])  # _fit_panel's err over hw
            up = j >= P.fc.shape[1] // 2
            err = float((np.abs(P.fc[:, -2:]).sum(axis=1)
                         + np.abs(P.fc[:, j[up]] @ moments[up])).max())
            self._extrema_cache["proxy"] = (P.edges, P.fc, df, err)
        return self._extrema_cache["proxy"]

    def search_pieces(self, derivative):
        edges, Fc, fc, _ = self._proxy()
        if derivative:
            return edges + self.shift, fc, 0.0, 0.0
        return edges + self.shift, Fc, self.limit_neg, self.limit_pos

    def search_slack(self):
        return self._proxy()[3], super().search_slack()[1]

    def extrema(self):
        if "ext" not in self._extrema_cache:
            edges, _, fc, _ = self._proxy()
            err, size = self.search_slack()
            vals = np.r_[_extreme_values([(1.0, 0.0, (edges, fc, 0.0, 0.0))],
                                         lambda t: _call_vec(self.func, t),
                                         2.0 * err + ROUNDING * size),
                         self.limit_neg, self.limit_pos]
            self._extrema_cache["ext"] = (float(vals.min()), float(vals.max()))
        return self._extrema_cache["ext"]

    def window_integral(self, u, v):
        # 48 Gauss-Legendre nodes per window, on its part inside a declared
        # support; outside it F is a limit, so those parts are limit x length;
        # np.vecdot gives each window the bits of np.dot, whatever the batch
        # and the BLAS thread count
        nodes, wts = gauss_nodes(48)
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        a, b = u, v
        if self.support is not None:
            lo, hi = self.support[0] + self.shift, self.support[1] + self.shift
            a, b = np.clip(u, lo, hi), np.clip(v, lo, hi)
        hw = 0.5 * (b - a)[..., None]
        out = np.vecdot(hw * self.eval(0.5 * (a + b)[..., None] + hw * nodes), wts)
        if self.support is not None:
            out = (out + np.where(u < lo, self.limit_neg, self.limit_pos) * (a - u)
                   + np.where(v < lo, self.limit_neg, self.limit_pos) * (v - b))
        return float(out) if np.ndim(out) == 0 else out

    def equals(self, other):
        return (
            isinstance(other, ClosedFormPrimitive)
            and self.func is other.func
            and self.shift == other.shift
            and self.limit_neg == other.limit_neg
            and self.limit_pos == other.limit_pos
        )


# ---------------------------------------------------------------------------
# Integrand
# ---------------------------------------------------------------------------


class Integrand:
    """An integrable object: a primitive plus an optional pointwise evaluator.

    Equality is by primitive; pointwise values on null sets never matter.
    """

    __slots__ = ("primitive", "pointwise", "label")

    def __init__(self, primitive: Primitive, pointwise: Optional[Evaluator] = None,
                 label: str = ""):
        self.primitive = primitive
        self.pointwise = pointwise
        self.label = label or primitive.label

    def pointwise_or_derived(self) -> Optional[Evaluator]:
        if self.pointwise is not None:
            return self.pointwise
        return self.primitive.pointwise_derived()

    def __eq__(self, other):
        if not isinstance(other, Integrand):
            return NotImplemented
        return self.primitive.equals(other.primitive)

    def __repr__(self):
        return f"Integrand({self.label or self.primitive.__class__.__name__})"


# ---------------------------------------------------------------------------
# Basic operations
# ---------------------------------------------------------------------------


def integral(f: Integrand, I) -> float:
    """The integral of f over I, computed as F(b) - F(a)."""
    I = _as_interval(I)
    F = f.primitive
    return float(F.eval(I.b)) - float(F.eval(I.a))


def _dyadic_samples(h, I: Interval, levels: int, extra_points) -> np.ndarray:
    """h sampled for variation and oscillation: a Primitive's window stands
    in for an infinite endpoint, and its breakpoints join extra_points (on
    an unbounded I, a panel primitive's edges and the roots of its f)."""
    if isinstance(h, Integrand):
        h = h.primitive
    if isinstance(h, Primitive):
        ev, seeds = h.eval, h.breakpoints()
        if not I.finite and h.pieces(True) is not None:
            seeds = _critical_points([(1.0, 0.0, h.pieces(True))])
        lo, hi = h.support_window()
        a = I.a if math.isfinite(I.a) else lo
        b = I.b if math.isfinite(I.b) else hi
        a, b = min(a, b), max(a, b)
        if a == b:
            b = a + 1.0
        I = Interval(a, b)
    elif not I.finite:
        raise ValueError("an unbounded interval needs a Primitive operand")
    else:
        ev, seeds = (lambda y: _call_vec(h, y)), ()
    pts = np.asarray(Partition.dyadic(I, levels, tuple(seeds) + tuple(extra_points)).points)
    return ev(pts)


def variation(h, I, levels: int = 12, extra_points: Sequence[float] = ()) -> float:
    """Lower estimate of the total variation of h over I.

    Sums |h(p_{k+1}) - h(p_k)| over a dyadic refinement with 2**levels + 1
    points, augmented with the breakpoints of table representations (which
    makes the result exact for piecewise-monotone tables).  On an unbounded
    I the points span a Primitive's support window, tail panels included,
    and take in a panel primitive's critical points, which makes the result
    exact.  Estimates are monotone nondecreasing in ``levels`` and never
    exceed the true variation.
    """
    I = _as_interval(I)
    if I.length == 0.0:
        return 0.0
    vals = _dyadic_samples(h, I, levels, extra_points)
    return float(np.abs(np.diff(vals)).sum())


def oscillation(h, I, levels: int = 12, extra_points: Sequence[float] = ()) -> float:
    """sup h - inf h over I, estimated on the variation refinement scheme.

    For a Primitive on an unbounded interval the limit values participate.
    """
    I = _as_interval(I)
    if I.length == 0.0:
        return 0.0
    vals = _dyadic_samples(h, I, levels, extra_points)
    lo = float(vals.min())
    hi = float(vals.max())
    if isinstance(h, Integrand):
        h = h.primitive
    if isinstance(h, Primitive):
        if not math.isfinite(I.a):
            lo, hi = min(lo, h.limit_neg), max(hi, h.limit_neg)
        if not math.isfinite(I.b):
            lo, hi = min(lo, h.limit_pos), max(hi, h.limit_pos)
    return hi - lo


# Unused by the library; kept because bench/tracer.py patches both by name.
def minimize_scalar(*args, **kwargs):
    """scipy's minimize_scalar, imported on the first call: importing loads numpy only."""
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar
    return scipy_minimize_scalar(*args, **kwargs)


def grid_extrema(ev: Evaluator, window, *, levels: int = 17, seeds: Sequence[float] = (),
                 include: Sequence[float] = (), refine: bool = True) -> tuple:
    """(min, max) of a callable on a window: dense grid plus local refinement
    of the three largest and the three smallest grid values.

    ``include`` values (e.g. limits at infinity) join the candidate set as-is.
    Being a sampled supremum the result never overshoots the true extrema.
    """
    a, b = float(window[0]), float(window[1])
    pts = np.linspace(a, b, 2 ** levels + 1)
    if len(seeds):
        s = np.asarray(seeds, dtype=float)
        pts = np.union1d(pts, s[(s >= a) & (s <= b)])
    vals = _call_vec(ev, pts)
    lo = float(vals.min())
    hi = float(vals.max())
    if refine and len(pts) > 2:
        for sign in (1.0, -1.0):
            v = vals if sign > 0 else -vals
            order = np.argsort(v)[::-1][:3]
            for i in order:
                l = pts[max(i - 1, 0)]
                r = pts[min(i + 1, len(pts) - 1)]
                if r <= l:
                    continue
                res = minimize_scalar(lambda t: -sign * float(_call_vec(ev, np.asarray([t]))[0]),
                                      bounds=(l, r), method="bounded",
                                      options={"xatol": 1e-12 * max(1.0, abs(r) + abs(l))})
                y = float(_call_vec(ev, np.asarray([res.x]))[0])
                lo = min(lo, y)
                hi = max(hi, y)
    for c in include:
        lo = min(lo, float(c))
        hi = max(hi, float(c))
    return lo, hi


def _merged_rows(terms) -> tuple:
    """(edges, mid, hw, coef, rows, deg) of a sum of terms (sign, shift,
    piece), sign times a ``Primitive.pieces`` series moved right by shift:
    the merged edges; per merged panel its midpoint, half-width and the
    sum's Chebyshev row, resampled at as many Chebyshev nodes as the widest
    row; and the rows that may vanish in [-1, 1], those without
    |c_0| > sum_{k>=1} |c_k|, with their degrees trimmed at rounding level."""
    edges = np.unique(np.concatenate([p[0] + s for _, s, p in terms]))
    mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    coef = terms[0][2][1]  # one unshifted term keeps its own rows
    if len(terms) > 1 or terms[0][1] != 0.0:
        nodes, M = _cheb_fit_matrix(max(p[1].shape[1] for _, _, p in terms))
        t = mid[:, None] + hw[:, None] * nodes
        vals = np.zeros_like(t)
        for sign, s, (e, rows, below, above) in terms:
            i = np.searchsorted(e, mid - s, side="right") - 1
            v = np.where((i < 0)[:, None], below, above + 0.0 * t)
            inside = np.flatnonzero((i >= 0) & (i < len(e) - 1))
            a, b = e[i[inside], None], e[i[inside] + 1, None]
            xi = np.clip((2.0 * (t[inside] - s) - a - b) / (b - a), -1.0, 1.0)
            v[inside] = _cheb.chebval(xi, rows[i[inside]].T[:, :, None], tensor=False)
            vals += sign * v
        coef = vals @ M.T
    rows = np.flatnonzero(np.abs(coef[:, 0]) <= np.abs(coef[:, 1:]).sum(axis=1))
    c = coef[rows]
    big = np.abs(c) > _EPS * np.abs(c).max(axis=1, initial=0.0)[:, None]
    return edges, mid, hw, coef, rows, np.where(big, np.arange(c.shape[1]), 0).max(axis=1, initial=0)


def _real_roots(coef, mid, hw, rows, deg) -> np.ndarray:
    """The real roots inside their panels of the given rows, of degrees deg:
    the eigenvalues of numpy's colleague matrices, one eigvals call per
    degree (Boyd, SIAM J. Numer. Anal. 40, 2002; Battles and Trefethen, SIAM
    J. Sci. Comput. 25, 2004)."""
    c, mid, hw = coef[rows], mid[rows], hw[rows]
    found = [np.empty(0)]
    for n in np.unique(deg[deg > 0]):
        cn = c[deg == n, :n + 1]
        if n == 1:
            r = -cn[:, :1] / cn[:, 1:] + 0j
        else:  # chebcompanion's scaled matrices, rotated as chebroots does
            scl = np.r_[1.0, np.full(n - 1, math.sqrt(0.5))]
            k = np.arange(n - 1)
            A = np.zeros((len(cn), n, n))
            A[:, k, k + 1] = A[:, k + 1, k] = np.r_[math.sqrt(0.5), np.full(n - 2, 0.5)]
            A[:, :, -1] -= (cn[:, :-1] / cn[:, -1:]) * (scl / scl[-1]) * 0.5
            r = np.linalg.eigvals(A[:, ::-1, ::-1])
        # near-double roots come out as complex pairs: real parts only add samples
        real = (np.abs(r.imag) < 1e-6) & (np.abs(r.real) < 1.0)
        found.append((mid[deg == n, None] + hw[deg == n, None] * r.real)[real])
    return np.concatenate(found)


def _critical_points(terms) -> np.ndarray:
    """Sorted merged edges and real roots of a sum of terms (as for
    _merged_rows).  Callers pass the derivative of the function they want the
    variation of, and evaluate that function at these points (extrema:
    _extreme_values)."""
    edges, mid, hw, coef, rows, deg = _merged_rows(terms)
    return np.unique(np.r_[edges, _real_roots(coef, mid, hw, rows, deg)])


def _extreme_values(terms, value, pad) -> np.ndarray:
    """value at the merged edges and at the real roots of the terms (as for
    _critical_points) on those panels only that can hold its extrema, so the
    values' min and max are those at every critical point.

    On a merged panel of half-width hw with edge values v_a, v_b and
    derivative row c, value stays within (v_a + v_b)/2 -+ hw sum |c_k|
    (its integral of |value'| is at most 2 hw sum |c_k|).  A row of degree 2
    or more skips its colleague matrix when that range, widened by pad, lies
    strictly between the extremes found so far: first those of the edges and
    of the two rows whose ranges reach farthest.  pad must cover the
    rounding of the values and any gap between value and the terms'
    primitive (a closed form against its proxy)."""
    edges, mid, hw, coef, rows, deg = _merged_rows(terms)
    if not (deg >= 2).any():  # no colleague matrix to spare: one evaluation
        return value(np.unique(np.r_[edges, _real_roots(coef, mid, hw, rows, deg)]))

    def at_roots(mask):
        r = _real_roots(coef, mid, hw, rows[mask], deg[mask])
        return value(r) if len(r) else r

    v = value(edges)
    centre = 0.5 * (v[rows] + v[rows + 1])
    reach = hw[rows] * np.abs(coef[rows]).sum(axis=1) + pad
    up, down = centre + reach, centre - reach
    first = deg < 2
    first[[up.argmax(), down.argmin()]] = True
    v = np.r_[v, at_roots(first)]
    return np.r_[v, at_roots(~first & ((up >= v.max()) | (down <= v.min())))]


# ---------------------------------------------------------------------------
# Adaptive construction of primitives from pointwise data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _cheb_fit_matrix(npts: int):
    theta = (np.arange(npts) + 0.5) * np.pi / npts
    nodes = np.cos(theta)
    M = np.cos(np.outer(np.arange(npts), theta)) * (2.0 / npts)
    M[0] *= 0.5
    return nodes, M


@lru_cache(maxsize=8)
def _cheb_moments(n: int):
    # the even indices j < n and the integrals 2 / (1 - j^2) of T_j over [-1, 1]
    j = np.arange(0, n, 2)
    return j, 2.0 / (1.0 - j * j)


def _cheb_integral(coefs: np.ndarray) -> float:
    # integral of a Chebyshev series over local coordinates [-1, 1]
    j, moments = _cheb_moments(len(coefs))
    return float(np.dot(coefs[j], moments))


def _fit_panel(f_eval, a: float, b: float):
    npts = 17  # degree-16 Chebyshev fits
    nodes, M = _cheb_fit_matrix(npts)
    hw = 0.5 * (b - a)
    xs = 0.5 * (a + b) + hw * nodes
    vals = _call_vec(f_eval, xs)
    # before the matmul, which warns on infinite data; a Python sum warns on
    # nothing and is finite exactly when the data are (short of overflow)
    if not math.isfinite(sum(vals.tolist())):
        raise ToleranceNotMet("pointwise data is not finite")
    coefs = M @ vals
    I_full = hw * _cheb_integral(coefs)
    I_half = hw * _cheb_integral(coefs[: max(2, npts // 2)])
    err = hw * (abs(coefs[-1]) + abs(coefs[-2])) + abs(I_full - I_half)
    return coefs, I_full, err


def build_primitive_from_pointwise(
    f_eval: Evaluator,
    support,
    tol: float,
    *,
    breakpoints: Sequence[float] = (),
    core_halfwidth: float = 64.0,
    max_panels: int = 20000,
    label: str = "",
) -> PiecewiseChebyshevPrimitive:
    """Build F with F' = f_eval by globally adaptive Chebyshev panels.

    The total quadrature error over all panels is driven below ``tol`` by
    splitting the worst panel first.  Infinite support endpoints are
    truncated to the core window, and beyond it windows doubling away from
    the core are fitted as panels until three window masses shrink and the
    last is below max(tol, 1e-13); only the geometric remainder beyond the
    last window goes into the declared limit.  Raises NonConvergentTail when
    the tail windows do not settle, and ToleranceNotMet when the panel
    budget is exhausted, as soon as panels too narrow to halve hold more
    than tol, or when the pointwise data or the error estimate is not
    finite.  A half-line beyond the core window is built on the 2 *
    core_halfwidth next to its finite end; an empty finite support raises
    InvalidSpec, and a tol outside (0, inf) raises ValueError.
    """
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    sup = _as_interval(support)
    left_inf = not math.isfinite(sup.a)
    right_inf = not math.isfinite(sup.b)
    a = sup.a if not left_inf else -core_halfwidth
    b = sup.b if not right_inf else core_halfwidth
    if b <= a:  # empty, or a half-line beyond the core window
        if not (left_inf or right_inf):
            raise InvalidSpec(f"support [{sup.a}, {sup.b}] is empty")
        a, b = (b - 2.0 * core_halfwidth, b) if left_inf else (a, a + 2.0 * core_halfwidth)

    heap = []
    done = []
    seq = itertools.count()  # ties in error split in order of fitting
    total_err = 0.0
    frozen = 0.0  # the error of the panels in done, which cannot be halved

    def push(pa: float, pb: float) -> float:
        nonlocal total_err
        c, Iv, e = _fit_panel(f_eval, pa, pb)
        if not math.isfinite(e):  # NaN passes every comparison against tol
            raise ToleranceNotMet(f"error estimate is not finite ({e})")
        heapq.heappush(heap, (-e, next(seq), pa, pb, c, Iv))
        total_err += e
        return Iv

    def tail(start: float, direction: int) -> float:
        # doubling windows away from the core become panels; returns the
        # geometric remainder beyond the last one
        t, masses = start, []
        while abs(t) <= 1e12:  # beyond, cancellation makes window masses meaningless
            t_next = direction * 2.0 * max(abs(t), 1.0)
            masses.append(push(min(t, t_next), max(t, t_next)))
            t = t_next
            last = np.abs(masses[-3:])
            if (len(last) == 3 and np.all(last[1:] <= last[:-1] * 0.9 + 1e-300)
                    and last[-1] < max(tol, 1e-13)):
                r = last[-1] / last[-2] if last[-2] > 0 else 0.0
                return masses[-1] * r / (1.0 - r) if 0.0 < r < 0.95 else 0.0
        raise NonConvergentTail("doubling-window tail masses did not stabilize")

    edges0 = [a] + sorted({float(t) for t in breakpoints if a < t < b}) + [b]
    for pa, pb in zip(edges0[:-1], edges0[1:]):
        push(pa, pb)
    # convention: F(-inf) = 0, so the panels start at the remainder left of them
    left_rem = tail(a, -1) if left_inf else 0.0
    right_rem = tail(b, +1) if right_inf else 0.0

    while total_err > tol and heap:
        if len(heap) + len(done) >= max_panels:
            raise ToleranceNotMet(
                f"panel budget {max_panels} exhausted with error {total_err:.3e} > {tol:.3e}")
        neg_e, _, pa, pb, c, Iv = heapq.heappop(heap)
        e = -neg_e
        # a relative floor: panels near 0 may be as narrow as they need
        if pb - pa <= max(64.0 * _EPS * max(abs(pa), abs(pb)), _TINY):  # cannot be halved
            done.append((pa, pb, c, Iv, e))
            frozen += e
            if frozen > tol:
                raise ToleranceNotMet(
                    f"unsplittable panels leave error {frozen:.3e} > {tol:.3e}")
            continue
        total_err -= e
        mid = 0.5 * (pa + pb)
        push(pa, mid)
        push(mid, pb)

    panels = done + [(pa, pb, c, Iv, -ne) for ne, _, pa, pb, c, Iv in heap]
    panels.sort(key=lambda p: p[0])
    edges = np.asarray([p[0] for p in panels] + [panels[-1][1]])
    fcoefs = np.asarray([p[2] for p in panels])
    out = PiecewiseChebyshevPrimitive(edges, fcoefs, F_edge0=left_rem, label=label,
                                      tail_estimated=left_inf or right_inf)
    if left_inf:
        out.limit_neg = 0.0
    if right_inf:
        out.limit_pos = float(out.F_edges[-1] + right_rem)
    return out
