"""Reference values computed apart from the library.

Nothing here imports ``alexnorm``.  Each oracle works from the mathematical
definition of the quantity and the raw input data (node tables, polynomial
coefficients, closed forms), with numpy and scipy only:

* node tables: the primitive F is piecewise linear, so every quantity is
  evaluated exactly on the merged node set (brute force over the tables);
* polynomial data on an interval: exact piecewise-polynomial algebra with
  extrema from ``numpy.polynomial`` roots;
* smooth closed forms: extrema from bracketed roots of the analytic
  derivative (sign scan plus ``brentq``), integrals from analytic
  antiderivatives or ``scipy.integrate.quad``;
* Poisson integrals: kernel masses in closed form, or ``quad`` of the kernel
  against the boundary data after the substitution t = x + y tan(theta).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, sici

# A weight is ("rq",) for w(y) = 1/(y^2+1), or ("table", breakpoints, values)
# for the right-continuous step weight with len(values) == len(breakpoints)+1.
RQ = ("rq",)


def weight_breakpoints(w) -> np.ndarray:
    return np.asarray(w[1], dtype=float) if w[0] == "table" else np.empty(0)


def weight_eval(w, y):
    y = np.asarray(y, dtype=float)
    if w[0] == "rq":
        return 1.0 / (y * y + 1.0)
    bps, vals = np.asarray(w[1], dtype=float), np.asarray(w[2], dtype=float)
    return vals[np.searchsorted(bps, y, side="right")]


def _oscillation(values, include=()) -> float:
    v = np.concatenate([np.asarray(values, dtype=float).ravel(),
                        np.asarray(include, dtype=float)])
    return float(v.max() - v.min())


# ---------------------------------------------------------------------------
# Node tables: F piecewise linear through (xs, ys), constant outside
# ---------------------------------------------------------------------------


def table_norm(xs, ys) -> float:
    return _oscillation(ys)


def table_slopes(xs, ys) -> np.ndarray:
    return np.diff(ys) / np.diff(xs)


def table_density(xs, ys, y) -> np.ndarray:
    """f = F' at points that are not nodes; 0 outside the table."""
    y = np.asarray(y, dtype=float)
    idx = np.searchsorted(xs, y, side="right") - 1
    inside = (idx >= 0) & (idx < len(xs) - 1)
    out = np.zeros_like(y)
    out[inside] = table_slopes(xs, ys)[idx[inside]]
    return out


def table_gap(xs, ys, x: float) -> float:
    """osc of H(y) = F(y-x) - F(y): H is linear between merged nodes and 0 at
    both infinities."""
    nodes = np.union1d(xs, xs + x)
    H = np.interp(nodes - x, xs, ys) - np.interp(nodes, xs, ys)
    return _oscillation(H, (0.0,))


def _table_antiderivative(xs, ys, t) -> np.ndarray:
    """A(t) = integral of F from xs[0] to t, exact (F linear between nodes)."""
    t = np.asarray(t, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))])
    i = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(xs) - 2)
    dt = np.clip(t, xs[0], xs[-1]) - xs[i]
    inner = cum[i] + ys[i] * dt + 0.5 * table_slopes(xs, ys)[i] * dt * dt
    below = ys[0] * np.minimum(t - xs[0], 0.0)
    above = ys[-1] * np.maximum(t - xs[-1], 0.0)
    return inner + below + above


def table_primitive_gap_norm(xs, ys, x: float) -> float:
    """osc over a of W(a) = integral of F over [a-x, a], x > 0.

    W' = F(a) - F(a-x) is linear between merged nodes, so W's extrema sit at
    the nodes or at the zero of W' inside a segment."""
    nodes = np.union1d(xs, xs + x)
    d = np.interp(nodes, xs, ys) - np.interp(nodes - x, xs, ys)
    i = np.nonzero(d[:-1] * d[1:] < 0)[0]
    roots = nodes[i] + d[i] * (nodes[i + 1] - nodes[i]) / (d[i] - d[i + 1])
    cand = np.concatenate([nodes, roots])
    W = _table_antiderivative(xs, ys, cand) - _table_antiderivative(xs, ys, cand - x)
    return _oscillation(W, (x * ys[0], x * ys[-1]))


def table_primitive_gap_l1(xs, ys, x: float) -> float:
    """integral of |F(y-x) - F(y)|, exact on the merged nodes."""
    nodes = np.union1d(xs, xs + x)
    H = np.interp(nodes - x, xs, ys) - np.interp(nodes, xs, ys)
    h0, h1, dt = H[:-1], H[1:], np.diff(nodes)
    cross = h0 * h1 < 0
    den = np.where(cross, np.abs(h0) + np.abs(h1), 1.0)
    seg = np.where(cross, 0.5 * dt * (h0 * h0 + h1 * h1) / den,
                   0.5 * dt * (np.abs(h0) + np.abs(h1)))
    return float(seg.sum())


def _weight_mass(w, a, b) -> np.ndarray:
    """integral of w over each [a_k, b_k] on which w is continuous."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if w[0] == "rq":
        return np.arctan(b) - np.arctan(a)
    return weight_eval(w, 0.5 * (a + b)) * (b - a)


def table_weighted_gap(xs, ys, x: float, w) -> float:
    """osc of D(t) = integral_{-inf}^t (f(s-x) - f(s)) w(s) ds.

    On each merged piece f(s-x) - f(s) is a constant, so D is monotone there
    and its extrema sit at the merged nodes (0 at -inf, the total at +inf)."""
    nodes = np.union1d(np.union1d(xs, xs + x), weight_breakpoints(w))
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    c = table_density(xs, ys, mid - x) - table_density(xs, ys, mid)
    D = np.concatenate([[0.0], np.cumsum(c * _weight_mass(w, a, b))])
    return _oscillation(D, (0.0,))


# ---------------------------------------------------------------------------
# Polynomial data: f = p on [a, b], 0 outside, F(-inf) = F0
# ---------------------------------------------------------------------------


class PolyPiece:
    """f = p on [a, b] and 0 elsewhere, with primitive F(y) = F0 + int_a^y f."""

    def __init__(self, coefs, a: float, b: float, F0: float = 0.0):
        self.p = Polynomial(coefs)
        self.a, self.b = float(a), float(b)
        self.F0 = float(F0)
        P = self.p.integ()
        self.Fp = P - P(self.a) + self.F0      # F on [a, b]
        self.F1 = float(self.Fp(self.b))         # F(+inf)
        Q = self.Fp.integ()
        self.Ap = Q - Q(self.a)                  # A = int_a^t F on [a, b]
        self.A1 = float(self.Ap(self.b))

    def f_local(self, t: float) -> Polynomial:
        return self.p if self.a <= t <= self.b else Polynomial([0.0])

    def F_local(self, t: float) -> Polynomial:
        if t < self.a:
            return Polynomial([self.F0])
        if t > self.b:
            return Polynomial([self.F1])
        return self.Fp

    def A(self, t: float) -> float:
        if t < self.a:
            return self.F0 * (t - self.a)
        if t > self.b:
            return self.A1 + self.F1 * (t - self.b)
        return float(self.Ap(t))

    def f(self, y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= self.a) & (y <= self.b), self.p(y), 0.0)

    def sup_abs_f(self) -> float:
        return _poly_extrema_abs(self.p, self.a, self.b)

    def pieces(self, x: float, extra=()) -> np.ndarray:
        pts = {self.a, self.b, self.a + x, self.b + x}
        pts.update(float(e) for e in extra)
        return np.asarray(sorted(pts))


def _shift(q: Polynomial, x: float) -> Polynomial:
    """y -> q(y - x)."""
    return q(Polynomial([-x, 1.0]))


def _real_roots(q: Polynomial, lo: float, hi: float) -> list:
    q = q.trim()
    if q.degree() < 1:
        return []
    r = q.roots()
    r = r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r.real))].real
    return [float(t) for t in r if lo < t < hi]


def _poly_extrema_abs(p: Polynomial, a: float, b: float) -> float:
    pts = [a, b] + _real_roots(p.deriv(), a, b)
    return float(np.max(np.abs(p(np.asarray(pts)))))


def poly_norm(pp: PolyPiece) -> float:
    pts = [pp.a, pp.b] + _real_roots(pp.p, pp.a, pp.b)
    return _oscillation(pp.Fp(np.asarray(pts)), (pp.F0, pp.F1))


def _difference_local(pp: PolyPiece, x: float, u: float, v: float) -> Polynomial:
    """H(y) = F(y-x) - F(y) on the merged piece [u, v]."""
    m = 0.5 * (u + v)
    return _shift(pp.F_local(m - x), x) - pp.F_local(m)


def poly_gap(pp: PolyPiece, x: float) -> float:
    edges = pp.pieces(x)
    vals = [0.0]
    for u, v in zip(edges[:-1], edges[1:]):
        H = _difference_local(pp, x, u, v)
        pts = [u, v] + _real_roots(H.deriv(), u, v)
        vals.extend(H(np.asarray(pts)))
    return _oscillation(vals)


def poly_primitive_gap_norm(pp: PolyPiece, x: float) -> float:
    """W(a) = A(a) - A(a-x); W' = -H, so candidates are the merged nodes and
    the roots of H on each merged piece."""
    edges = pp.pieces(x)
    cand = list(edges)
    for u, v in zip(edges[:-1], edges[1:]):
        cand.extend(_real_roots(_difference_local(pp, x, u, v), u, v))
    W = [pp.A(t) - pp.A(t - x) for t in cand]
    return _oscillation(W, (x * pp.F0, x * pp.F1))


def poly_primitive_gap_l1(pp: PolyPiece, x: float) -> float:
    edges = pp.pieces(x)
    total = 0.0
    for u, v in zip(edges[:-1], edges[1:]):
        H = _difference_local(pp, x, u, v)
        I = H.integ()
        pts = [u] + sorted(_real_roots(H, u, v)) + [v]
        total += sum(abs(float(I(q) - I(p))) for p, q in zip(pts[:-1], pts[1:]))
    return total


def _weighted_poly_integral(q: Polynomial, w, u: float, v: float) -> float:
    """integral of q(s) w(s) over [u, v], w continuous there.

    For w = 1/(s^2+1): q = (s^2+1) Q + alpha s + beta, so the integral is
    [int Q + (alpha/2) log(1+s^2) + beta atan(s)] from u to v."""
    if w[0] == "table":
        I = q.integ()
        return float(weight_eval(w, 0.5 * (u + v)) * (I(v) - I(u)))
    Q, R = divmod(q, Polynomial([1.0, 0.0, 1.0]))
    rc = np.concatenate([R.coef, [0.0, 0.0]])
    beta, alpha = rc[0], rc[1]
    IQ = Q.integ()
    return float(IQ(v) - IQ(u) + 0.5 * alpha * (math.log1p(v * v) - math.log1p(u * u))
                 + beta * (math.atan(v) - math.atan(u)))


def poly_weighted_gap(pp: PolyPiece, x: float, w) -> float:
    """osc of D(t) = int_{-inf}^t (f(s-x) - f(s)) w(s) ds; D' vanishes only at
    roots of f(t-x) - f(t) (w > 0), which are polynomial roots per piece."""
    edges = pp.pieces(x, weight_breakpoints(w))
    D = [0.0]
    for u, v in zip(edges[:-1], edges[1:]):
        m = 0.5 * (u + v)
        q = _shift(pp.f_local(m - x), x) - pp.f_local(m)
        pts = [u] + sorted(_real_roots(q, u, v)) + [v]
        for p0, p1 in zip(pts[:-1], pts[1:]):
            D.append(D[-1] + _weighted_poly_integral(q, w, p0, p1))
    return _oscillation(D)


# ---------------------------------------------------------------------------
# Smooth closed forms
# ---------------------------------------------------------------------------


def _scan_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """A grid of the given step on [lo, hi], graded geometrically toward both
    ends, so that a root next to an end (where the scanned function often
    vanishes too) is still bracketed."""
    n = max(2, int(math.ceil((hi - lo) / step)) + 1)
    h = (hi - lo) / (n - 1)
    graded = h * 2.0 ** -np.arange(1, 40)
    t = np.concatenate([np.linspace(lo, hi, n), lo + graded, hi - graded])
    return np.unique(t[(t >= lo) & (t <= hi)])


def roots_by_scan(g, lo: float, hi: float, step: float) -> list:
    """Roots of g on [lo, hi]: sign changes on the scan grid, refined by brentq."""
    t = _scan_grid(lo, hi, step)
    d = g(t)
    out = list(t[d == 0.0])
    for i in np.nonzero(d[:-1] * d[1:] < 0)[0]:
        out.append(brentq(lambda s: float(g(np.asarray(s))), t[i], t[i + 1],
                          xtol=1e-15, rtol=4 * np.finfo(float).eps))
    return sorted(out)


def extrema_by_roots(g, dg, lo: float, hi: float, step: float) -> tuple:
    """(min, max) of a smooth g on [lo, hi] from its values at the scan grid
    and at the roots of its analytic derivative dg.  A pair of roots closer
    than one step can be missed; g then moves by less than
    max|dg| * step on that cell, which the grid values bound."""
    cand = np.concatenate([_scan_grid(lo, hi, step), roots_by_scan(dg, lo, hi, step)])
    vals = g(cand)
    return float(vals.min()), float(vals.max())


class SmoothForm:
    """A closed-form integrand: F, f = F', A = int F, the limits of F, the
    points where f may jump, a window outside which F is constant (or
    negligibly varying), and a scan step below the oscillation scale."""

    def __init__(self, F, f, A, lim_neg, lim_pos, jumps, window, step, sup_abs_f):
        self.F, self.f, self.A = F, f, A
        self.lim_neg, self.lim_pos = float(lim_neg), float(lim_pos)
        self.jumps = tuple(float(j) for j in jumps)
        self.window = (float(window[0]), float(window[1]))
        self.step = float(step)
        self.sup_abs_f = float(sup_abs_f)

    def pieces(self, x: float, extra=()) -> np.ndarray:
        lo = min(self.window[0], self.window[0] + x)
        hi = max(self.window[1], self.window[1] + x)
        pts = {lo, hi}
        pts.update(self.jumps)
        pts.update(j + x for j in self.jumps)
        pts.update(float(e) for e in extra if lo < e < hi)
        return np.asarray(sorted(pts))


def smooth_norm(sf: SmoothForm) -> float:
    vals = [sf.lim_neg, sf.lim_pos]
    edges = sf.pieces(0.0)
    for u, v in zip(edges[:-1], edges[1:]):
        vals.extend(extrema_by_roots(sf.F, sf.f, u, v, sf.step))
    return _oscillation(vals)


def smooth_gap(sf: SmoothForm, x: float) -> float:
    H = lambda y: sf.F(y - x) - sf.F(y)
    dH = lambda y: sf.f(y - x) - sf.f(y)
    vals = [0.0]
    edges = sf.pieces(x)
    for u, v in zip(edges[:-1], edges[1:]):
        # one-sided interior points keep the scan off the jump itself
        e = 1e-13 * max(1.0, abs(u), abs(v))
        vals.extend(extrema_by_roots(H, dH, u + e, v - e, sf.step))
        vals.extend(H(np.asarray([u, v])))
    return _oscillation(vals)


def smooth_primitive_gap_norm(sf: SmoothForm, x: float) -> float:
    W = lambda a: sf.A(a) - sf.A(a - x)
    dW = lambda a: sf.F(a) - sf.F(a - x)
    # W' is continuous; its kinks sit where f jumps, at j and j + x
    lo, hi = sf.window[0] - 2.0 * abs(x), sf.window[1] + 2.0 * abs(x)
    edges = sorted({lo, hi} | set(sf.jumps) | {j + x for j in sf.jumps})
    vals = [x * sf.lim_neg, x * sf.lim_pos]
    for u, v in zip(edges[:-1], edges[1:]):
        vals.extend(extrema_by_roots(W, dW, u, v, sf.step))
    return _oscillation(vals)


def smooth_primitive_gap_l1(sf: SmoothForm, x: float) -> float:
    H = lambda y: sf.F(y - x) - sf.F(y)
    intH = lambda u, v: (sf.A(v - x) - sf.A(u - x)) - (sf.A(v) - sf.A(u))
    edges = sf.pieces(x)
    pts = set(edges)
    for u, v in zip(edges[:-1], edges[1:]):
        pts.update(roots_by_scan(H, u, v, sf.step))
    pts = np.asarray(sorted(pts))
    return float(np.abs(intH(pts[:-1], pts[1:])).sum())


def smooth_weighted_gap(sf: SmoothForm, x: float, w) -> float:
    q = lambda s: sf.f(np.asarray(s, dtype=float) - x) - sf.f(s)
    edges = sf.pieces(x, weight_breakpoints(w))
    pts = set(edges)
    for u, v in zip(edges[:-1], edges[1:]):
        e = 1e-13 * max(1.0, abs(u), abs(v))
        pts.update(roots_by_scan(q, u + e, v - e, sf.step))
    pts = sorted(pts)
    integrand = lambda s: float(q(np.asarray(s)) * weight_eval(w, np.asarray(s)))
    D = [0.0]
    for u, v in zip(pts[:-1], pts[1:]):
        D.append(D[-1] + quad(integrand, u, v, epsabs=1e-14, epsrel=1e-12, limit=200)[0])
    return _oscillation(D)


def gaussian_form() -> SmoothForm:
    """f = exp(-y^2), F = (sqrt(pi)/2)(1 + erf y)."""
    c = 0.5 * math.sqrt(math.pi)
    F = lambda y: c * (1.0 + erf(np.asarray(y, dtype=float)))
    f = lambda y: np.exp(-np.asarray(y, dtype=float) ** 2)
    A = lambda t: c * (t + t * erf(t) + np.exp(-t * t) / math.sqrt(math.pi))
    return SmoothForm(F, f, A, 0.0, math.sqrt(math.pi), (), (-12.0, 12.0), 0.002, 1.0)


def cosine_form() -> SmoothForm:
    """f = cos y on [-pi, pi], F = sin y there, 0 outside."""
    inside = lambda y: np.abs(y) <= math.pi
    F = lambda y: np.where(inside(np.asarray(y, dtype=float)), np.sin(y), 0.0)
    f = lambda y: np.where(inside(np.asarray(y, dtype=float)), np.cos(y), 0.0)
    A = lambda t: np.where(inside(np.asarray(t, dtype=float)), -np.cos(t) - 1.0, 0.0)
    return SmoothForm(F, f, A, 0.0, 0.0, (-math.pi, math.pi),
                      (-math.pi - 1.0, math.pi + 1.0), 0.002, 1.0)


def sinc_form() -> SmoothForm:
    """F = sin(y)/y, f = F'; the library's scan window is (-400, 400)."""
    F = lambda y: np.sinc(np.asarray(y, dtype=float) / math.pi)

    def f(y):
        y = np.asarray(y, dtype=float)
        small = np.abs(y) < 1e-4
        ys = np.where(small, 1.0, y)
        return np.where(small, -y / 3.0 + y ** 3 / 30.0,
                        np.cos(ys) / ys - np.sin(ys) / ys ** 2)

    A = lambda t: sici(t)[0]

    def df(y):
        y = np.asarray(y, dtype=float)
        return -np.sin(y) / y - 2.0 * np.cos(y) / y ** 2 + 2.0 * np.sin(y) / y ** 3

    # |f| is even, below 1/y + 1/y^2 for large y, and peaks near y = 2.08
    sup = max(np.abs(extrema_by_roots(f, df, 1e-3, 40.0, 0.01)))
    return SmoothForm(F, f, A, 0.0, 0.0, (), (-400.0, 400.0), 0.005, sup)


def trig_form(amp: float, omega: float, phase: float, a: float, b: float,
              F0: float = 0.0) -> SmoothForm:
    """f = amp sin(omega y + phase) on [a, b], 0 outside, F(-inf) = F0."""
    k = amp / omega
    ca = math.cos(omega * a + phase)
    Fin = lambda y: F0 + k * (ca - np.cos(omega * y + phase))
    F1 = float(Fin(b))
    Ain = lambda t: (F0 + k * ca) * (t - a) - (k / omega) * (
        np.sin(omega * t + phase) - math.sin(omega * a + phase))
    A1 = float(Ain(b))

    def F(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < a, F0, np.where(y > b, F1, Fin(y)))

    def f(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= a) & (y <= b), amp * np.sin(omega * y + phase), 0.0)

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < a, F0 * (t - a), np.where(t > b, A1 + F1 * (t - b), Ain(t)))

    step = 0.003 / omega
    return SmoothForm(F, f, A, F0, F1, (a, b), (a, b), step, abs(amp))


# ---------------------------------------------------------------------------
# Poisson integrals
# ---------------------------------------------------------------------------


def halfplane_piecewise_constant(edges, values, x: float, y: float) -> float:
    """u(x, y) for f = values[k] on (edges[k], edges[k+1]): the sum of each
    value times the kernel mass of its piece, (atan((x-a)/y) - atan((x-b)/y))/pi."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    mass = (np.arctan((x - a) / y) - np.arctan((x - b) / y)) / math.pi
    return float(np.dot(np.asarray(values, dtype=float), mass))


def halfplane_quad(f, a: float, b: float, x: float, y: float) -> float:
    """u(x, y) = int_a^b f(t) y / (pi ((x-t)^2 + y^2)) dt, for f continuous
    on [a, b] and 0 outside; with t = x + y tan(theta) the kernel becomes
    d(theta)/pi, so the integrand is smooth even for small y."""
    ta, tb = math.atan((a - x) / y), math.atan((b - x) / y)
    g = lambda th: float(f(x + y * math.tan(th)))
    return quad(g, ta, tb, epsabs=1e-13, epsrel=1e-12, limit=200)[0] / math.pi


def disc_kernel(r: float, alpha):
    return (1.0 - r * r) / (2.0 * math.pi * (1.0 - 2.0 * r * np.cos(alpha) + r * r))


def disc_quad(f, r: float, theta: float, breaks=()) -> float:
    """u(r, theta) = quad over [-pi, pi] of the disc kernel against f, split
    at the kernel's peak and at the given breaks of f."""
    peak = math.remainder(theta, 2.0 * math.pi)
    pts = sorted({-math.pi, math.pi, peak} | {float(b) for b in breaks if -math.pi < b < math.pi})
    g = lambda t: float(disc_kernel(r, t - theta) * f(t))
    return sum(quad(g, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
               for a, b in zip(pts[:-1], pts[1:]))


def disc_piecewise_constant(edges, values, r: float, theta: float) -> float:
    """u(r, theta) for f = values[k] on the arc (edges[k], edges[k+1]) of
    [-pi, pi]."""
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values, dtype=float)
    f = lambda t: values[min(np.searchsorted(edges, t, side="right") - 1, len(values) - 1)]
    return disc_quad(f, r, theta, edges)


def disc_harmonic(k: int, r: float, theta: float) -> float:
    """The harmonic extension of cos(k theta) is r^k cos(k theta)."""
    return r ** k * math.cos(k * theta)


# ---------------------------------------------------------------------------
# Canonical manifest checks
# ---------------------------------------------------------------------------


def reciprocal_quadratic_ratio_variation(x: float, a: float, b: float) -> float:
    """Exact variation on [a, b] of g(y) = w(y+x)/w(y), w = 1/(y^2+1): g is
    monotone between its extrema at y = (-x -+ sqrt(x^2+4))/2."""
    g = lambda y: (y * y + 1.0) / ((y + x) ** 2 + 1.0)
    r = math.sqrt(x * x + 4.0)
    ys = [a] + sorted(t for t in ((-x - r) / 2.0, (-x + r) / 2.0) if a < t < b) + [b]
    return sum(abs(g(q) - g(p)) for p, q in zip(ys[:-1], ys[1:]))


def halfplane_indicator_gap(y: float, a: float, b: float) -> float:
    """osc on (a, b) of E(t) = int_a^t (u_y - chi_[0,1]) w, w = 1/(t^2+1), with
    u_y(t) = (atan(t/y) - atan((t-1)/y))/pi.  u_y - chi is positive off [0, 1]
    and negative on it, so E's extremes sit among a, 0, 1, b; each piece is
    integrated by quad on subintervals graded toward its ends."""
    def e(t):
        u = (math.atan(t / y) - math.atan((t - 1.0) / y)) / math.pi
        return (u - (1.0 if 0.0 <= t <= 1.0 else 0.0)) / (t * t + 1.0)

    def piece(p, q):
        nodes = {p, q}
        for k in range(1, 9):
            nodes.update(c for c in (p + 10.0 ** -k, q - 10.0 ** -k) if p < c < q)
        nodes = sorted(nodes)
        return sum(quad(e, s, t, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                   for s, t in zip(nodes[:-1], nodes[1:]))

    E = np.cumsum([0.0, piece(a, 0.0), piece(0.0, 1.0), piece(1.0, b)])
    return float(E.max() - E.min())
