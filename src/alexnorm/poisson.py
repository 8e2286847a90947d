"""Poisson integrals on the unit disc and the upper half-plane.

Disc: u_r(theta) = (1-r^2)/(2pi) * integral of f(phi) / (1 - 2r cos(phi-theta) + r^2).
The kernel's antiderivative is available in closed form,

    A_r(alpha) = (1/pi) * arctan(((1+r)/(1-r)) tan(alpha/2)),

so piecewise-constant boundary data integrates exactly; smooth data uses the
periodic midpoint rule with node doubling.

Half-plane: with Phi_y(u) = y / (pi (u^2 + y^2)) and a weight w, the value at
z = (x, y) is taken through integration by parts against G(t) = integral of fw:

    u_y(x) = G(inf) * Psi_z(+inf) - integral of G(t) Psi_z'(t) dt,
    Psi_z(t) = Phi_y(x - t) / w(t),

which stays meaningful for boundary data that is not integrable on its own
(e.g. constants).  The truncated integral carries a certified tail bound; the
window doubles until the bound clears the tolerance or TailBoundFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import InvalidSpec, KernelSingularity, TailBoundFailure, ToleranceNotMet
from .norms import GapReport
from .realfn import (Integrand, Interval, _as_interval, _call_vec,
                     build_primitive_from_pointwise, gauss_nodes, variation)
from .weights import (Weight, _refinement_stable, _resolve_pointwise, _shift_gap,
                      _weighted_gap_single, product_integrand)

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# Unit disc
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicIntegrand:
    """2*pi-periodic boundary data, represented by one period on [-pi, pi]."""

    base: Integrand

    def __post_init__(self):
        lo, hi = self.base.primitive.support_window()
        if lo < -math.pi - 1e-9 or hi > math.pi + 1e-9:
            raise InvalidSpec(f"the base integrand must live on [-pi, pi], "
                              f"not on [{lo}, {hi}]")

    def pointwise(self, phi):
        pt = self.base.pointwise_or_derived()
        if pt is None:
            raise ValueError("no pointwise data for the boundary function")
        phi = np.asarray(phi, dtype=float)
        wrapped = np.mod(phi + math.pi, TWO_PI) - math.pi
        return _call_vec(pt, wrapped)

    def pieces(self) -> Optional[tuple]:
        """(edges, values) when f is constant on each panel of its period."""
        p = self.base.primitive.pieces(True)
        if p is None or np.any(p[1][:, 1:]):
            return None
        return p[0], p[1][:, 0]


def disc_kernel(r: float, alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    return (1.0 - r * r) / (TWO_PI * (1.0 - 2.0 * r * np.cos(alpha) + r * r))


def _disc_cdf(r: float, alpha: float) -> float:
    # antiderivative of the kernel on (-pi, pi), normalized to +-1/2 at +-pi
    K = (1.0 + r) / (1.0 - r)
    return math.atan(K * math.tan(0.5 * alpha)) / math.pi


def disc_kernel_mass(r: float, a: float, b: float) -> float:
    """Kernel mass over an arc [a, b] with 0 <= b - a <= 2*pi."""
    width = b - a
    if width < 0 or width > TWO_PI * (1.0 + 1e-12):
        raise ValueError("arc width must lie in [0, 2*pi]")
    if width >= TWO_PI * (1.0 - 1e-15):
        return 1.0
    a_red = math.remainder(a, TWO_PI)  # in [-pi, pi]
    b_red = a_red + width
    if b_red <= math.pi:
        return _disc_cdf(r, b_red) - _disc_cdf(r, a_red)
    return (0.5 - _disc_cdf(r, a_red)) + (_disc_cdf(r, b_red - TWO_PI) + 0.5)


def poisson_disc(f: PeriodicIntegrand, r: float, theta: float) -> float:
    """Harmonic extension of periodic boundary data, evaluated at r e^{i theta}.

    Smooth data takes the periodic midpoint rule from 64 up to 2^19 nodes, to 1e-10."""
    if r < 0:
        raise ValueError("the radius must be nonnegative")
    if not r < 1.0:
        raise KernelSingularity(f"radius {r} is not inside the unit disc")
    if not math.isfinite(theta):
        raise KernelSingularity(f"angle {theta} is not finite")
    pieces = f.pieces()
    if pieces is not None:
        edges, values = pieces
        total = 0.0
        for i, v in enumerate(values):
            if v != 0.0:
                total += v * disc_kernel_mass(r, edges[i] - theta, edges[i + 1] - theta)
        return total
    # periodic midpoint rule with node doubling; spectrally accurate
    prev = None
    N = 64
    while N <= 2 ** 19:
        phis = -math.pi + (np.arange(N) + 0.5) * (TWO_PI / N)
        u = float((TWO_PI / N) * np.dot(f.pointwise(phis), disc_kernel(r, phis - theta)))
        if prev is not None and abs(u - prev) <= 1e-10 * max(1.0, abs(u)):
            return u
        prev = u
        N *= 2
    raise ToleranceNotMet("periodic rule did not converge below 1e-10")


def disc_boundary_convergence(f: PeriodicIntegrand,
                              rs: Sequence[float]) -> List[GapReport]:
    """||u_r - f|| over one period along a radius ladder; the error primitives
    are built to 1e-8 from u_r evaluated to 1e-10."""
    build_tol = 1e-8
    hints = tuple(f.base.primitive.breakpoints())
    reports = []
    for r in rs:
        def err(phi, r=r):
            phi = np.asarray(phi, dtype=float)
            u = np.asarray([poisson_disc(f, r, t) for t in np.ravel(phi)])
            return u.reshape(phi.shape) - f.pointwise(phi)

        P = build_primitive_from_pointwise(err, Interval(-math.pi, math.pi),
                                           build_tol, breakpoints=hints)
        lo, hi = P.extrema()
        reports.append(GapReport(x=r, gap=hi - lo, passed=True))
    return reports


# ---------------------------------------------------------------------------
# Upper half-plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfPlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and self.y > 0):
            raise ValueError("half-plane points need finite x and y > 0")


def halfplane_kernel(y: float, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return y / (math.pi * (u * u + y * y))


def halfplane_kernel_mass(y: float, a: float, b: float) -> float:
    return (math.atan2(b, y) - math.atan2(a, y)) / math.pi


def _psi(w: Weight, x, y: float, t: np.ndarray) -> np.ndarray:
    """Psi_z(t) = Phi_y(x - t) / w(t), elementwise in x and t."""
    return halfplane_kernel(y, x - t) / w(t)


def _psi_prime(w: Weight, u: np.ndarray, y: float, t: np.ndarray) -> np.ndarray:
    """Psi_z'(t) at u = x - t, elementwise in u and t, from the weight's
    declared derivative.  u is given, not formed from t, so that the kernel,
    which varies on the scale y, sees no rounding of t."""
    wv = w(t)
    phi_prime = (y / math.pi) * 2.0 * u / (u * u + y * y) ** 2
    return (phi_prime * wv - halfplane_kernel(y, u) * w.derivative(t)) / (wv * wv)


def kernel_pair(w: Weight, y: float) -> tuple:
    """(psi_-, psi_+): the limits of Psi_z at -inf and +inf.  They depend on w
    and y only, since Phi_y(x - t) ~ y / (pi t^2) for every x.  The weight's
    declared kernel_ratio_limit(y) gives them, or else probes of Psi at x = 0;
    probes that do not settle raise TailBoundFailure."""
    if w.kernel_ratio_limit is not None:
        lim_neg, lim_pos = w.kernel_ratio_limit(y)
        return float(lim_neg), float(lim_pos)
    # at each end, one Richardson step on samples at t and 10t kills the
    # O(1/t) term; the far probes may overflow, and a NaN or infinite
    # estimate is no limit
    with np.errstate(all="ignore"):
        v = _psi(w, 0.0, y, np.asarray([-1e7, -1e8, -1e9, 1e7, 1e8, 1e9])).reshape(2, 3)
        est = v[:, 1] + (v[:, 1] - v[:, 0]) / 9.0
        est2 = v[:, 2] + (v[:, 2] - v[:, 1]) / 9.0
        settled = np.abs(est2 - est) <= 1e-6 * (1.0 + np.abs(est2))
    if not settled.all():
        raise TailBoundFailure("the kernel/weight ratio has no stable limit")
    return float(est2[0]), float(est2[1])


class HalfPlaneOperator:
    """Evaluates the weighted-parts form of the half-plane Poisson integral.

    The product primitive G is built once per (f, w) pair, to 1e-10 on a core
    window of half-width 4096, and reused across evaluation points.
    """

    def __init__(self, f, w: Weight):
        if not isinstance(w, Weight):
            raise InvalidSpec(f"the weight must be a Weight, not {type(w).__name__}")
        self.f = f
        self.w = w
        self.fw = product_integrand(f, w, core_halfwidth=4096.0)
        self.G = self.fw.primitive
        self.G_inf = self.G.limit_pos
        # G is exactly constant beyond its panels; a side whose edge value is
        # its limit (no tail remainder) needs no quadrature beyond the edge
        self._g_span = (-math.inf, math.inf)
        pieces = self.G.pieces(False)
        if pieces is not None:
            edges, _, below, above = pieces
            self._g_span = (float(edges[0]) if below == self.G.limit_neg else -math.inf,
                            float(edges[-1]) if above == self.G.limit_pos else math.inf)
        # panel edges every point shares: w's jumps, G's edges (when few) and f's
        shared = [w.breakpoints()]
        if len(self.G.breakpoints()) <= 64:
            shared.append(self.G.breakpoints())
        if isinstance(f, Integrand):
            shared.append(f.primitive.breakpoints())
        self._shared_edges = np.concatenate(shared).astype(float)

    def value(self, z: HalfPlanePoint, tol: float = 1e-6) -> float:
        return float(self.values(np.asarray([z.x]), z.y, tol)[0])

    def values(self, xs, y: float, tol: float) -> np.ndarray:
        """u_y at every x of a 1-d array xs.  Each point runs its own window
        doubling and panel sums; the panel nodes of all points share one
        G.eval and one Psi_z' call.  tol must lie in (0, inf)."""
        if not 0.0 < tol < math.inf:
            raise InvalidSpec(f"the tolerance must lie in (0, inf), not {tol}")
        xs = np.asarray(xs, dtype=float)
        if not len(xs):
            return np.empty(0)
        if not (np.isfinite(xs).all() and 0.0 < y < math.inf):
            raise ValueError("half-plane points need finite x and y > 0")
        G, w = self.G, self.w
        lim_neg, lim_pos = kernel_pair(w, y)
        g_lo, g_hi = self._g_span
        A, B, psiA, psiB, GA = np.empty((5, len(xs)))
        # the points whose tail bound is not yet met, with their x and window
        # half-width
        todo, x, T = np.arange(len(xs)), xs, np.full(len(xs), max(50.0 * y, 50.0))
        for _ in range(14):
            # the window [x - T, x + T] clipped to where G varies; a window
            # that misses that span collapses to its own near end
            a = np.minimum(np.maximum(x - T, g_lo), x + T)
            b = np.maximum(np.minimum(x + T, g_hi), a)
            n = len(x)
            ends = np.concatenate([b, a])
            ps = _psi(w, np.concatenate([x, x]), y, ends)
            gs = G.eval(ends)
            pb, pa, ga = ps[:n], ps[n:], gs[n:]
            # residual after the first-order tail corrections below; each
            # term vanishes on a clipped side, and the factor 2 covers
            # non-monotone kernel tails
            resid = 2.0 * (np.abs(self.G_inf - gs[:n]) * np.abs(lim_pos - pb)
                           + np.abs(ga - G.limit_neg) * np.abs(pa - lim_neg))
            A[todo], B[todo], psiB[todo], psiA[todo], GA[todo] = a, b, pb, pa, ga
            unmet = ~(resid <= 0.5 * tol)  # a NaN bound is never met
            if not unmet.any():
                break
            todo, x, T = todo[unmet], x[unmet], 2.0 * T[unmet]
        else:
            raise TailBoundFailure(
                f"tail bound {resid[unmet].max():.3e} above {0.5 * tol:.3e} "
                "after window doubling")

        # 16 Gauss-Legendre nodes per panel, one row each (the kernel's poles
        # lie about a panel width off each panel), placed as offsets du from
        # x: t = x + du, and the kernel takes u = -du exactly.  The rows of
        # all points are evaluated in one call and dotted with the weights in
        # another (np.vecdot gives each row np.dot's bits; rows @ wts does
        # not), then summed point by point, panel by panel, left to right
        nodes, wts = gauss_nodes(16)
        hws, dus = [], []
        for xi, a, b in zip(xs.tolist(), A.tolist(), B.tolist()):
            edges = self._panel_edges(xi, y, a, b)
            hw = 0.5 * (edges[1:] - edges[:-1])
            mids = 0.5 * (edges[:-1] + edges[1:])
            hws.append(hw.tolist())
            dus.append((mids[:, None] + hw[:, None] * nodes).ravel())
        xr = np.repeat(xs, [len(du) for du in dus])
        du = np.concatenate(dus)
        ts = xr + du
        rows = (G.eval(ts) * _psi_prime(w, -du, y, ts)).reshape(-1, len(nodes))
        dots = np.vecdot(rows, wts).tolist()
        out = []
        first = 0
        for hw_i, pa, pb, ga in zip(hws, psiA.tolist(), psiB.tolist(), GA.tolist()):
            quad = 0.0
            for hw, d in zip(hw_i, dots[first:first + len(hw_i)]):
                quad += hw * d
            first += len(hw_i)
            # first-order tail corrections: G ~ G_inf right of B, G ~ G(A) left
            quad += self.G_inf * (lim_pos - pb)
            quad += ga * (pa - lim_neg)
            out.append(self.G_inf * lim_pos - quad)
        return np.asarray(out)

    def _panel_edges(self, x: float, y: float, TL: float, TR: float) -> np.ndarray:
        """Panel edges on [TL, TR], as offsets from x."""
        lo, hi = TL - x, TR - x
        # offsets y * 2^k until they pass both ends; those beyond are dropped below
        n = math.frexp(max(hi, -lo))[1] - math.frexp(y)[1] + 3
        offs = np.ldexp(y, np.arange(max(n, 0)))
        pts = np.concatenate([[0.0, lo, hi], offs, -offs, self._shared_edges - x])
        return np.unique(pts[(pts >= lo) & (pts <= hi)])


# (f, w, HalfPlaneOperator(f, w)) of the last one-shot poisson_halfplane call.
# It is kept here, not on w: an entry on w would close the cycle w -> operator
# -> w, so a dropped weight and its G would wait for the cyclic collector
# instead of going at once.
_last_halfplane = None


def poisson_halfplane(f, w: Weight, z: HalfPlanePoint) -> float:
    """One-shot evaluation of the weighted-parts Poisson integral, to 1e-6.

    The operator of the last call is kept, so repeat calls with the same f and
    w (by identity) build G once; f and w must not change afterwards."""
    global _last_halfplane
    if not isinstance(z, HalfPlanePoint):
        raise InvalidSpec(f"the point must be a HalfPlanePoint, not {type(z).__name__}")
    entry = _last_halfplane
    if entry is None or entry[0] is not f or entry[1] is not w:
        entry = (f, w, HalfPlaneOperator(f, w))  # InvalidSpec for a w that is no Weight
        _last_halfplane = entry
    return entry[2].value(z)


def halfplane_weighted_convergence(f, w: Weight, ys: Sequence[float], I,
                                   tol: float = 1e-6) -> List[GapReport]:
    """||(u_y - f) w|| on I along a boundary ladder, with the kernel-averaged
    majorant 2 * integral over s > 0 of Phi_y(s) gamma(s), gamma(s) =
    ||(tau_s f - f) w||, attached to each row.

    Primitives are built to 1e-7 and each u_y(t) is evaluated to 1e-6.  The
    majorant's panels, shared by the whole ladder, have the edges 0, every
    row's S = max(200 y, 2), the powers of 2 from below min(y) / 2 up to the
    largest S, and up to 32 pairwise differences of f's and w's breakpoints,
    where gamma can kink; each takes 8 Gauss-Legendre nodes, and gamma is
    evaluated once per node.  A row sums its own panels on [0, S], left to
    right, and adds the tail 2 * (1 - mass(-S, S)) * max gamma over its nodes."""
    build_tol = 1e-7
    I = _as_interval(I)
    op = HalfPlaneOperator(f, w)
    fp = _resolve_pointwise(f)
    hints = tuple(f.primitive.breakpoints()) if isinstance(f, Integrand) else ()

    ys = sorted(ys, key=lambda t: -abs(t))
    gaps = []
    for y in ys:  # a y outside (0, inf) raises values' ValueError here
        def err(t, y=y):
            t = np.asarray(t, dtype=float)
            u = op.values(np.ravel(t), y, 1e-6)
            return (u.reshape(t.shape) - _call_vec(fp, t)) * w(t)

        P = build_primitive_from_pointwise(err, I, build_tol, breakpoints=hints)
        lo, hi = P.extrema()
        gaps.append(hi - lo)
    if not ys:
        return []

    Ss = [max(200.0 * y, 2.0) for y in ys]
    S_max = max(Ss)
    # 2^k for floor(log2(min(y) / 2)) <= k <= floor(log2(S_max)), exactly
    k0, k1 = math.frexp(min(ys))[1] - 2, math.frexp(S_max)[1] - 1
    dyadic = np.ldexp(1.0, np.arange(k0, k1 + 1))
    edges = np.unique(np.r_[0.0, Ss, dyadic, _kinks(f, w, S_max)])
    nodes, wts = gauss_nodes(8)
    hws = 0.5 * np.diff(edges)
    ss = 0.5 * (edges[1:] + edges[:-1])[:, None] + hws[:, None] * nodes
    if w.constant_value is not None:  # C_s = 0
        gamma = lambda s: _weighted_gap_single(f, fp, w, op.G, s, build_tol)[0]
    else:
        gamma = lambda s: _shift_gap(f, fp, w, s, build_tol)
    gs = np.asarray([gamma(s) for s in ss.ravel().tolist()]).reshape(ss.shape)

    reports = []
    for y, S, gap in zip(ys, Ss, gaps):
        n = int(np.searchsorted(edges, S))  # the panels on [0, S]
        dots = np.vecdot(gs[:n] * halfplane_kernel(y, ss[:n]), wts).tolist()
        majorant = 0.0
        for hw, d in zip(hws[:n].tolist(), dots):
            majorant += hw * d
        majorant *= 2.0
        majorant += 2.0 * (1.0 - halfplane_kernel_mass(y, -S, S)) * float(gs[:n].max())
        reports.append(GapReport(x=y, gap=gap, bound_upper=majorant,
                                 passed=gap <= majorant + tol))
    return reports


def _kinks(f, w: Weight, S_max: float) -> np.ndarray:
    """The 32 smallest distinct pairwise differences in (0, S_max) of f's and
    w's breakpoints, where gamma(s) can kink.  A difference of points i and
    j is larger than the j - i - 1 distinct ones in between, so pairs more
    than 32 apart in sorted order hold none of them."""
    fb = f.primitive.breakpoints() if isinstance(f, Integrand) else np.empty(0)
    b = np.unique(np.r_[fb, w.breakpoints()])
    d = np.unique(np.concatenate([np.empty(0)] + [b[j:] - b[:-j]
                                                  for j in range(1, min(len(b), 33))]))
    return d[d < S_max][:32]


@dataclass(frozen=True)
class KernelBVReport:
    V_Psi: float
    V_invPsi: float
    bounded: bool


def kernel_bv_audit(w: Weight, z: HalfPlanePoint, window) -> KernelBVReport:
    """Variation of Psi_z and 1/Psi_z on a window at 14 dyadic levels, with
    refinement stability against 15."""
    window = _as_interval(window)
    Psi = lambda t: _psi(w, z.x, z.y, np.asarray(t, dtype=float))
    inv = lambda t: 1.0 / Psi(t)
    seeds = tuple(w.breakpoints())
    v1 = variation(Psi, window, 14, extra_points=seeds)
    v1b = variation(Psi, window, 15, extra_points=seeds)
    v2 = variation(inv, window, 14, extra_points=seeds)
    v2b = variation(inv, window, 15, extra_points=seeds)
    stable = _refinement_stable(v1, v1b) and _refinement_stable(v2, v2b)
    return KernelBVReport(V_Psi=v1b, V_invPsi=v2b,
                          bounded=stable and math.isfinite(v1b) and math.isfinite(v2b))
