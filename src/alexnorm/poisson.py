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
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import InvalidSpec, KernelSingularity, TailBoundFailure, ToleranceNotMet
from .norms import GapReport
from .realfn import (Integrand, Interval, _as_interval, _call_vec,
                     build_primitive_from_pointwise, gauss_nodes, variation)
from .weights import (Weight, _refinement_stable, _resolve_pointwise,
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


@dataclass(frozen=True)
class KernelPair:
    """The half-plane kernel Phi at a point z, paired with a weight:
    Psi(t) = Phi(t)/w(t), its derivative, and the limits of Psi at +-inf."""

    z: HalfPlanePoint
    Psi: Callable
    Psi_prime: Callable
    psi_lim_neg: float
    psi_lim_pos: float


def _psi(w: Weight, x, y: float, t: np.ndarray) -> np.ndarray:
    """Psi_z(t) = Phi_y(x - t) / w(t), elementwise in x and t."""
    return halfplane_kernel(y, x - t) / w(t)


def _psi_prime(w: Weight, x, y: float, t: np.ndarray) -> np.ndarray:
    """Psi_z'(t), elementwise in x and t, from the weight's declared derivative."""
    wv = w(t)
    u = x - t
    phi_prime = (y / math.pi) * 2.0 * u / (u * u + y * y) ** 2
    return (phi_prime * wv - halfplane_kernel(y, u) * w.derivative(t)) / (wv * wv)


def kernel_pair(w: Weight, z: HalfPlanePoint) -> KernelPair:
    x, y = z.x, z.y

    def Psi(t):
        return _psi(w, x, y, np.asarray(t, dtype=float))

    def Psi_prime(t):
        return _psi_prime(w, x, y, np.asarray(t, dtype=float))

    if w.kernel_ratio_limit is not None:
        lim_neg, lim_pos = w.kernel_ratio_limit(z)
    else:
        lim_neg = _psi_limit(Psi, -1.0)
        lim_pos = _psi_limit(Psi, +1.0)
    return KernelPair(z=z, Psi=Psi, Psi_prime=Psi_prime,
                      psi_lim_neg=lim_neg, psi_lim_pos=lim_pos)


def _psi_limit(Psi, direction: float) -> float:
    # one Richardson step on samples at t and 10t kills the O(1/t) term
    t = direction * 1e7
    v1 = float(_call_vec(Psi, np.asarray([t]))[0])
    v2 = float(_call_vec(Psi, np.asarray([10.0 * t]))[0])
    est = v2 + (v2 - v1) / 9.0
    v3 = float(_call_vec(Psi, np.asarray([100.0 * t]))[0])
    est2 = v3 + (v3 - v2) / 9.0
    if abs(est2 - est) > 1e-6 * (1.0 + abs(est2)):
        raise TailBoundFailure("the kernel/weight ratio has no stable limit")
    return est2


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

    def value(self, z: HalfPlanePoint, tol: float = 1e-6) -> float:
        return float(self.values(np.asarray([z.x]), z.y, tol)[0])

    def values(self, xs, y: float, tol: float) -> np.ndarray:
        """u_y at every x of a 1-d array xs.  Each point runs its own window
        doubling and panel sums; the panel nodes of all points share one
        G.eval and one Psi_z' call.  tol must lie in (0, inf)."""
        if not 0.0 < tol < math.inf:
            raise InvalidSpec(f"the tolerance must lie in (0, inf), not {tol}")
        xs = np.asarray(xs, dtype=float)
        pts = [HalfPlanePoint(float(x), y) for x in xs]
        if not pts:
            return np.empty(0)
        kps = [kernel_pair(self.w, z) for z in pts]
        lim_neg = np.asarray([kp.psi_lim_neg for kp in kps])
        lim_pos = np.asarray([kp.psi_lim_pos for kp in kps])
        G, w = self.G, self.w
        TL, TR, psiL, psiR, GL = np.empty((5, len(xs)))
        # the points whose tail bound is not yet met, with their x, window
        # half-width and kernel limits
        todo, x, T = np.arange(len(xs)), xs, np.full(len(xs), max(50.0 * y, 50.0))
        lo, hi = lim_neg, lim_pos
        for _ in range(14):
            tl, tr = x - T, x + T
            pr, pl = _psi(w, x, y, tr), _psi(w, x, y, tl)
            gl = G.eval(tl)
            # residual after the first-order tail corrections below; the
            # factor 2 covers non-monotone kernel tails
            resid = 2.0 * (np.abs(self.G_inf - G.eval(tr)) * np.abs(hi - pr)
                           + np.abs(gl) * np.abs(pl - lo))
            TL[todo], TR[todo], psiR[todo], psiL[todo], GL[todo] = tl, tr, pr, pl, gl
            unmet = ~(resid <= 0.5 * tol)  # a NaN bound is never met
            if not unmet.any():
                break
            todo, x, T, lo, hi = todo[unmet], x[unmet], 2.0 * T[unmet], lo[unmet], hi[unmet]
        else:
            raise TailBoundFailure(
                f"tail bound {resid[unmet].max():.3e} above {0.5 * tol:.3e} "
                "after window doubling")

        # 32 Gauss-Legendre nodes per panel, one row each; the rows of all
        # points are evaluated in one call and dotted with the weights in
        # another (np.vecdot gives each row np.dot's bits; rows @ wts does
        # not), then summed point by point, panel by panel, left to right
        nodes, wts = gauss_nodes(32)
        hws, ts = [], []
        for z, tl, tr in zip(pts, TL.tolist(), TR.tolist()):
            edges = self._panel_edges(z, tl, tr)
            hw = 0.5 * (edges[1:] - edges[:-1])
            mids = 0.5 * (edges[:-1] + edges[1:])
            hws.append(hw.tolist())
            ts.append((mids[:, None] + hw[:, None] * nodes).ravel())
        xr = np.repeat(xs, [len(t) for t in ts])
        ts = np.concatenate(ts)
        rows = (G.eval(ts) * _psi_prime(w, xr, y, ts)).reshape(-1, len(nodes))
        dots = np.vecdot(rows, wts).tolist()
        out = []
        first = 0
        for hw_i, ln, lp, pl, pr, gl in zip(hws, lim_neg.tolist(), lim_pos.tolist(),
                                            psiL.tolist(), psiR.tolist(), GL.tolist()):
            quad = 0.0
            for hw, d in zip(hw_i, dots[first:first + len(hw_i)]):
                quad += hw * d
            first += len(hw_i)
            # first-order tail corrections: G ~ G_inf right of TR, G ~ G(TL) left
            quad += self.G_inf * (lp - pr)
            quad += gl * (pl - ln)
            out.append(self.G_inf * lp - quad)
        return np.asarray(out)

    def _panel_edges(self, z: HalfPlanePoint, TL: float, TR: float) -> np.ndarray:
        offs = [0.0]
        d = z.y
        while z.x + d < TR or z.x - d > TL:
            offs.append(d)
            d *= 2.0
        pts = [z.x + o for o in offs] + [z.x - o for o in offs[1:]] + [TL, TR]
        pts.extend(self.w.breakpoints())
        if len(self.G.breakpoints()) <= 64:
            pts.extend(self.G.breakpoints())
        if isinstance(self.f, Integrand):
            pts.extend(self.f.primitive.breakpoints())
        pts = np.asarray(pts, dtype=float)
        pts = np.unique(pts[(pts >= TL) & (pts <= TR)])
        return pts


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
    majorant integral of Phi_y(s) ||(tau_s f - f) w|| attached to each row.

    Primitives are built to 1e-7, each u_y(t) is evaluated to 1e-6, and the
    majorant integral takes 64 Gauss-Legendre nodes in s."""
    build_tol = 1e-7
    I = _as_interval(I)
    op = HalfPlaneOperator(f, w)
    fp = _resolve_pointwise(f)
    hints = tuple(f.primitive.breakpoints()) if isinstance(f, Integrand) else ()

    def gamma(s: float) -> float:
        if s == 0.0:
            return 0.0
        return _weighted_gap_single(f, fp, w, op.G, s, build_tol)[0]

    reports = []
    for y in sorted(ys, key=lambda t: -abs(t)):
        def err(t, y=y):
            t = np.asarray(t, dtype=float)
            u = op.values(np.ravel(t), y, 1e-6)
            return (u.reshape(t.shape) - _call_vec(fp, t)) * w(t)

        P = build_primitive_from_pointwise(err, I, build_tol, breakpoints=hints)
        lo, hi = P.extrema()
        gap = hi - lo

        S = max(200.0 * y, 2.0)
        nodes, wts = gauss_nodes(64)
        ss = 0.5 * S * (nodes + 1.0)  # positive half; gamma is even in s
        gs = np.asarray([gamma(float(s)) for s in ss])
        phis = halfplane_kernel(y, ss)
        majorant = float(2.0 * 0.5 * S * np.dot(wts, gs * phis))
        tail_fraction = 1.0 - halfplane_kernel_mass(y, -S, S)
        majorant += 2.0 * tail_fraction * float(gs.max(initial=0.0))
        reports.append(GapReport(x=y, gap=gap, bound_upper=majorant,
                                 passed=gap <= majorant + tol))
    return reports


@dataclass(frozen=True)
class KernelBVReport:
    V_Psi: float
    V_invPsi: float
    bounded: bool


def kernel_bv_audit(w: Weight, z: HalfPlanePoint, window) -> KernelBVReport:
    """Variation of Psi_z and 1/Psi_z on a window at 14 dyadic levels, with
    refinement stability against 15."""
    window = _as_interval(window)
    kp = kernel_pair(w, z)
    inv = lambda t: 1.0 / kp.Psi(t)
    seeds = tuple(w.breakpoints())
    v1 = variation(kp.Psi, window, 14, extra_points=seeds)
    v1b = variation(kp.Psi, window, 15, extra_points=seeds)
    v2 = variation(inv, window, 14, extra_points=seeds)
    v2b = variation(inv, window, 15, extra_points=seeds)
    stable = _refinement_stable(v1, v1b) and _refinement_stable(v2, v2b)
    return KernelBVReport(V_Psi=v1b, V_invPsi=v2b,
                          bounded=stable and math.isfinite(v1b) and math.isfinite(v2b))
