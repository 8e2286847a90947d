"""Alexiewicz norms and translation continuity.

The norm of an integrable object f with primitive F is

    ||f|| = sup over intervals I of |integral of f over I|
          = (max of F) - (min of F)   over the extended real line,

so every norm here is an oscillation computation on a primitive.  Translation
gaps ||tau_x f - f|| reduce to the oscillation of y -> F(y-x) - F(y), which is
taken at the merged breakpoints and the real derivative roots of each
primitive's ``search_pieces``, a closed form's Chebyshev proxy included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (InvalidSpec, NonConvergentTail, NotAbsolutelyIntegrable)
from .realfn import (ClosedFormPrimitive, Integrand, Interval,
                     PiecewiseLinearPrimitive, Primitive, _EPS, _call_vec,
                     _critical_points, build_primitive_from_pointwise,
                     gauss_nodes)

@dataclass(frozen=True)
class GapReport:
    """One row of a convergence table: shift (or ladder parameter), measured
    gap, optional bounds, and whether the gap sits between the bounds."""

    x: float
    gap: float
    bound_lower: Optional[float] = None
    bound_upper: Optional[float] = None
    passed: bool = True


def sweep_converged(reports: Sequence[GapReport], final_gap: float) -> bool:
    """True when gaps decrease (within 1e-12) as |x| does, the last below final_gap."""
    rows = sorted(reports, key=lambda r: -abs(r.x))
    gaps = [r.gap for r in rows]
    decreasing = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    return decreasing and gaps[-1] < final_gap


# ---------------------------------------------------------------------------
# Norms and translation
# ---------------------------------------------------------------------------


def alexiewicz_norm(f: Integrand) -> float:
    """sup_I |integral_I f| = osc of the primitive over the extended line."""
    lo, hi = f.primitive.extrema()
    return hi - lo


def alexiewicz_norm_halfline(f: Integrand) -> float:
    """Equivalent half-line norm sup_x |F(x)| after normalizing F(-inf) to 0."""
    F = f.primitive
    lo, hi = F.extrema()
    base = F.limit_neg
    return max(abs(hi - base), abs(lo - base))


def _check_shift(x: float) -> None:
    """InvalidSpec unless the shift x is a finite number."""
    if not math.isfinite(x):
        raise InvalidSpec(f"shift x = {x!r} is not finite")


def translate(f: Integrand, x: float) -> Integrand:
    """tau_x f, realized by shifting the primitive: G(y) = F(y - x)."""
    _check_shift(x)
    if x == 0.0:
        return f
    pt = f.pointwise
    shifted_pt = None
    if pt is not None:
        shifted_pt = lambda y: _call_vec(pt, np.asarray(y, dtype=float) - x)
    return Integrand(f.primitive.shifted(x), shifted_pt, f.label)


def _difference_extrema(F: Primitive, x: float):
    """(min, max) over the extended line of H(y) = F(y-x) - F(y).

    Both limits of H vanish, so 0 always joins the candidate set.  H is
    taken at the merged edges and the real roots of H' = f(.-x) - f on F's
    search pieces (machine-exact for tables and Chebyshev panels).
    """
    _check_shift(x)
    if x == 0.0:
        return 0.0, 0.0
    f = F.search_pieces(True)
    nodes = _critical_points([(1.0, x, f), (-1.0, 0.0, f)])
    H = F.eval(nodes - x) - F.eval(nodes)
    return min(float(H.min()), 0.0), max(float(H.max()), 0.0)


def translation_gap(f: Integrand, x: float) -> float:
    """||tau_x f - f||, the oscillation of y -> F(y-x) - F(y)."""
    mn, mx = _difference_extrema(f.primitive, x)
    return mx - mn


def gap_sweep(f: Integrand, xs: Sequence[float], tol: float = 1e-9) -> List[GapReport]:
    """Translation gaps along a shift ladder, with the triangle upper bound
    2 * sup_b |F(b-x) - F(b)| attached to every row."""
    if not len(xs):
        raise ValueError("xs must be nonempty")
    reports = []
    for x in sorted(xs, key=lambda t: (-abs(t), t)):
        mn, mx = _difference_extrema(f.primitive, x)
        gap = mx - mn
        bound = 2.0 * max(abs(mn), abs(mx))
        reports.append(GapReport(x=x, gap=gap, bound_upper=bound,
                                 passed=gap <= bound + tol))
    return reports


# ---------------------------------------------------------------------------
# Slow decay construction
# ---------------------------------------------------------------------------


class DecaySpec:
    """A decay target psi on (0, 1] and its three envelopes.

    psi1 is the running supremum, psi2 its step discretization on the 1/n
    mesh, psi3 the continuous piecewise-linear envelope whose derivative is
    the constructed integrand.  The mesh is truncated at 1/n_max, and psi is
    sampled at eight points per mesh cell.
    """

    def __init__(self, psi: Callable[[np.ndarray], np.ndarray], n_max: int):
        if n_max < 2:
            raise InvalidSpec("n_max must be at least 2")
        self.psi = psi
        self.n_max = int(n_max)
        mesh = 1.0 / np.arange(1, n_max + 1)  # descending: 1, 1/2, ..., 1/n_max
        samples = [mesh]
        for n in range(1, n_max + 1):
            left = 1.0 / (n + 1)
            right = 1.0 / n
            samples.append(np.linspace(left, right, 9)[1:])
        pts = np.unique(np.concatenate(samples))  # ascending
        vals = _call_vec(psi, pts)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
            raise InvalidSpec("psi must be positive and finite on (0, 1]")
        run_sup = np.maximum.accumulate(vals)
        self._sample_pts = pts
        self._sample_sup = run_sup
        # running sup at the mesh points themselves
        idx = np.searchsorted(pts, mesh)
        self._psi1_mesh = run_sup[np.clip(idx, 0, len(pts) - 1)]  # index n-1 -> psi1(1/n)
        if not self._psi1_mesh[-1] < self._psi1_mesh[0] * (1.0 - 1e-9):
            raise InvalidSpec("psi does not decay to 0 within the sampled mesh")

    @property
    def samples(self) -> np.ndarray:
        """The sample points on (0, 1] where the envelope chain is certified."""
        return self._sample_pts

    def psi1(self, x):
        """Running supremum sup_{0 < t <= x} psi(t), sampled."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self._sample_pts, x, side="right") - 1,
                      0, len(self._sample_pts) - 1)
        return self._sample_sup[idx]

    def psi2(self, x):
        """Step envelope, constant on each cell (1/(n+1), 1/n]."""
        x = np.asarray(x, dtype=float)
        n = np.clip(np.floor(1.0 / np.maximum(x, 1e-300)).astype(int), 1, self.n_max)
        return self._psi1_mesh[n - 1]

    def psi3_nodes(self):
        """(xs, ys) node table of the continuous envelope, truncated at 1/n_max
        with a linear closing segment to 0."""
        ns = np.arange(self.n_max, 1, -1)          # n_max, ..., 2
        xs = np.concatenate([[0.0], 1.0 / ns, [1.0]])
        ys = np.concatenate([[0.0], self._psi1_mesh[ns - 2], [self._psi1_mesh[0]]])
        return xs, ys

    def psi3(self, x):
        xs, ys = self.psi3_nodes()
        return np.interp(np.asarray(x, dtype=float), xs, ys)


def slow_decay_construct(spec: DecaySpec) -> Integrand:
    """Integrand whose translation gap dominates the decay target.

    The primitive equals the continuous envelope on [1/n_max, 1], is 0 at 0,
    and is constant outside [0, 1]; the integrand is its nonnegative step
    derivative, supported on (0, 1].
    """
    xs, ys = spec.psi3_nodes()
    F = PiecewiseLinearPrimitive(xs, ys, label="slow_decay")
    return Integrand(F, F.pointwise_derived(), "slow_decay")


def verify_slow_decay(f: Integrand, spec: DecaySpec, xs: Sequence[float],
                      tol: float = 1e-12) -> List[GapReport]:
    """Check gap(x) >= psi(x) on the represented range x >= 1/n_max.

    Shifts below the truncation point are reported without a bound (the
    envelope is not represented there), and pass vacuously.
    """
    reports = []
    cutoff = 1.0 / spec.n_max
    for x in sorted(xs, key=lambda t: (-abs(t), t)):
        gap = translation_gap(f, x)
        if x < cutoff - 1e-15 or x > 1.0 + 1e-15:
            reports.append(GapReport(x=x, gap=gap, passed=True))
            continue
        bound = float(_call_vec(spec.psi, np.asarray([x]))[0])
        reports.append(GapReport(x=x, gap=gap, bound_lower=bound,
                                 passed=gap >= bound - tol))
    return reports


# ---------------------------------------------------------------------------
# Smooth bumps and the two-sided oscillation bound
# ---------------------------------------------------------------------------

def _phi(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    u = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - u * u))
    return out


def _phi_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    u = t[inside]
    q = 1.0 - u * u
    out[inside] = np.exp(-1.0 / q) * (-2.0 * u) / (q * q)
    return out


def _phi_prime_max() -> float:
    # sup |phi'| on (-1, 1): phi'' vanishes where 6 t^4 = 2
    return abs(float(_phi_prime(np.asarray([3.0 ** -0.25]))[0]))


@dataclass(frozen=True)
class SmoothBump:
    """The standard infinitely-smooth compactly supported bump, scaled and
    translated: amplitude * exp(-1/(1 - t^2)) with t = (y - center)/halfwidth."""

    center: float = 0.0
    halfwidth: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.halfwidth > 0:
            raise ValueError("halfwidth must be positive")

    def value(self, y):
        t = (np.asarray(y, dtype=float) - self.center) / self.halfwidth
        return self.amplitude * _phi(t)

    def derivative(self, y):
        t = (np.asarray(y, dtype=float) - self.center) / self.halfwidth
        return (self.amplitude / self.halfwidth) * _phi_prime(t)

    @property
    def support(self) -> tuple:
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    def osc(self) -> float:
        # the bump's max is amplitude/e and its min is 0
        return abs(self.amplitude) * math.exp(-1.0)

    def derivative_sup(self) -> float:
        return abs(self.amplitude) / self.halfwidth * _phi_prime_max()

    def to_integrand(self) -> Integrand:
        P = build_primitive_from_pointwise(self.value, Interval(*self.support), 1e-12,
                                           label="bump")
        return Integrand(P, self.value, "bump")


def osc_lower_bound_check(f: SmoothBump, xs: Sequence[float],
                          tol: float = 1e-9) -> List[GapReport]:
    """gap(x) against osc(f)|x| -+ 2 ||f'||_inf x^2 (lower bound clamped at 0)."""
    g = f.to_integrand()
    osc = f.osc()
    dsup = f.derivative_sup()
    reports = []
    for x in sorted(xs, key=lambda t: (-abs(t), t)):
        gap = translation_gap(g, x)
        lower = max(osc * abs(x) - 2.0 * dsup * x * x, 0.0)
        upper = osc * abs(x) + 2.0 * dsup * x * x
        reports.append(GapReport(x=x, gap=gap, bound_lower=lower, bound_upper=upper,
                                 passed=lower - tol <= gap <= upper + tol))
    return reports


# ---------------------------------------------------------------------------
# Shifted-primitive estimates
# ---------------------------------------------------------------------------

def _window_critical(F: Primitive, x: float) -> np.ndarray:
    """W(a) = integral of F over [a-x, a] at the merged edges and the real
    roots of W' = F - F(.-x) on F's search pieces, in increasing a: W is
    monotone in between (for a closed form, to the proxy's accuracy)."""
    Fp = F.search_pieces(False)
    a = _critical_points([(1.0, 0.0, Fp), (-1.0, x, Fp)])
    return F.window_integral(a - x, a)


def primitive_gap_norm(f: Integrand, x: float) -> float:
    """||tau_x F - F||: the norm of the primitive-difference function.

    Realized through the moving-window integral W(a) = integral of F over
    [a-x, a], whose limits are x * F(-inf) and x * F(+inf); the norm is the
    oscillation of W over the extended line.  Machine-exact for tables and
    Chebyshev panels; for closed forms the proxy places the windows and
    Gauss-Legendre on the closed form values them.
    """
    _check_shift(x)
    F = f.primitive
    if x == 0.0:
        return 0.0
    if not (math.isfinite(F.limit_neg) and math.isfinite(F.limit_pos)):
        raise NonConvergentTail("primitive limits are not finite")
    if x < 0:
        # W for a negative window orientation differs by sign only
        return primitive_gap_norm(f, -x)
    W = np.r_[_window_critical(F, x), x * F.limit_neg, x * F.limit_pos]
    return float(W.max() - W.min())


def one_norm(f: Integrand) -> float:
    """||f||_1, the total variation of the primitive."""
    tv = f.primitive.total_variation()
    if tv is not None:
        return tv
    pt = f.pointwise_or_derived()
    if pt is None:
        raise NotAbsolutelyIntegrable("no pointwise data to integrate |f|")
    lo, hi = f.primitive.support_window()
    try:
        P = build_primitive_from_pointwise(
            lambda y: np.abs(_call_vec(pt, y)), Interval(-math.inf, math.inf),
            1e-10, core_halfwidth=max(abs(lo), abs(hi), 8.0))
    except NonConvergentTail as exc:
        raise NotAbsolutelyIntegrable(str(exc)) from exc
    return P.limit_pos


def primitive_gap_l1(f: Integrand, x: float) -> float:
    """integral of |F(y-x) - F(y)| dy, for absolutely integrable f: the
    variation of W (machine-exact) for tables and panels, tail panels
    included, else the adaptive builder's integral of |H| to 1e-10."""
    _check_shift(x)
    F = f.primitive
    if x == 0.0:
        return 0.0
    if F.pieces(True) is not None:
        return float(np.abs(np.diff(_window_critical(F, x))).sum())
    ev = lambda y: np.abs(F.eval(np.asarray(y, dtype=float) - x) - F.eval(np.asarray(y, dtype=float)))
    lo, hi = F.support_window()
    core = max(abs(lo), abs(hi), 8.0) + abs(x)
    try:
        P = build_primitive_from_pointwise(ev, Interval(-math.inf, math.inf), 1e-10,
                                           core_halfwidth=core)
    except NonConvergentTail as exc:
        raise NotAbsolutelyIntegrable(
            "the primitive difference is not absolutely integrable") from exc
    return P.limit_pos


# ---------------------------------------------------------------------------
# The integrable-but-not-L1 witness
# ---------------------------------------------------------------------------


def _sinc(y):
    """np.sinc(y / pi) bit for bit: np.sinc's own steps, done in place."""
    t = np.array(y, dtype=float)
    t /= np.pi
    t *= np.pi
    np.copyto(t, _EPS, where=t == 0)  # np.sinc's guard at zero
    s = np.sin(t)
    s /= t
    return s


_SINC_PRIMITIVE = ClosedFormPrimitive(_sinc, 0.0, 0.0, scan=(-400.0, 400.0),
                                      label="sinc_primitive")


def _sinc_derivative(y):
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = np.abs(y) < 1e-4
    ys = y[small]
    out[small] = -ys / 3.0 + ys ** 3 / 30.0
    yb = y[~small]
    out[~small] = np.cos(yb) / yb - np.sin(yb) / yb ** 2
    return out


def sinc_integrand() -> Integrand:
    """The canonical witness: F(y) = sin(y)/y, f = F'."""
    return Integrand(_SINC_PRIMITIVE, _sinc_derivative, "sinc_primitive")


@dataclass(frozen=True)
class HkWitnessReport:
    tail_coefficient_sin: float
    tail_coefficient_cos: float
    abs_integral_diverges: bool
    alexiewicz_finite: bool
    r_squared: float
    log_slope: float
    certificate: str
    gap_norm: float


def hk_not_l1_witness(x: float) -> HkWitnessReport:
    """Certificate that tau_x F - F (for F(y) = sin(y)/y) is integrable in the
    norm sense but not absolutely integrable.

    The large-y behaviour of the difference is ([cos x - 1] sin y - sin x cos y)/y;
    divergence of the absolute integral is certified by fitting the partial
    integrals over k = 1 ... 200 periods against log k (divergent when the fit
    is clean, R^2 >= 0.999, with positive slope).  The certificate is reported
    as inconclusive when both asymptotic coefficients vanish.
    """
    _check_shift(x)
    if x == 0.0:
        raise ValueError("the witness needs a nonzero shift")
    A = math.cos(x) - 1.0
    B = -math.sin(x)

    F = _SINC_PRIMITIVE

    def absdiff(y):
        y = np.asarray(y, dtype=float)
        return np.abs(F.eval(y - x) - F.eval(y))

    nodes, wts = gauss_nodes(16)
    periods = 200
    panels_per_period = 12
    S = np.empty(periods)
    acc = 0.0
    for k in range(1, periods + 1):
        a = 2.0 * math.pi * (k - 1)
        b = 2.0 * math.pi * k
        edges = np.linspace(a, b, panels_per_period + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        hw = 0.5 * (edges[1] - edges[0])
        pts = mid[:, None] + hw * nodes[None, :]
        acc += float(hw * np.sum(absdiff(pts.ravel()).reshape(pts.shape) @ wts))
        S[k - 1] = acc

    ks = np.log(np.arange(1, periods + 1, dtype=float))
    coef = np.polyfit(ks, S, 1)
    fit = np.polyval(coef, ks)
    ss_res = float(np.sum((S - fit) ** 2))
    ss_tot = float(np.sum((S - S.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    slope = float(coef[0])

    gap_norm = primitive_gap_norm(sinc_integrand(), x)
    coeffs_nonzero = math.hypot(A, B) > 1e-12
    diverges = coeffs_nonzero and r2 >= 0.999 and slope > 0
    certificate = "log_growth" if coeffs_nonzero else "inconclusive"
    return HkWitnessReport(
        tail_coefficient_sin=A,
        tail_coefficient_cos=B,
        abs_integral_diverges=diverges,
        alexiewicz_finite=math.isfinite(gap_norm),
        r_squared=r2,
        log_slope=slope,
        certificate=certificate,
        gap_norm=gap_norm,
    )
