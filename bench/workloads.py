"""The benchmark's workloads: seeded inputs, timed operations, checks.

Each workload has ``setup(root, seed)``, which does everything up to the
first timed operation, and ``round()``, which runs one round of operations
and returns its timed parts (each operation's seconds, or the whole run's)
and one ``Op`` per operation.  Every round runs
the same operations on the same inputs, rebuilt as fresh objects so that no
per-object cache filled by an earlier round is reused.  Each operation's
output is checked against ``oracles`` (which never imports the library) after
its timer stops.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DYADIC = [2.0 ** -k for k in range(1, 11)]


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0
    known_fault: bool = False


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _describe(got, want) -> str:
    return f"got={got!r} want={want!r}"


class _Timed:
    """Runs operations, times them, and checks their outputs untimed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []

    def run(self, name, call, check, known_fault=False):
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:     # a failing operation is counted, not fatal
            seconds = time.perf_counter() - t0
            self.ops.append(Op(name, False, traceback.format_exc(limit=3), seconds,
                               known_fault))
            return
        seconds = time.perf_counter() - t0
        try:
            ok, detail = check(out)
        except Exception:
            ok, detail = False, "check raised: " + traceback.format_exc(limit=3)
        self.ops.append(Op(name, bool(ok), detail, seconds, known_fault))

    def times(self) -> list:
        return [op.seconds for op in self.ops]


# ---------------------------------------------------------------------------
# canonical: the manifest run a user makes
# ---------------------------------------------------------------------------


class Canonical:
    """``alexnorm.cli.run`` on manifests/canonical.json with jobs=1.  One
    operation is one scenario; the manifest's own verdict is recorded only."""

    name = "canonical"

    def setup(self, root: Path, seed: int):
        from alexnorm import cli, registry
        self.cli, self.registry = cli, registry
        self.path = root / "manifests" / "canonical.json"
        self.raw = json.loads(self.path.read_text())
        cli.load_manifest(self.path)     # parsing builds the registry builtins
        self.scratch = root / ".bench_runs"

    def _fresh_manifest(self):
        # a fresh `alexnorm run` builds the registry builtins while parsing;
        # dropping the singletons makes every round start from that state
        for store in ("_FUNCTIONS", "_WEIGHTS"):
            getattr(self.registry, store, {}).clear()
        sinc = self.registry.get_function("sinc_primitive").primitive
        getattr(sinc, "_extrema_cache", {}).clear()
        return self.cli.load_manifest(self.path)

    def round(self, tracer=None):
        manifest = self._fresh_manifest()
        self.scratch.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="canonical-", dir=self.scratch))
        try:
            t0 = time.perf_counter()
            report = self.cli.run(manifest, out_dir=out, jobs=1)
            wall = time.perf_counter() - t0
            ops = self._check(report.summary, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return [wall], ops

    def _check(self, summary, out: Path):
        import oracles
        files = sorted(p.name for p in out.iterdir())
        raw = {sc["name"]: sc for sc in self.raw["scenarios"]}
        ops = []
        for entry in summary["scenarios"]:
            name = entry["name"]
            sc = raw[name]
            problems = []
            if entry["status"] != "ok":
                problems.append(f"error: {entry['error']}")
            elif not (out / sc["output_path"]).is_file():
                problems.append(f"missing {sc['output_path']}")
            else:
                rows = _csv(out / sc["output_path"])
                check = _CANONICAL_CHECKS.get(name)
                if check is not None:
                    problems.extend(check(rows, entry, sc, oracles))
            if len(files) != 19 or "summary.json" not in files:
                problems.append(f"{len(files)} files written, want 19")
            ops.append(Op(name, not problems,
                          "; ".join(problems) or f"manifest passed={entry['passed']}"))
        return ops


def _csv(path: Path) -> list:
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _check_c02_indicator(rows, entry, sc, oracles):
    # the translation gap of chi_[0,1] is min(|x|, 1)
    return [f"x={r['x']}: gap={r['gap']}" for r in rows
            if not _close(float(r["gap"]), min(abs(float(r["x"])), 1.0), 1e-12)]


def _check_c07_closed_form(rows, entry, sc, oracles):
    cf = sc["closed_form_check"]
    a, b = cf.get("interval", (-50.0, 50.0))
    bad = []
    for x in cf.get("xs", [0.5, 0.1]):
        row = next(r for r in rows if r["item"] == f"variation_closed_form@x={x:g}")
        est = float(row["lhs"])
        exact = oracles.reciprocal_quadratic_ratio_variation(float(x), a, b)
        if not (abs(est - exact) <= cf.get("rel_tol", 0.01) * exact
                and est <= exact + 1e-9):
            bad.append(f"x={x}: variation {_describe(est, exact)}")
    return bad


def _check_c09(rows, entry, sc, oracles):
    h = entry["headline"]
    bad = [f"{k}={h.get(k)!r}" for k, limit in
           (("kernel_mass_max_err", 1e-10), ("unit_extension_max_err", 1e-10),
            ("cos_extension_max_err", 1e-8))
           if not (h.get(k) is not None and h[k] <= limit)]
    return bad


def _check_c10(rows, entry, sc, oracles):
    a, b = sc.get("interval", (-8.0, 8.0))
    bad = []
    for r in rows:
        y, gap = float(r["param"]), float(r["gap"])
        want = oracles.halfplane_indicator_gap(y, a, b)
        if abs(gap - want) > 1e-6:
            bad.append(f"y={y}: gap {_describe(gap, want)}")
    return bad


_CANONICAL_CHECKS = {
    "c02_gap_indicator": _check_c02_indicator,
    "c07_weight_reciprocal_quadratic": _check_c07_closed_form,
    "c09_poisson_disc": _check_c09,
    "c10_poisson_halfplane": _check_c10,
}


# ---------------------------------------------------------------------------
# gap_engines: norms and gaps on the three primitive representations
# ---------------------------------------------------------------------------

# node counts of the tables; weighted sweeps build an adaptive product with a
# breakpoint at every node, so they run on the two small tables only
TABLE_SIZES = (6, 48, 400, 3000)
TABLE_SPANS = (3.0, 8.0, 16.0, 40.0)
WEIGHTED_TABLES = 2
# (degree, support length) of the polynomial data
POLYS = ((3, 2.0), (6, 5.0))
# (omega, support length, gap ladder) of the trigonometric data; the long
# support gives over a thousand panels, so the working set grows by an order
TRIGS = ((3.0, 40.0, DYADIC[::2]), (5.0, 160.0, DYADIC[::5]))
POLY_TOL = 1e-12
TRIG_TOL = 1e-10
# shifts for the primitive-difference and weighted functionals
PGN_XS = (0.5, 0.125, 2.0 ** -6)
WEIGHTED_XS = (0.125,)
BOTH_WEIGHTS = ("rq", "table_weight")

# comparison tolerance per representation, relative to max(1, |oracle|); it
# is also the slack allowed above an oracle supremum (the approximant's error)
TOL = {"table": 1e-12, "poly": 1e-9, "trig": 1e-7, "closed": 1e-8}
WEIGHTED_TOL = 1e-7


class GapEngines:
    """Norms, translation gaps, primitive-difference norms and weighted gaps
    on node tables, adaptive Chebyshev-panel primitives and closed forms."""

    name = "gap_engines"

    def setup(self, root: Path, seed: int):
        import alexnorm as an
        self.an = an
        rng = np.random.default_rng([seed, 1])
        # (kind, label, data, gap ladder, primitive-gap shifts, L1 shifts, weights)
        self.inputs = []
        for i, (n, span) in enumerate(zip(TABLE_SIZES, TABLE_SPANS)):
            c = rng.uniform(-3.0, 3.0)
            xs = np.sort(rng.uniform(c - span / 2, c + span / 2, n))
            ys = np.cumsum(rng.normal(size=n)) * (span / n)
            self.inputs.append(("table", f"table{n}", (xs, ys), DYADIC, PGN_XS, PGN_XS,
                                BOTH_WEIGHTS if i < WEIGHTED_TABLES else ()))
        for deg, length in POLYS:
            a = rng.uniform(-3.0, 3.0)
            poly = _seeded_poly(rng, deg, a, a + length)
            P = an.build_primitive_from_pointwise(_poly_density(poly), (a, a + length), POLY_TOL)
            self.inputs.append(("poly", f"poly{deg}", (poly, _cheb_state(P)),
                                DYADIC[::2], PGN_XS, PGN_XS, BOTH_WEIGHTS))
        for i, (omega, length, ladder) in enumerate(TRIGS):
            amp, phase = 1.0, rng.uniform(0.0, 2 * math.pi)
            a = rng.uniform(-10.0, 10.0)
            f = lambda y, amp=amp, phase=phase, omega=omega: amp * np.sin(omega * y + phase)
            P = an.build_primitive_from_pointwise(f, (a, a + length), TRIG_TOL)
            # primitive_gap_norm is left out on the long support: it places W's
            # critical points on a fixed 4097-point fill grid and misses the
            # supremum there by ~4e-6 relative, by an amount that depends on the seed
            short = i == 0
            self.inputs.append(("trig", f"trig{int(length)}",
                                (amp, omega, phase, a, a + length, _cheb_state(P)), ladder,
                                PGN_XS if short else (), PGN_XS[:1] if short else (),
                                BOTH_WEIGHTS if short else ()))
        # sinc is not absolutely integrable (no L1 gap), and its product with a
        # step weight has non-convergent doubling-window tails.  cosine's jumps
        # at +-pi are not breakpoints of its primitive, and against the seeded
        # step weight its weighted gap overshoots by ~1e-6 on some seeds.
        for name, l1_xs, weights in (("sinc_primitive", (), ()),
                                     ("gaussian", PGN_XS[:2], BOTH_WEIGHTS),
                                     ("cosine", PGN_XS[:2], ("rq",))):
            self.inputs.append(("closed", name, an.get_function(name), DYADIC[::2], PGN_XS[:2],
                                l1_xs, weights))
        self.rq = an.get_weight("reciprocal_quadratic")
        self.table_weight = (np.sort(rng.uniform(-3.0, 3.0, 3)), rng.uniform(0.5, 3.0, 4))
        self.shift = float(rng.uniform(-5.0, 5.0))
        self._oracles, self._refs = {}, {}

    def _integrand(self, kind, data):
        """A fresh object for each round, so no per-object cache carries over."""
        an = self.an
        if kind == "table":
            F = an.PiecewiseLinearPrimitive(*data)
            return an.Integrand(F, F.pointwise_derived())
        if kind == "closed":
            F = data.primitive
            fresh = an.ClosedFormPrimitive(F.func, F.limit_neg, F.limit_pos, F.scan,
                                           F.support, F.label)
            return an.Integrand(fresh, data.pointwise)
        if kind == "poly":
            poly, state = data
            (_, a, b), density = poly, _poly_density(poly)
        else:
            amp, omega, phase, a, b, state = data
            density = lambda y: amp * np.sin(omega * np.asarray(y, dtype=float) + phase)
        f = lambda y: np.where((np.asarray(y) >= a) & (np.asarray(y) <= b), density(y), 0.0)
        return an.Integrand(_cheb(an, state), f)

    def _ref(self, label, kind, data, what, *args):
        """Oracle value, computed once per input and reused by later rounds."""
        key = (label, what) + args
        if key not in self._refs:
            if label not in self._oracles:
                weights = {"rq": ("rq",), "table_weight": ("table",) + self.table_weight}
                self._oracles[label] = _gap_oracle(kind, data, weights)
            self._refs[key] = self._oracles[label](what, *args)
        return self._refs[key]

    def round(self, tracer=None):
        an = self.an
        run = _Timed(tracer)
        weights = {"rq": self.rq, "table_weight": an.Weight.piecewise_constant(*self.table_weight)}
        for kind, label, data, ladder, pgn_xs, l1_xs, weight_names in self.inputs:
            f = self._integrand(kind, data)
            tol = TOL[kind]
            ref = lambda what, *args, label=label, kind=kind, data=data: self._ref(
                label, kind, data, what, *args)

            def sup_check(got, want, what, tol=tol):
                # never above an oracle supremum beyond the approximant's error
                ok = _close(got, want, tol) and got <= want + tol * max(1.0, abs(want))
                return ok, f"{what}: {_describe(got, want)}"

            run.run(f"{label}.norm", lambda: an.alexiewicz_norm(f),
                    lambda v: sup_check(v, ref("norm"), "norm"))
            run.run(f"{label}.isometry",
                    lambda: an.alexiewicz_norm(an.translate(f, self.shift)),
                    lambda v: sup_check(v, ref("norm"), f"norm after shift {self.shift}"))

            def gap_check(reports, ladder=ladder, ref=ref, sup_check=sup_check, tol=tol):
                bad = [] if sorted(r.x for r in reports) == sorted(ladder) else ["rows"]
                for r in reports:
                    ok, detail = sup_check(r.gap, ref("gap", r.x), f"gap x={r.x}")
                    bound = 2.0 * min(ref("norm"), abs(r.x) * ref("sup_f"))
                    if r.gap > bound + tol * max(1.0, bound):
                        ok, detail = False, f"gap x={r.x} {r.gap} > 2 min(|f|, |x| sup|f|)"
                    bad += [] if ok else [detail]
                return not bad, "; ".join(bad)

            run.run(f"{label}.gap_sweep", lambda: an.gap_sweep(f, ladder), gap_check)

            for x in pgn_xs:
                def pgn_check(v, x=x, ref=ref, sup_check=sup_check, tol=tol):
                    ok, detail = sup_check(v, ref("pgn", x), f"primitive gap x={x}")
                    # the shifted-primitive estimate ||tau_x F - F|| <= ||f|| |x|
                    if v > ref("norm") * abs(x) * (1.0 + tol):
                        ok, detail = False, f"primitive gap x={x} {v} > |f| |x|"
                    return ok, detail
                run.run(f"{label}.primitive_gap_norm@{x:g}",
                        lambda x=x: an.primitive_gap_norm(f, x), pgn_check)

            for x in l1_xs:
                run.run(f"{label}.primitive_gap_l1@{x:g}",
                        lambda x=x: an.primitive_gap_l1(f, x),
                        lambda v, x=x, ref=ref, tol=tol: (
                            _close(v, ref("pgl1", x), tol),
                            f"l1 x={x}: {_describe(v, ref('pgl1', x))}"))

            for wname in weight_names:
                def weighted_check(reports, wname=wname, ref=ref):
                    bad = [f"x={r.x}: {_describe(r.gap, ref('weighted', r.x, wname))}"
                           for r in reports
                           if not _close(r.gap, ref("weighted", r.x, wname), WEIGHTED_TOL)]
                    return not bad, "; ".join(bad)
                run.run(f"{label}.weighted_gap_sweep.{wname}",
                        lambda w=weights[wname]: an.weighted_gap_sweep(f, w, WEIGHTED_XS),
                        weighted_check)
        return run.times(), run.ops


def _gap_oracle(kind, data, oracle_weights):
    """The oracle functions for one input, by representation."""
    import oracles as o
    if kind == "table":
        xs, ys = data
        fns = {"norm": lambda: o.table_norm(xs, ys),
               "gap": lambda x: o.table_gap(xs, ys, x),
               "pgn": lambda x: o.table_primitive_gap_norm(xs, ys, x),
               "pgl1": lambda x: o.table_primitive_gap_l1(xs, ys, x),
               "weighted": lambda x, w: o.table_weighted_gap(xs, ys, x, oracle_weights[w]),
               "sup_f": lambda: float(np.abs(o.table_slopes(xs, ys)).max())}
    elif kind == "poly":
        (q, a, b), state = data
        pp = o.PolyPiece(_global_coefs(q, a, b), a, b, state[2])
        fns = {"norm": lambda: o.poly_norm(pp),
               "gap": lambda x: o.poly_gap(pp, x),
               "pgn": lambda x: o.poly_primitive_gap_norm(pp, x),
               "pgl1": lambda x: o.poly_primitive_gap_l1(pp, x),
               "weighted": lambda x, w: o.poly_weighted_gap(pp, x, oracle_weights[w]),
               "sup_f": pp.sup_abs_f}
    else:
        if kind == "trig":
            amp, omega, phase, a, b, state = data
            sf = o.trig_form(amp, omega, phase, a, b, state[2])
        else:
            sf = {"sinc_primitive": o.sinc_form, "gaussian": o.gaussian_form,
                  "cosine": o.cosine_form}[data.label]()
        fns = {"norm": lambda: o.smooth_norm(sf),
               "gap": lambda x: o.smooth_gap(sf, x),
               "pgn": lambda x: o.smooth_primitive_gap_norm(sf, x),
               "pgl1": lambda x: o.smooth_primitive_gap_l1(sf, x),
               "weighted": lambda x, w: o.smooth_weighted_gap(sf, x, oracle_weights[w]),
               "sup_f": lambda: sf.sup_abs_f}
    return lambda what, *args: fns[what](*args)


def _seeded_poly(rng, deg: int, a: float, b: float):
    """A polynomial of order-1 values on [a, b]: (local coefficients, a, b).
    It is evaluated in the local variable u = (2y - a - b)/(b - a), so its
    values carry no cancellation from large global coefficients."""
    return rng.normal(size=deg + 1) / np.arange(1, deg + 2), a, b


def _poly_density(poly):
    q, a, b = poly
    q = np.polynomial.Polynomial(q)
    return lambda y: q((2.0 * np.asarray(y, dtype=float) - a - b) / (b - a))


def _global_coefs(q, a: float, b: float) -> np.ndarray:
    u = np.polynomial.Polynomial([-(a + b) / (b - a), 2.0 / (b - a)])
    return np.polynomial.Polynomial(q)(u).coef


def _cheb_state(P):
    return (P.edges.copy(), P.fc.copy(), float(P.F_edges[0]), P.limit_neg,
            P.limit_pos, P.tail_estimated)


def _cheb(an, state):
    edges, fc, F0, lim_neg, lim_pos, tail = state
    P = an.PiecewiseChebyshevPrimitive(edges, fc, F_edge0=F0, tail_estimated=tail)
    P.limit_neg, P.limit_pos = lim_neg, lim_pos
    return P


# ---------------------------------------------------------------------------
# poisson_points: one-shot Poisson evaluations at seeded points
# ---------------------------------------------------------------------------

HALFPLANE_POINTS = 8          # per (boundary function, weight) pair
DISC_ARC_POINTS = 8
DISC_HARMONICS = (1, 2, 5)
DISC_HARMONIC_POINTS = 4
HALFPLANE_TOL = 1e-6          # the evaluation's own tolerance
DISC_TOL = 1e-9

# Half-plane evaluations with a table weight fail today: HalfPlaneOperator.value
# drops the Stieltjes jump terms G(t_j)[Psi(t_j+) - Psi(t_j-)] at the weight's
# breakpoints.  They run on fixed inputs, so every round fails the same ones.
# (f = chi_[a, b], weight (breakpoints, values), point (x, y))
TABLE_WEIGHT_CASES = (
    ((-1.0, 1.0), ((0.37,), (1.0, 2.0)), (0.5, 0.2)),
    ((-1.0, 1.0), ((-0.5, 0.3), (1.0, 2.5, 0.7)), (-0.2, 0.05)),
    ((0.0, 2.0), ((0.5, 1.5), (2.0, 0.5, 1.0)), (1.2, 0.3)),
    ((-2.0, 0.5), ((-1.0,), (0.25, 1.0)), (-1.5, 0.5)),
)


class PoissonPoints:
    """poisson_halfplane(f, w, z) and poisson_disc(f, r, theta), each built
    for a single point, so operator construction dominates."""

    name = "poisson_points"

    def setup(self, root: Path, seed: int):
        import alexnorm as an
        self.an = an
        rng = np.random.default_rng([seed, 2])
        # piecewise-constant f on 5 pieces
        edges = np.sort(rng.uniform(-2.0, 2.0, 6))
        self.hp_table = (edges, rng.normal(size=5))
        # polynomial f on [a, b]
        a = rng.uniform(-2.0, 0.0)
        poly = _seeded_poly(rng, 3, a, a + 2.5)
        P = an.build_primitive_from_pointwise(_poly_density(poly), (a, a + 2.5), POLY_TOL)
        self.hp_poly = (poly, _cheb_state(P))
        n_pairs = 4
        self.hp_points = [(rng.uniform(-3.0, 3.0, HALFPLANE_POINTS),
                           10.0 ** rng.uniform(-3.0, 0.0, HALFPLANE_POINTS))
                          for _ in range(n_pairs)]
        self.rq = an.get_weight("reciprocal_quadratic")
        arcs = np.concatenate([[-math.pi], np.sort(rng.uniform(-math.pi, math.pi, 3)),
                               [math.pi]])
        self.arcs = (arcs, rng.normal(size=4))
        self.arc_points = (rng.uniform(0.0, 0.99, DISC_ARC_POINTS),
                           rng.uniform(-math.pi, math.pi, DISC_ARC_POINTS))
        self.harmonic_points = [(rng.uniform(0.0, 0.95, DISC_HARMONIC_POINTS),
                                 rng.uniform(-math.pi, math.pi, DISC_HARMONIC_POINTS))
                                for _ in DISC_HARMONICS]

    def _table_integrand(self, edges, values):
        F = self.an.PiecewiseLinearPrimitive(
            edges, np.concatenate([[0.0], np.cumsum(values * np.diff(edges))]))
        return self.an.Integrand(F, F.pointwise_derived())

    def round(self, tracer=None):
        import oracles as o
        an = self.an
        run = _Timed(tracer)
        HalfPlanePoint = an.HalfPlanePoint

        edges, values = self.hp_table
        poly, state = self.hp_poly
        _, a, b = poly
        density = _poly_density(poly)
        poly_f = lambda y: np.where((np.asarray(y) >= a) & (np.asarray(y) <= b), density(y), 0.0)
        fs = (("table", self._table_integrand(edges, values),
               lambda x, y: o.halfplane_piecewise_constant(edges, values, x, y)),
              ("poly", an.Integrand(_cheb(an, state), poly_f),
               lambda x, y: o.halfplane_quad(density, a, b, x, y)))
        weights = (("rq", self.rq), ("constant2", an.get_weight("constant", c=2.0)))
        pairs = [(fi, wi) for fi in fs for wi in weights]
        for ((fname, f, oracle), (wname, w)), (xs, ys) in zip(pairs, self.hp_points):
            for x, y in zip(xs, ys):
                z = HalfPlanePoint(float(x), float(y))
                run.run(f"halfplane.{fname}.{wname}",
                        lambda f=f, w=w, z=z: an.poisson_halfplane(f, w, z),
                        lambda v, x=x, y=y, oracle=oracle: (
                            abs(v - oracle(x, y)) <= HALFPLANE_TOL,
                            f"z=({x}, {y}): {_describe(v, oracle(x, y))}"))

        for (fa, fb), (bps, vals), (x, y) in TABLE_WEIGHT_CASES:
            f = an.indicator(fa, fb)
            w = an.Weight.piecewise_constant(bps, vals)
            z = HalfPlanePoint(x, y)
            # the Poisson integral does not depend on w: it is the kernel mass
            want = o.halfplane_piecewise_constant((fa, fb), (1.0,), x, y)
            run.run("halfplane.table.table_weight",
                    lambda f=f, w=w, z=z: an.poisson_halfplane(f, w, z),
                    lambda v, want=want, x=x, y=y: (abs(v - want) <= HALFPLANE_TOL,
                                                    f"z=({x}, {y}): {_describe(v, want)}"),
                    known_fault=True)

        arcs, arc_values = self.arcs
        g = an.PeriodicIntegrand(self._table_integrand(arcs, arc_values))
        for r, th in zip(*self.arc_points):
            run.run("disc.arcs", lambda r=r, th=th: an.poisson_disc(g, float(r), float(th)),
                    lambda v, r=r, th=th: (
                        abs(v - o.disc_piecewise_constant(arcs, arc_values, r, th)) <= DISC_TOL,
                        f"r={r} theta={th}: "
                        f"{_describe(v, o.disc_piecewise_constant(arcs, arc_values, r, th))}"))
        for k, (rs, ths) in zip(DISC_HARMONICS, self.harmonic_points):
            h = an.PeriodicIntegrand(_harmonic(an, k))
            for r, th in zip(rs, ths):
                run.run(f"disc.cos{k}",
                        lambda h=h, r=r, th=th: an.poisson_disc(h, float(r), float(th)),
                        lambda v, k=k, r=r, th=th: (
                            abs(v - o.disc_harmonic(k, r, th)) <= DISC_TOL,
                            f"r={r} theta={th}: {_describe(v, o.disc_harmonic(k, r, th))}"))
        return run.times(), run.ops


def _harmonic(an, k: int):
    """cos(k theta) on [-pi, pi] with primitive sin(k theta)/k."""
    inside = lambda y: np.abs(np.asarray(y, dtype=float)) <= math.pi
    F = an.ClosedFormPrimitive(
        lambda y: np.where(inside(y), np.sin(k * np.asarray(y, dtype=float)) / k, 0.0),
        0.0, 0.0, scan=(-math.pi - 0.5, math.pi + 0.5), support=(-math.pi, math.pi),
        label=f"cos{k}")
    return an.Integrand(F, lambda y: np.where(inside(y), np.cos(k * np.asarray(y, dtype=float)),
                                              0.0), f"cos{k}")


WORKLOADS = {w.name: w for w in (Canonical, GapEngines, PoissonPoints)}
