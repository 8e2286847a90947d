"""Batch front end: manifest ingestion, scenario execution, CSV/JSON emission.

A manifest is one JSON file listing scenarios; each scenario names a harness
kind, its function/weight specs (builtin names or inline tables), a parameter
ladder and thresholds, and the CSV file it writes.  Two runs of the same
manifest produce byte-identical output: floats are serialized with 17
significant digits and the only randomness (isometry pair draws) is seeded
from the manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import registry
from .errors import (AlexnormError, HypothesisViolated, NotAbsolutelyIntegrable,
                     SpecParseError)
from .norms import (DecaySpec, SmoothBump, alexiewicz_norm,
                    gap_sweep, hk_not_l1_witness, one_norm, osc_lower_bound_check,
                    primitive_gap_l1, primitive_gap_norm, serialize_gap_reports,
                    slow_decay_construct, sweep_converged, translate,
                    verify_slow_decay)
from .poisson import (PeriodicIntegrand, HalfPlanePoint, disc_boundary_convergence,
                      disc_kernel, halfplane_weighted_convergence, poisson_disc,
                      poisson_halfplane, serialize_poisson_reports)
from .weights import (ratio_conditions_check, sufficient_conditions_check,
                      uniform_bound_lemma_check, variation_bound_check,
                      weight_ratio, weighted_gap_sweep)

SCENARIO_KINDS = ("norm", "gap_sweep", "decay", "osc_bound", "primitive_gap",
                  "weight_audit", "weighted_sweep", "lemma_check",
                  "poisson_disc", "poisson_halfplane")

_KNOWN_KEYS = {"name", "kind", "function_spec", "weight_spec", "ladder",
               "thresholds", "output_path"}


@dataclass
class Scenario:
    name: str
    kind: str
    function_spec: Optional[dict] = None
    weight_spec: Optional[dict] = None
    ladder: list = field(default_factory=list)
    tol: float = 1e-9
    final_gap: Optional[float] = None
    output_path: str = ""
    params: dict = field(default_factory=dict)


@dataclass
class RunManifest:
    scenarios: List[Scenario]
    seed: int = 0
    versions: str = ""
    timestamp: str = ""


@dataclass
class ScenarioResult:
    name: str
    kind: str
    status: str = "ok"            # "ok" or "error"
    passed: Optional[bool] = None
    headline: dict = field(default_factory=dict)
    csv_text: str = ""
    output_path: str = ""
    error: str = ""


def _f(v) -> str:
    if v is None or v == "":
        return ""
    return format(float(v), ".17g")


def _b(v: bool) -> str:
    return "true" if v else "false"


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _parse_function(spec, where: str, allow_bare: bool = False):
    if not isinstance(spec, dict):
        raise SpecParseError(f"{where}: expected an object")
    kind = spec.get("kind")
    if kind == "constant":
        if not allow_bare:
            raise SpecParseError(
                f"{where}.kind: constant boundary data needs a weighted scenario")
        c = float(spec.get("value", 1.0))
        return lambda y: np.full_like(np.asarray(y, dtype=float), c)
    try:
        return registry.function_from_spec(spec)
    except KeyError as exc:
        raise SpecParseError(f"{where}.name: unknown builtin {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"{where}: {exc}") from exc


def _parse_weight(spec, where: str):
    if not isinstance(spec, dict):
        raise SpecParseError(f"{where}: expected an object")
    try:
        return registry.weight_from_spec(spec)
    except KeyError as exc:
        raise SpecParseError(f"{where}.name: unknown builtin {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"{where}: {exc}") from exc


def parse_manifest(data: dict) -> RunManifest:
    """Validate a manifest dict; SpecParseError messages name the bad field."""
    if not isinstance(data, dict):
        raise SpecParseError("manifest: expected a JSON object")
    raw = data.get("scenarios", [])
    if not isinstance(raw, list):
        raise SpecParseError("manifest.scenarios: expected a list")
    scenarios = []
    for i, sc in enumerate(raw):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise SpecParseError(f"{where}: expected an object")
        kind = sc.get("kind")
        if kind not in SCENARIO_KINDS:
            raise SpecParseError(f"{where}.kind: unknown kind {kind!r}")
        name = sc.get("name") or f"scenario_{i}"
        thresholds = sc.get("thresholds", {}) or {}
        tol = float(thresholds.get("tol", 1e-9))
        if tol <= 0:
            raise SpecParseError(f"{where}.thresholds.tol: must be positive")
        final_gap = thresholds.get("final_gap")
        final_gap = None if final_gap is None else float(final_gap)
        ladder = [float(t) for t in sc.get("ladder", [])]
        needs_ladder = kind in ("gap_sweep", "osc_bound", "primitive_gap",
                                "weighted_sweep", "poisson_disc", "poisson_halfplane",
                                "weight_audit")
        if needs_ladder and not ladder:
            raise SpecParseError(f"{where}.ladder: must be nonempty for kind {kind!r}")
        params = {k: v for k, v in sc.items() if k not in _KNOWN_KEYS}
        # resolve specs now so a bad name fails before anything runs
        if sc.get("function_spec") is not None:
            _parse_function(sc["function_spec"], f"{where}.function_spec",
                            allow_bare=kind in ("weighted_sweep", "poisson_halfplane"))
        elif kind in ("norm", "gap_sweep", "primitive_gap", "weighted_sweep",
                      "poisson_disc", "poisson_halfplane"):
            raise SpecParseError(f"{where}.function_spec: required for kind {kind!r}")
        if sc.get("weight_spec") is not None:
            _parse_weight(sc["weight_spec"], f"{where}.weight_spec")
        elif kind in ("weight_audit", "weighted_sweep", "poisson_halfplane"):
            raise SpecParseError(f"{where}.weight_spec: required for kind {kind!r}")
        scenarios.append(Scenario(
            name=name, kind=kind, function_spec=sc.get("function_spec"),
            weight_spec=sc.get("weight_spec"), ladder=ladder, tol=tol,
            final_gap=final_gap, output_path=sc.get("output_path", f"{name}.csv"),
            params=params))
    return RunManifest(scenarios=scenarios, seed=int(data.get("seed", 0)),
                       versions=str(data.get("versions", "")),
                       timestamp=str(data.get("timestamp", "")))


def load_manifest(path) -> RunManifest:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"manifest: invalid JSON ({exc})") from exc
    return parse_manifest(data)


# ---------------------------------------------------------------------------
# Scenario executors
# ---------------------------------------------------------------------------


def _run_norm(sc: Scenario, seed: int) -> ScenarioResult:
    f = _parse_function(sc.function_spec, sc.name)
    val = alexiewicz_norm(f)
    expected = sc.params.get("expected")
    rows = []
    ok = True
    if expected is not None:
        row_ok = abs(val - float(expected)) <= sc.tol
        ok = ok and row_ok
        rows.append(f"{f.label},{_f(val)},{_f(expected)},{_b(row_ok)}")
    else:
        rows.append(f"{f.label},{_f(val)},,true")
    headline = {"norm": val}
    if sc.params.get("check_isometry"):
        pairs = int(sc.params.get("pairs", 100))
        rng = np.random.default_rng(seed)
        names = [n for n in registry.registry_list()
                 if registry.describe(n)["kind"] == "function"]
        base_norms = {n: alexiewicz_norm(registry.get_function(n)) for n in names}
        worst = 0.0
        for _ in range(pairs):
            name = names[int(rng.integers(len(names)))]
            x = float(rng.uniform(-5.0, 5.0))
            g = registry.get_function(name)
            shifted = alexiewicz_norm(translate(g, x))
            err = abs(shifted - base_norms[name])
            worst = max(worst, err)
            row_ok = err <= sc.tol
            ok = ok and row_ok
            rows.append(f"{name}@x={x:.6g},{_f(shifted)},{_f(base_norms[name])},{_b(row_ok)}")
        headline["isometry_worst_error"] = worst
    csv = "label,norm,expected,passed\n" + "\n".join(rows) + "\n"
    return ScenarioResult(sc.name, sc.kind, passed=ok, headline=headline,
                          csv_text=csv, output_path=sc.output_path)


def _run_gap_sweep(sc: Scenario, seed: int) -> ScenarioResult:
    f = _parse_function(sc.function_spec, sc.name)
    reports = gap_sweep(f, sc.ladder, sc.tol)
    ok = all(r.passed for r in reports)
    headline = {"final_gap": reports[-1].gap}
    if sc.final_gap is not None:
        conv = sweep_converged(reports, sc.final_gap)
        ok = ok and conv
        headline["converged"] = conv
    return ScenarioResult(sc.name, sc.kind, passed=ok, headline=headline,
                          csv_text=serialize_gap_reports(reports),
                          output_path=sc.output_path)


_PSI_REGISTRY = {
    "sqrt": lambda x: np.sqrt(np.asarray(x, dtype=float)),
    "linear": lambda x: np.asarray(x, dtype=float),
}


def _psi_from_params(params: dict, where: str):
    spec = params.get("psi", {"name": "sqrt"})
    name = spec.get("name")
    if name == "power":
        p = float(spec.get("exponent", 0.5))
        return lambda x: np.asarray(x, dtype=float) ** p
    if name in _PSI_REGISTRY:
        return _PSI_REGISTRY[name]
    raise SpecParseError(f"{where}.psi.name: unknown decay target {name!r}")


def _run_decay(sc: Scenario, seed: int) -> ScenarioResult:
    psi = _psi_from_params(sc.params, sc.name)
    n_max = int(sc.params.get("n_max", 256))
    spec = DecaySpec(psi, n_max)
    f = slow_decay_construct(spec)
    xs = sc.ladder or [1.0 / n for n in range(2, n_max + 1)]
    reports = verify_slow_decay(f, spec, xs, sc.tol)
    ok = all(r.passed for r in reports)
    return ScenarioResult(sc.name, sc.kind, passed=ok,
                          headline={"checked_shifts": len(reports)},
                          csv_text=serialize_gap_reports(reports),
                          output_path=sc.output_path)


def _run_osc_bound(sc: Scenario, seed: int) -> ScenarioResult:
    bump = SmoothBump(center=float(sc.params.get("center", 0.0)),
                      halfwidth=float(sc.params.get("halfwidth", 1.0)),
                      amplitude=float(sc.params.get("amplitude", 1.0)))
    reports = osc_lower_bound_check(bump, sc.ladder, sc.tol)
    ok = all(r.passed for r in reports)
    return ScenarioResult(sc.name, sc.kind, passed=ok,
                          headline={"osc": bump.osc(),
                                    "derivative_sup": bump.derivative_sup()},
                          csv_text=serialize_gap_reports(reports),
                          output_path=sc.output_path)


def _run_primitive_gap(sc: Scenario, seed: int) -> ScenarioResult:
    f = _parse_function(sc.function_spec, sc.name)
    norm = alexiewicz_norm(f)
    want_l1 = bool(sc.params.get("l1", True))
    l1_bound = None
    if want_l1:
        try:
            l1_bound = one_norm(f)
        except NotAbsolutelyIntegrable:
            l1_bound = None
    rows = []
    ok = True
    for x in sorted(sc.ladder, key=lambda t: (-abs(t), t)):
        g = primitive_gap_norm(f, x)
        bound = norm * abs(x)
        row_ok = g <= bound + sc.tol
        gl1 = bl1 = None
        if l1_bound is not None:
            try:
                gl1 = primitive_gap_l1(f, x)
                bl1 = l1_bound * abs(x)
                row_ok = row_ok and gl1 <= bl1 + sc.tol
            except NotAbsolutelyIntegrable:
                gl1 = bl1 = None
        ok = ok and row_ok
        rows.append(",".join([_f(x), _f(g), _f(bound), _f(gl1), _f(bl1), _b(row_ok)]))
    headline = {"norm": norm}
    shift = sc.params.get("witness_shift")
    if shift is not None:
        wit = hk_not_l1_witness(float(shift))
        headline.update({
            "witness_shift": float(shift),
            "witness_coeff_sin": wit.tail_coefficient_sin,
            "witness_coeff_cos": wit.tail_coefficient_cos,
            "witness_r_squared": wit.r_squared,
            "witness_diverges": wit.abs_integral_diverges,
            "witness_gap_norm": wit.gap_norm,
        })
        ok = ok and wit.abs_integral_diverges and wit.alexiewicz_finite
    csv = "x,gap_norm,bound_norm,gap_l1,bound_l1,passed\n" + "\n".join(rows) + "\n"
    return ScenarioResult(sc.name, sc.kind, passed=ok, headline=headline,
                          csv_text=csv, output_path=sc.output_path)


def _reciprocal_quadratic_ratio_variation(x: float, I) -> float:
    """Exact variation on I of g_x(y) = w(y+x)/w(y) for w(y) = 1/(y^2+1).

    g_x is monotone between its maximum at y- = (-x - sqrt(x^2+4))/2 and its
    minimum at y+ = (-x + sqrt(x^2+4))/2, so the variation is the sum of |dg|
    over {a, y-, y+, b} restricted to [a, b]."""
    a, b = I
    g = lambda y: (y * y + 1.0) / ((y + x) ** 2 + 1.0)
    r = math.sqrt(x * x + 4.0)
    ys = [a] + [y for y in ((-x - r) / 2.0, (-x + r) / 2.0) if a < y < b] + [b]
    return sum(abs(g(q) - g(p)) for p, q in zip(ys, ys[1:]))


def _run_weight_audit(sc: Scenario, seed: int) -> ScenarioResult:
    w = _parse_weight(sc.weight_spec, sc.name)
    I = tuple(sc.params.get("interval", (-10.0, 10.0)))
    eps = float(sc.params.get("eps", 0.1))
    xs = sc.ladder
    rc = ratio_conditions_check(w, xs, [I], eps)
    scc = sufficient_conditions_check(w, I)
    rows = [
        f"ratio_uniform_bound,{_f(rc.uniform_bound)},,{_b(rc.bound_stable)}",
        f"ratio_uniform_variation,{_f(rc.uniform_variation)},,{_b(rc.variation_stable)}",
        f"ratio_measure_final_fraction,{_f(rc.measure_estimates[-1].fraction)},"
        f"{_f(0.05)},{_b(rc.measure_converges)}",
        f"sufficient_m,{_f(scc.m_I)},,{_b(scc.m_I > 0)}",
        f"sufficient_M,{_f(scc.M_I)},,{_b(math.isfinite(scc.M_I))}",
        f"sufficient_bv_local,{_f(scc.bv_local)},,{_b(scc.bv_stable)}",
        f"sufficient_measure_final,{_f(scc.measure_continuity[-1].fraction)},"
        f"{_f(0.05)},{_b(scc.passed)}",
    ]
    ok = rc.passed and scc.passed
    for x in xs:
        vb = variation_bound_check(w, x, I)
        ok = ok and vb.passed
        rows.append(f"variation_bound@x={x:g},{_f(vb.lhs)},{_f(vb.rhs)},{_b(vb.passed)}")
    cf = sc.params.get("closed_form_check")
    if cf is not None:
        Icf = tuple(cf.get("interval", (-50.0, 50.0)))
        levels = int(cf.get("levels", 16))
        rel = float(cf.get("rel_tol", 0.01))
        for x in cf.get("xs", [0.5, 0.1]):
            g = weight_ratio(w, float(x))
            lhs = g.variation_on(Icf, levels)
            rhs = _reciprocal_quadratic_ratio_variation(float(x), Icf)
            row_ok = abs(lhs - rhs) <= rel * rhs
            ok = ok and row_ok
            rows.append(f"variation_closed_form@x={x:g},{_f(lhs)},{_f(rhs)},{_b(row_ok)}")
    csv = "item,lhs,rhs,passed\n" + "\n".join(rows) + "\n"
    headline = {"ratio_passed": rc.passed, "sufficient_passed": scc.passed}
    return ScenarioResult(sc.name, sc.kind, passed=ok, headline=headline,
                          csv_text=csv, output_path=sc.output_path)


def _run_weighted_sweep(sc: Scenario, seed: int) -> ScenarioResult:
    f = _parse_function(sc.function_spec, sc.name, allow_bare=True)
    w = _parse_weight(sc.weight_spec, sc.name)
    reports = weighted_gap_sweep(f, w, sc.ladder, sc.tol)
    ok = all(r.passed for r in reports)
    headline = {"final_gap": reports[-1].gap}
    if sc.final_gap is not None:
        conv = sweep_converged(reports, sc.final_gap)
        ok = ok and conv
        headline["converged"] = conv
    return ScenarioResult(sc.name, sc.kind, passed=ok, headline=headline,
                          csv_text=serialize_gap_reports(reports),
                          output_path=sc.output_path)


def _run_lemma_check(sc: Scenario, seed: int) -> ScenarioResult:
    family = sc.params.get("family", "damped_sine")
    ns = [int(n) for n in sc.params.get("ns", [1, 2, 4, 8])]
    M = float(sc.params.get("M", 8.0))
    expect = sc.params.get("expect", "witnessed")
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
    if family == "damped_sine":
        E = tuple(sc.params.get("interval", (0.0, 4.0 * math.pi)))
        seq = [(lambda y, n=n: 1.0 + np.sin(np.asarray(y, dtype=float)) / n) for n in ns]
        g_limit = one
    elif family == "spike":
        E = tuple(sc.params.get("interval", (0.0, 1.0)))
        seq = [(lambda y, n=n: n * ((np.asarray(y, dtype=float) >= 0)
                                    & (np.asarray(y, dtype=float) < 1.0 / n)).astype(float))
               for n in ns]
        g_limit = zero
    else:
        raise SpecParseError(f"{sc.name}.family: unknown family {family!r}")
    try:
        rep = uniform_bound_lemma_check(seq, E, g_limit, M)
    except HypothesisViolated as exc:
        ok = expect == "violated"
        csv = "item,value,bound,passed\n" + f"hypothesis_violated,,,{_b(ok)}\n"
        return ScenarioResult(sc.name, sc.kind, passed=ok,
                              headline={"hypothesis_violated": True, "detail": str(exc)},
                              csv_text=csv, output_path=sc.output_path)
    rows = [f"sup_abs_n={n},{_f(s)},{_f(rep.bound)},{_b(s <= rep.bound + sc.tol)}"
            for n, s in zip(ns, rep.sup_values)]
    ok = rep.witnessed and expect == "witnessed"
    csv = "item,value,bound,passed\n" + "\n".join(rows) + "\n"
    return ScenarioResult(sc.name, sc.kind, passed=ok,
                          headline={"bound": rep.bound, "witnessed": rep.witnessed},
                          csv_text=csv, output_path=sc.output_path)


def _run_poisson_disc(sc: Scenario, seed: int) -> ScenarioResult:
    f = PeriodicIntegrand(_parse_function(sc.function_spec, sc.name))
    rs = sc.ladder
    reports = disc_boundary_convergence(f, rs)
    gaps = [r.gap for r in reports]
    ok = all(gaps[i + 1] <= gaps[i] + sc.tol for i in range(len(gaps) - 1))
    headline = {"final_gap": gaps[-1]}
    if sc.final_gap is not None:
        conv = gaps[-1] < sc.final_gap
        ok = ok and conv
        headline["converged"] = conv

    one = PeriodicIntegrand(registry.get_function("one_period"))
    mass_err = 0.0
    unit_err = 0.0
    for r in (0.0, 0.5, 0.9, 0.99):
        phis = -math.pi + (np.arange(32768) + 0.5) * (2.0 * math.pi / 32768)
        mass = float(np.sum(disc_kernel(r, phis)) * (2.0 * math.pi / 32768))
        mass_err = max(mass_err, abs(mass - 1.0))
        unit_err = max(unit_err, abs(poisson_disc(one, r, 0.3) - 1.0))
    headline["kernel_mass_max_err"] = mass_err
    headline["unit_extension_max_err"] = unit_err
    ok = ok and mass_err <= 1e-10 and unit_err <= 1e-10
    if sc.params.get("cos_check"):
        cosf = PeriodicIntegrand(registry.get_function("cosine"))
        cos_err = max(abs(poisson_disc(cosf, r, 0.0) - r) for r in (0.0, 0.5, 0.9, 0.99))
        headline["cos_extension_max_err"] = cos_err
        ok = ok and cos_err <= 1e-8
    return ScenarioResult(sc.name, sc.kind, passed=ok, headline=headline,
                          csv_text=serialize_poisson_reports(reports),
                          output_path=sc.output_path)


def _run_poisson_halfplane(sc: Scenario, seed: int) -> ScenarioResult:
    f = _parse_function(sc.function_spec, sc.name, allow_bare=True)
    w = _parse_weight(sc.weight_spec, sc.name)
    I = tuple(sc.params.get("interval", (-8.0, 8.0)))
    reports = halfplane_weighted_convergence(f, w, sc.ladder, I, tol=sc.tol)
    gaps = [r.gap for r in reports]
    ok = all(r.passed for r in reports)
    ok = ok and all(gaps[i + 1] <= gaps[i] + sc.tol for i in range(len(gaps) - 1))
    headline = {"final_gap": gaps[-1]}
    if sc.final_gap is not None:
        conv = gaps[-1] < sc.final_gap
        ok = ok and conv
        headline["converged"] = conv
    if sc.params.get("unit_check", True):
        onef = lambda y: np.ones_like(np.asarray(y, dtype=float))
        unit_err = max(abs(poisson_halfplane(onef, w, HalfPlanePoint(0.3, y)) - 1.0)
                       for y in (0.1, 1.0))
        headline["unit_extension_max_err"] = unit_err
        ok = ok and unit_err <= 1e-6
    return ScenarioResult(sc.name, sc.kind, passed=ok, headline=headline,
                          csv_text=serialize_poisson_reports(reports),
                          output_path=sc.output_path)


_EXECUTORS = {
    "norm": _run_norm,
    "gap_sweep": _run_gap_sweep,
    "decay": _run_decay,
    "osc_bound": _run_osc_bound,
    "primitive_gap": _run_primitive_gap,
    "weight_audit": _run_weight_audit,
    "weighted_sweep": _run_weighted_sweep,
    "lemma_check": _run_lemma_check,
    "poisson_disc": _run_poisson_disc,
    "poisson_halfplane": _run_poisson_halfplane,
}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    exit_code: int
    summary: dict


def run(manifest: RunManifest, out_dir=None, jobs: int = 1,
        tol_override: Optional[float] = None) -> RunReport:
    """Execute every scenario, write one CSV each plus summary.json.

    Scenario-level domain errors are recorded (status "error") rather than
    aborting the run; the exit code is 0 only when every scenario ran and
    passed.  An empty manifest succeeds without writing anything.
    """
    out = Path(out_dir) if out_dir else Path(".")
    if not manifest.scenarios:
        return RunReport(0, {"all_passed": True, "scenarios": []})
    out.mkdir(parents=True, exist_ok=True)

    def execute(sc: Scenario) -> ScenarioResult:
        if tol_override is not None:
            sc = replace(sc, tol=tol_override)
        try:
            return _EXECUTORS[sc.kind](sc, manifest.seed)
        except SpecParseError:
            raise
        except AlexnormError as exc:
            return ScenarioResult(sc.name, sc.kind, status="error",
                                  error=f"{type(exc).__name__}: {exc}",
                                  output_path=sc.output_path)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(execute, manifest.scenarios))
    else:
        results = [execute(sc) for sc in manifest.scenarios]

    entries = []
    all_ok = True
    for res in results:
        if res.status == "ok":
            (out / res.output_path).parent.mkdir(parents=True, exist_ok=True)
            (out / res.output_path).write_text(res.csv_text)
            all_ok = all_ok and bool(res.passed)
        else:
            all_ok = False
        entries.append({
            "name": res.name,
            "kind": res.kind,
            "status": res.status,
            "passed": res.passed,
            "headline": res.headline,
            "output": res.output_path if res.status == "ok" else None,
            "error": res.error or None,
        })
    summary = {
        "all_passed": all_ok,
        "seed": manifest.seed,
        "versions": manifest.versions,
        "manifest_timestamp": manifest.timestamp,
        "scenarios": entries,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, default=_json_scalar) + "\n")
    return RunReport(0 if all_ok else 1, summary)


def _json_scalar(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    raise TypeError(f"not JSON serializable: {type(v).__name__}")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alexnorm",
        description="Norm, translation-gap and Poisson boundary-value harnesses "
                    "for integrable functions represented by their primitives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario manifest")
    p_run.add_argument("manifest", help="path to the manifest JSON")
    p_run.add_argument("--out", default=None, help="output directory "
                       "(default: $ALEXNORM_OUT or the current directory)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel scenarios")
    p_run.add_argument("--tol", type=float, default=None,
                       help="override every scenario tolerance")

    sub.add_parser("list-builtins", help="print the builtin registry")

    p_desc = sub.add_parser("describe", help="describe one builtin")
    p_desc.add_argument("name")

    args = parser.parse_args(argv)

    if args.command == "list-builtins":
        for name in registry.registry_list():
            print(name)
        return 0

    if args.command == "describe":
        try:
            info = registry.describe(args.name)
        except KeyError:
            print(f"unknown builtin: {args.name}", file=sys.stderr)
            return 2
        for k, v in info.items():
            print(f"{k}: {v}")
        return 0

    out_dir = args.out or os.environ.get("ALEXNORM_OUT") or "."
    try:
        manifest = load_manifest(args.manifest)
        report = run(manifest, out_dir=out_dir, jobs=args.jobs,
                     tol_override=args.tol)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for entry in report.summary.get("scenarios", []):
        status = entry["status"]
        mark = "PASS" if entry["passed"] else ("ERROR" if status == "error" else "FAIL")
        print(f"{mark:5s} {entry['name']}")
        if entry.get("error"):
            print(f"      {entry['error']}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
