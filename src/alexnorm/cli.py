"""Batch front end: manifest ingestion, scenario execution, CSV/JSON emission.

A manifest is one JSON file listing scenarios; each scenario names a harness
kind, its function/weight specs (builtin names or inline tables), a parameter
ladder and thresholds, and the CSV file it writes.  Every field that selects
code is resolved once, while parsing, so a bad manifest fails before anything
runs; every CSV format is defined here.  Two runs of the same manifest produce
byte-identical output: floats are serialized with 17 significant digits and
the only randomness (isometry pair draws) is seeded from the manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path, PurePath
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import registry
from .errors import (AlexnormError, HypothesisViolated, NotAbsolutelyIntegrable,
                     SpecFieldError, SpecParseError)
from .norms import (DecaySpec, GapReport, SmoothBump, alexiewicz_norm,
                    gap_sweep, hk_not_l1_witness, one_norm, osc_lower_bound_check,
                    primitive_gap_l1, primitive_gap_norm, slow_decay_construct,
                    sweep_converged, translate, verify_slow_decay)
from .poisson import (PeriodicIntegrand, HalfPlanePoint, disc_boundary_convergence,
                      disc_kernel, halfplane_weighted_convergence, poisson_disc,
                      poisson_halfplane)
from .weights import (Weight, ratio_conditions_check, sufficient_conditions_check,
                      uniform_bound_lemma_check, variation_bound_check,
                      weight_ratio, weighted_gap_sweep)

@dataclass
class Scenario:
    name: str
    kind: str
    function: Optional[Callable] = None   # Integrand, or evaluator of constant data
    weight: Optional[Weight] = None
    ladder: list = field(default_factory=list)
    tol: float = 1e-9
    final_gap: Optional[float] = None
    output_path: str = ""
    params: dict = field(default_factory=dict)   # the kind's fields, resolved


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


# ---------------------------------------------------------------------------
# CSV format: 17 significant digits, "true"/"false" verdicts
# ---------------------------------------------------------------------------


def _f(v) -> str:
    if v is None or v == "":
        return ""
    return format(float(v), ".17g")


def _b(v: bool) -> str:
    return "true" if v else "false"


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def serialize_gap_reports(reports: Sequence[GapReport]) -> str:
    """Gap table, rows ordered by |x| descending."""
    rows = sorted(reports, key=lambda r: (-abs(r.x), r.x))
    return _csv("x,gap,bound_lower,bound_upper,passed",
                (",".join([_f(r.x), _f(r.gap), _f(r.bound_lower), _f(r.bound_upper),
                           _b(r.passed)]) for r in rows))


def serialize_poisson_reports(reports: Sequence[GapReport]) -> str:
    """Boundary-convergence table, rows in ladder order."""
    return _csv("param,gap,majorant,passed",
                (",".join([_f(r.x), _f(r.gap), _f(r.bound_upper), _b(r.passed)])
                 for r in reports))


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _parse_spec(spec, where: str, build):
    """build(spec) for a function or weight spec; errors name the field."""
    if not isinstance(spec, dict):
        raise SpecParseError(f"{where}: expected an object")
    try:
        return build(spec)
    except SpecFieldError as exc:
        raise SpecParseError(f"{where}.{exc.field}: {exc.reason}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"{where}: {exc}") from exc


def _bare_constant(spec):
    c = spec.get("value", 1.0)
    if not _num(c):
        raise SpecFieldError("value", "must be a finite number")
    return lambda y: np.full_like(np.asarray(y, dtype=float), float(c))


_PSI_REGISTRY = {
    "sqrt": lambda x: np.sqrt(np.asarray(x, dtype=float)),
    "linear": lambda x: np.asarray(x, dtype=float),
}


def _psi_from_spec(spec):
    if spec.get("name") == "power":
        p = float(spec.get("exponent", 0.5))
        return lambda x: np.asarray(x, dtype=float) ** p
    if spec.get("name") not in _PSI_REGISTRY:
        raise SpecFieldError("name", f"unknown builtin {spec.get('name')!r}")
    return _PSI_REGISTRY[spec["name"]]


# lemma_check families: name -> (default interval, n-th member, limit in measure)
_LEMMA_FAMILIES = {
    # 1 + sin(y)/n: bounded variation, converging to 1
    "damped_sine": ((0.0, 4.0 * math.pi),
                    lambda n: lambda y: 1.0 + np.sin(np.asarray(y, dtype=float)) / n,
                    lambda y: np.ones_like(np.asarray(y, dtype=float))),
    # n on [0, 1/n): converges to 0 in measure, but its variation 2n outgrows
    # any budget
    "spike": ((0.0, 1.0),
              lambda n: lambda y: n * ((np.asarray(y, dtype=float) >= 0)
                                       & (np.asarray(y, dtype=float) < 1.0 / n)
                                       ).astype(float),
              lambda y: np.zeros_like(np.asarray(y, dtype=float))),
}


def _is(test, need: str):
    """Check of a manifest field: the value as given when test(value) holds,
    else a SpecParseError saying it must be need."""
    def check(value, where):
        try:
            ok = test(value)
        except (TypeError, ValueError, LookupError, OverflowError):
            ok = False
        if not ok:
            raise SpecParseError(f"{where}: must be {need}, got {value!r}")
        return value
    return check


def _num(v) -> bool:
    """A finite JSON number (true and false are not numbers)."""
    return type(v) in (int, float) and math.isfinite(v)


def _output_file(v) -> bool:
    """A file path inside the output directory, other than summary.json."""
    p = PurePath(v)
    return (isinstance(v, str) and bool(p.parts) and not p.is_absolute()
            and ".." not in p.parts and p != PurePath("summary.json"))


def _fields(spec, table: dict, where: str) -> dict:
    """The fields of table read from spec, each checked; an absent or null
    field takes its default, and a key table does not list is refused."""
    if not isinstance(spec, dict):
        raise SpecParseError(f"{where}: expected an object")
    for key in spec:
        if key not in table:
            raise SpecParseError(f"{where}.{key}: unknown key")
    return {name: (default if spec.get(name) is None
                   else check(spec[name], f"{where}.{name}"))
            for name, (default, check) in table.items()}


_REAL = _is(_num, "a finite number")
_POSITIVE = _is(lambda v: _num(v) and v > 0, "a positive finite number")
# numpy's default_rng takes a nonnegative integer seed
_SEED = _is(lambda v: type(v) is int and v >= 0, "a nonnegative integer")
_THRESHOLDS = {"tol": (1e-9, _POSITIVE), "final_gap": (None, _REAL)}
_TEXT = lambda v, where: str(v)
_MANIFEST = {"scenarios": ([], _is(lambda v: isinstance(v, list), "a list")),
             "seed": (0, _SEED), "versions": ("", _TEXT), "timestamp": ("", _TEXT)}
# keys every scenario may carry besides its kind's fields
_SCENARIO_KEYS = ("name", "kind", "function_spec", "weight_spec", "ladder", "thresholds",
                  "output_path")
_OUTPUT_PATH = _is(_output_file, "a relative file path without '..', other than summary.json")
_LADDER = _is(lambda v: isinstance(v, list) and all(map(_num, v)), "a list of finite numbers")
# what a kind's engine takes as a ladder entry, checked before anything runs
_LADDER_ENTRIES = {
    "poisson_disc": _is(lambda v: all(0.0 <= r < 1.0 for r in v), "radii in [0, 1)"),
    "poisson_halfplane": _is(lambda v: all(y > 0.0 for y in v), "positive heights")}
_FLAG = _is(lambda v: type(v) is bool, "true or false")
_INTERVAL = _is(lambda v: len(v) == 2 and _num(v[0]) and _num(v[1]) and v[0] < v[1],
                "[a, b] with finite a < b")
_CLOSED_FORM_FIELDS = {
    "xs": ([0.5, 0.1], _is(lambda v: v and all(map(_num, v)), "a nonempty list of numbers")),
    "interval": ((-50.0, 50.0), _INTERVAL),
    # 2^levels + 1 samples per variation
    "levels": (16, _is(lambda v: type(v) is int and 1 <= v <= 20, "an integer in [1, 20]")),
    "rel_tol": (0.01, _POSITIVE)}

# kind -> (what it needs, {field: (default, check)}).  "function" needs an
# integrand, "constant" an integrand or constant boundary data, "weight" a
# weight spec and "ladder" a nonempty ladder.
_KINDS = {
    "norm": ({"function"}, {
        "expected": (None, _REAL), "check_isometry": (False, _FLAG),
        "pairs": (100, _is(lambda v: type(v) is int and v >= 1, "a positive integer"))}),
    "gap_sweep": ({"function", "ladder"}, {}),
    "decay": (set(), {
        "psi": (_PSI_REGISTRY["sqrt"],
                lambda v, where: _parse_spec(v, where, _psi_from_spec)),
        "n_max": (256, _is(lambda v: type(v) is int and v >= 2, "an integer >= 2"))}),
    "osc_bound": ({"ladder"}, {"center": (0.0, _REAL), "halfwidth": (1.0, _POSITIVE),
                               "amplitude": (1.0, _REAL)}),
    "primitive_gap": ({"function", "ladder"}, {
        "l1": (True, _FLAG),
        "witness_shift": (None, _is(lambda v: _num(v) and v != 0, "a nonzero number"))}),
    "weight_audit": ({"weight", "ladder"}, {
        "interval": ((-10.0, 10.0), _INTERVAL), "eps": (0.1, _POSITIVE),
        "closed_form_check": (None, lambda v, where: _fields(v, _CLOSED_FORM_FIELDS, where))}),
    "weighted_sweep": ({"constant", "weight", "ladder"}, {}),
    "lemma_check": (set(), {
        "family": ("damped_sine", _is(lambda v: v in tuple(_LEMMA_FAMILIES),
                                      " or ".join(_LEMMA_FAMILIES))),
        "ns": ([1, 2, 4, 8], _is(lambda v: v and all(type(n) is int and n > 0 for n in v),
                                 "a nonempty list of positive integers")),
        "M": (8.0, _REAL),
        "expect": ("witnessed", _is(lambda v: v in ("witnessed", "violated"),
                                    "witnessed or violated")),
        "interval": (None, _INTERVAL)}),   # None: the family's own
    "poisson_disc": ({"function", "ladder"}, {"cos_check": (False, _FLAG)}),
    "poisson_halfplane": ({"constant", "weight", "ladder"}, {
        "interval": ((-8.0, 8.0), _INTERVAL), "unit_check": (True, _FLAG)}),
}


def parse_manifest(data: dict) -> RunManifest:
    """Validate a manifest dict; SpecParseError messages name the bad field."""
    top = _fields(data, _MANIFEST, "manifest")
    scenarios = []
    written = {}   # output path -> the scenario that writes it
    for i, sc in enumerate(top["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise SpecParseError(f"{where}: expected an object")
        kind = sc.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise SpecParseError(f"{where}.kind: unknown kind {kind!r}")
        needs, fields = _KINDS[kind]
        name = sc.get("name") or f"scenario_{i}"
        thresholds = _fields(sc.get("thresholds") or {}, _THRESHOLDS, f"{where}.thresholds")
        ladder = [float(t) for t in _LADDER(sc.get("ladder", []), f"{where}.ladder")]
        if "ladder" in needs and not ladder:
            raise SpecParseError(f"{where}.ladder: must be nonempty for kind {kind!r}")
        if kind in _LADDER_ENTRIES:
            _LADDER_ENTRIES[kind](ladder, f"{where}.ladder")
        # resolve every field now, so a bad one fails before anything runs
        function = weight = None
        fspec = sc.get("function_spec")
        if fspec is not None:
            # constant boundary data is not integrable by itself
            bare = isinstance(fspec, dict) and fspec.get("kind") == "constant"
            if bare and "constant" not in needs:
                raise SpecParseError(f"{where}.function_spec.kind: constant "
                                     f"boundary data needs a weighted scenario")
            function = _parse_spec(fspec, f"{where}.function_spec",
                                   _bare_constant if bare else registry.function_from_spec)
        elif needs & {"function", "constant"}:
            raise SpecParseError(f"{where}.function_spec: required for kind {kind!r}")
        if sc.get("weight_spec") is not None:
            weight = _parse_spec(sc["weight_spec"], f"{where}.weight_spec",
                                 registry.weight_from_spec)
        elif "weight" in needs:
            raise SpecParseError(f"{where}.weight_spec: required for kind {kind!r}")
        params = _fields({k: v for k, v in sc.items() if k not in _SCENARIO_KEYS},
                         fields, where)
        if (params.get("closed_form_check") is not None
                and weight is not registry.get_weight("reciprocal_quadratic")):
            # the closed form checked against is that weight's ratio variation
            raise SpecParseError(f"{where}.closed_form_check: only for the "
                                 f"reciprocal_quadratic builtin weight")
        output_path = _OUTPUT_PATH(sc.get("output_path", f"{name}.csv"),
                                   f"{where}.output_path")
        other = written.setdefault(PurePath(output_path), where)
        if other != where:
            raise SpecParseError(f"{where}.output_path: {output_path!r} is also "
                                 f"written by {other}")
        scenarios.append(Scenario(
            name=name, kind=kind, function=function, weight=weight, ladder=ladder,
            tol=thresholds["tol"], final_gap=thresholds["final_gap"],
            output_path=output_path, params=params))
    return RunManifest(scenarios=scenarios, seed=top["seed"], versions=top["versions"],
                       timestamp=top["timestamp"])


def load_manifest(path) -> RunManifest:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"manifest: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(f"manifest: cannot read {path} ({exc})") from exc
    return parse_manifest(data)


# ---------------------------------------------------------------------------
# Scenario executors: (scenario, seed) -> (passed, headline, csv_text)
# ---------------------------------------------------------------------------


def _gap_headline(sc: Scenario, final_gap: float, converged) -> dict:
    """{"final_gap": final_gap}, plus "converged" = converged(sc.final_gap)
    when the manifest sets that threshold (summary.json keeps the key order)."""
    headline = {"final_gap": final_gap}
    if sc.final_gap is not None:
        headline["converged"] = converged(sc.final_gap)
    return headline


def _run_norm(sc: Scenario, seed: int):
    f = sc.function
    val = alexiewicz_norm(f)
    expected = sc.params["expected"]
    ok = expected is None or abs(val - expected) <= sc.tol
    rows = [f"{f.label},{_f(val)},{_f(expected)},{_b(ok)}"]
    headline = {"norm": val}
    if sc.params["check_isometry"]:
        pairs = sc.params["pairs"]
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
    return ok, headline, _csv("label,norm,expected,passed", rows)


def _sweep_result(sc: Scenario, reports):
    headline = _gap_headline(sc, reports[-1].gap, lambda g: sweep_converged(reports, g))
    ok = all(r.passed for r in reports) and headline.get("converged", True)
    return ok, headline, serialize_gap_reports(reports)


def _run_gap_sweep(sc: Scenario, seed: int):
    return _sweep_result(sc, gap_sweep(sc.function, sc.ladder, sc.tol))


def _run_weighted_sweep(sc: Scenario, seed: int):
    return _sweep_result(sc, weighted_gap_sweep(sc.function, sc.weight, sc.ladder, sc.tol))


def _run_decay(sc: Scenario, seed: int):
    n_max = sc.params["n_max"]
    spec = DecaySpec(sc.params["psi"], n_max)
    f = slow_decay_construct(spec)
    xs = sc.ladder or [1.0 / n for n in range(2, n_max + 1)]
    reports = verify_slow_decay(f, spec, xs, sc.tol)
    return (all(r.passed for r in reports), {"checked_shifts": len(reports)},
            serialize_gap_reports(reports))


def _run_osc_bound(sc: Scenario, seed: int):
    bump = SmoothBump(center=sc.params["center"], halfwidth=sc.params["halfwidth"],
                      amplitude=sc.params["amplitude"])
    reports = osc_lower_bound_check(bump, sc.ladder, sc.tol)
    return (all(r.passed for r in reports),
            {"osc": bump.osc(), "derivative_sup": bump.derivative_sup()},
            serialize_gap_reports(reports))


def _run_primitive_gap(sc: Scenario, seed: int):
    f = sc.function
    norm = alexiewicz_norm(f)
    l1_bound = None
    if sc.params["l1"]:
        try:
            l1_bound = one_norm(f)
        except NotAbsolutelyIntegrable:
            pass
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
    shift = sc.params["witness_shift"]
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
    return ok, headline, _csv("x,gap_norm,bound_norm,gap_l1,bound_l1,passed", rows)


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


def _run_weight_audit(sc: Scenario, seed: int):
    w = sc.weight
    I = sc.params["interval"]
    xs = sc.ladder
    rc = ratio_conditions_check(w, xs, I, sc.params["eps"])
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
    cf = sc.params["closed_form_check"]
    if cf is not None:
        Icf = cf["interval"]
        for x in cf["xs"]:
            lhs = weight_ratio(w, x).variation_on(Icf, cf["levels"])
            rhs = _reciprocal_quadratic_ratio_variation(x, Icf)
            row_ok = abs(lhs - rhs) <= cf["rel_tol"] * rhs
            ok = ok and row_ok
            rows.append(f"variation_closed_form@x={x:g},{_f(lhs)},{_f(rhs)},{_b(row_ok)}")
    headline = {"ratio_passed": rc.passed, "sufficient_passed": scc.passed}
    return ok, headline, _csv("item,lhs,rhs,passed", rows)


def _run_lemma_check(sc: Scenario, seed: int):
    ns, M, expect = sc.params["ns"], sc.params["M"], sc.params["expect"]
    E, member, g_limit = _LEMMA_FAMILIES[sc.params["family"]]
    E = sc.params["interval"] or E
    seq = [member(n) for n in ns]
    try:
        rep = uniform_bound_lemma_check(seq, E, g_limit, M)
    except HypothesisViolated as exc:
        ok = expect == "violated"
        return (ok, {"hypothesis_violated": True, "detail": str(exc)},
                _csv("item,value,bound,passed", [f"hypothesis_violated,,,{_b(ok)}"]))
    rows = [f"sup_abs_n={n},{_f(s)},{_f(rep.bound)},{_b(s <= rep.bound + sc.tol)}"
            for n, s in zip(ns, rep.sup_values)]
    ok = rep.witnessed and expect == "witnessed"
    return (ok, {"bound": rep.bound, "witnessed": rep.witnessed},
            _csv("item,value,bound,passed", rows))


def _ladder_result(sc: Scenario, reports):
    """(ok, headline): gaps nonincreasing within tol, the last below final_gap."""
    gaps = [r.gap for r in reports]
    ok = all(gaps[i + 1] <= gaps[i] + sc.tol for i in range(len(gaps) - 1))
    headline = _gap_headline(sc, gaps[-1], lambda g: gaps[-1] < g)
    return ok and headline.get("converged", True), headline


def _run_poisson_disc(sc: Scenario, seed: int):
    reports = disc_boundary_convergence(PeriodicIntegrand(sc.function), sc.ladder)
    ok, headline = _ladder_result(sc, reports)

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
    if sc.params["cos_check"]:
        cosf = PeriodicIntegrand(registry.get_function("cosine"))
        cos_err = max(abs(poisson_disc(cosf, r, 0.0) - r) for r in (0.0, 0.5, 0.9, 0.99))
        headline["cos_extension_max_err"] = cos_err
        ok = ok and cos_err <= 1e-8
    return ok, headline, serialize_poisson_reports(reports)


def _run_poisson_halfplane(sc: Scenario, seed: int):
    w = sc.weight
    reports = halfplane_weighted_convergence(sc.function, w, sc.ladder,
                                             sc.params["interval"], tol=sc.tol)
    ok, headline = _ladder_result(sc, reports)
    ok = all(r.passed for r in reports) and ok
    if sc.params["unit_check"]:
        onef = lambda y: np.ones_like(np.asarray(y, dtype=float))
        unit_err = max(abs(poisson_halfplane(onef, w, HalfPlanePoint(0.3, y)) - 1.0)
                       for y in (0.1, 1.0))
        headline["unit_extension_max_err"] = unit_err
        ok = ok and unit_err <= 1e-6
    return ok, headline, serialize_poisson_reports(reports)


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
            passed, headline, csv_text = _EXECUTORS[sc.kind](sc, manifest.seed)
        except AlexnormError as exc:
            return ScenarioResult(sc.name, sc.kind, status="error",
                                  error=f"{type(exc).__name__}: {exc}",
                                  output_path=sc.output_path)
        return ScenarioResult(sc.name, sc.kind, passed=passed, headline=headline,
                              csv_text=csv_text, output_path=sc.output_path)

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
        json.dumps(_json_value(summary), indent=2, allow_nan=False) + "\n")
    return RunReport(0 if all_ok else 1, summary)


def _json_value(v):
    """v with numpy scalars as Python ones and every non-finite float as
    None, so summary.json is strict JSON (null, never NaN or Infinity)."""
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    return v


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
