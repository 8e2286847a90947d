"""Canonical functions and weights.

Builtins are singletons so that per-object caches (closed-form extrema,
adaptive builds) are shared across a run.  Table-backed entries are exact;
closed forms carry their scan windows and, where useful for downstream
consumers, exact pointwise derivatives.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from .errors import SpecFieldError
from .norms import SmoothBump, sinc_integrand
from .realfn import (ClosedFormPrimitive, Integrand,
                     PiecewiseLinearPrimitive)
from .weights import Weight

SQRT_PI = math.sqrt(math.pi)

_FUNCTIONS: Dict[str, Integrand] = {}
_WEIGHTS: Dict[str, Weight] = {}


def indicator(a: float = 0.0, b: float = 1.0, label: str = "") -> Integrand:
    """chi_[a, b] as an integrand with its exact ramp primitive."""
    if not b > a:
        raise ValueError("need a < b")
    F = PiecewiseLinearPrimitive([a, b], [0.0, b - a], label or f"indicator_{a}_{b}")

    def chi(y):
        y = np.asarray(y, dtype=float)
        return ((y >= a) & (y <= b)).astype(float)

    return Integrand(F, chi, label or f"indicator_{a}_{b}")


def _build_indicator_01() -> Integrand:
    return indicator(0.0, 1.0, label="indicator_01")


def _build_step_signal() -> Integrand:
    # chi_[0,1] - chi_[1,2]; the primitive is a unit tent
    F = PiecewiseLinearPrimitive([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], "step_signal")
    return Integrand(F, F.pointwise_derived(), "step_signal")


def _build_ramp() -> Integrand:
    from .realfn import build_primitive_from_pointwise

    def f(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= 0.0) & (y <= 1.0), y, 0.0)

    F = build_primitive_from_pointwise(f, (0.0, 1.0), 1e-13, label="ramp")
    return Integrand(F, f, "ramp")


def _build_gaussian() -> Integrand:
    def F_eval(y):
        from scipy.special import erf
        return 0.5 * SQRT_PI * (1.0 + erf(np.asarray(y, dtype=float)))

    def f(y):
        y = np.asarray(y, dtype=float)
        return np.exp(-y * y)

    F = ClosedFormPrimitive(F_eval, 0.0, SQRT_PI, scan=(-9.0, 9.0), label="gaussian")
    return Integrand(F, f, "gaussian")


def _build_bump() -> Integrand:
    return SmoothBump().to_integrand()


def _build_cosine() -> Integrand:
    # one period of cos, supported on [-pi, pi]; the primitive is sin there
    def F_eval(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= math.pi, np.sin(y), 0.0)

    def f(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= math.pi, np.cos(y), 0.0)

    F = ClosedFormPrimitive(F_eval, 0.0, 0.0, scan=(-math.pi - 0.5, math.pi + 0.5),
                            support=(-math.pi, math.pi), label="cosine")
    return Integrand(F, f, "cosine")


def _build_one_period() -> Integrand:
    # f = 1 on [-pi, pi]: periodic boundary data for the constant function
    F = PiecewiseLinearPrimitive([-math.pi, math.pi], [0.0, 2.0 * math.pi], "one_period")
    return Integrand(F, F.pointwise_derived(), "one_period")


_FUNCTION_BUILDERS = {
    "indicator_01": _build_indicator_01,
    "step_signal": _build_step_signal,
    "ramp": _build_ramp,
    "sinc_primitive": sinc_integrand,
    "gaussian": _build_gaussian,
    "bump": _build_bump,
    "cosine": _build_cosine,
    "one_period": _build_one_period,
}


def _build_reciprocal_quadratic() -> Weight:
    def w(y):
        y = np.asarray(y, dtype=float)
        return 1.0 / (y * y + 1.0)

    def dw(y):
        y = np.asarray(y, dtype=float)
        return -2.0 * y / (y * y + 1.0) ** 2

    # Phi_y(x-t)/w(t) -> y/pi at both infinities for this weight
    return Weight(w, derivative=dw,
                  kernel_ratio_limit=lambda y: (y / math.pi, y / math.pi),
                  label="reciprocal_quadratic")


def _build_exponential() -> Weight:
    def w(y):
        return np.exp(np.asarray(y, dtype=float))

    return Weight(w, derivative=w, label="exponential")


def step_weight(a: float = 1.0, b: float = 2.0, threshold: float = 0.0) -> Weight:
    """w = a below the threshold, b from the threshold on (right continuous)."""
    return Weight.piecewise_constant([threshold], [a, b], label="step_weight")


_WEIGHT_BUILDERS = {
    "reciprocal_quadratic": _build_reciprocal_quadratic,
    "exponential": _build_exponential,
    "step_weight": step_weight,
    "constant": Weight.constant,
}


def get_function(name: str) -> Integrand:
    if name not in _FUNCTION_BUILDERS:
        raise KeyError(name)
    if name not in _FUNCTIONS:
        _FUNCTIONS[name] = _FUNCTION_BUILDERS[name]()
    return _FUNCTIONS[name]


def get_weight(name: str, **params) -> Weight:
    if name not in _WEIGHT_BUILDERS:
        raise KeyError(name)
    if params:
        return _WEIGHT_BUILDERS[name](**params)
    if name not in _WEIGHTS:
        _WEIGHTS[name] = _WEIGHT_BUILDERS[name]()
    return _WEIGHTS[name]


def registry_list() -> list:
    """Stable, sorted list of every builtin function and weight name."""
    return sorted(list(_FUNCTION_BUILDERS) + list(_WEIGHT_BUILDERS))


_DESCRIPTIONS = {
    "indicator_01": "chi_[0,1]; exact table primitive (0, y, 1)",
    "step_signal": "chi_[0,1] - chi_[1,2]; unit tent primitive",
    "ramp": "f(y) = y on [0,1]; quadratic primitive, exact panels",
    "sinc_primitive": "F(y) = sin(y)/y with f = F'; integrable but not absolutely",
    "gaussian": "f(y) = exp(-y^2); primitive from the error function",
    "bump": "smooth compactly supported bump exp(-1/(1-y^2)) on [-1,1]",
    "cosine": "one period of cos on [-pi, pi]; primitive sin",
    "one_period": "f = 1 on [-pi, pi]; constant boundary data for the disc",
    "reciprocal_quadratic": "w(y) = 1/(y^2+1); admissible weight",
    "exponential": "w(y) = e^y; constant ratio functions",
    "step_weight": "w = a below a threshold, b above; params a, b, threshold",
    "constant": "w = c everywhere; param c",
}


def describe(name: str) -> dict:
    if name in _FUNCTION_BUILDERS:
        kind = "function"
    elif name in _WEIGHT_BUILDERS:
        kind = "weight"
    else:
        raise KeyError(name)
    return {"name": name, "kind": kind, "summary": _DESCRIPTIONS[name]}


# ---------------------------------------------------------------------------
# Spec-file ingestion (shared JSON formats)
# ---------------------------------------------------------------------------


def _field(spec: dict, key: str):
    """spec[key]; an absent field raises SpecFieldError naming it."""
    if key not in spec:
        raise SpecFieldError(key, f"required for kind {spec.get('kind')!r}")
    return spec[key]


def _builtin(spec: dict, builders: dict) -> str:
    """spec["name"], which must be a key of builders."""
    if _field(spec, "name") not in builders:
        raise SpecFieldError("name", f"unknown builtin {spec['name']!r}")
    return spec["name"]


def function_from_spec(spec: dict) -> Integrand:
    """{"kind": "builtin"|"closed_form"|"indicator"|"table", ...} -> Integrand.

    A missing field, an unknown kind or an unknown builtin raises
    SpecFieldError naming the field."""
    kind = spec.get("kind")
    if kind in ("builtin", "closed_form"):
        return get_function(_builtin(spec, _FUNCTION_BUILDERS))
    if kind == "indicator":
        return indicator(float(spec.get("a", 0.0)), float(spec.get("b", 1.0)))
    if kind == "table":
        F = PiecewiseLinearPrimitive(_field(spec, "breakpoints"), _field(spec, "values"),
                                     spec.get("label", "table"))
        return Integrand(F, F.pointwise_derived(), spec.get("label", "table"))
    raise SpecFieldError("kind", f"unknown function kind {kind!r}")


def weight_from_spec(spec: dict) -> Weight:
    """{"kind": "builtin"|"closed_form"|"table", "name": ..., params...} -> Weight,
    with errors as for ``function_from_spec``."""
    kind = spec.get("kind")
    if kind in ("builtin", "closed_form"):
        params = {k: v for k, v in spec.items() if k not in ("kind", "name")}
        return get_weight(_builtin(spec, _WEIGHT_BUILDERS), **params)
    if kind == "table":
        return Weight.piecewise_constant(_field(spec, "breakpoints"), _field(spec, "values"),
                                         spec.get("label", "table_weight"))
    raise SpecFieldError("kind", f"unknown weight kind {kind!r}")
