"""Acceptance criteria, one test per criterion (7 and 10 are split by clause).

Every test prints one `ACCEPTANCE <id>: PASS/FAIL` line.  Two clauses are
checked against independent closed-form ground truth rather than against the
published reference values, which that ground truth contradicts (README.md,
"Published reference values"):

* 7b - the variation of the reciprocal-quadratic ratio function on [-50, 50]
  is compared with its exact windowed value, read off the ratio's two interior
  extrema (the published target 2|x| sqrt(x^2+1) is not the variation of that
  function; the full-line value is 2|x| sqrt(x^2+4));
* 10b - the weighted half-plane gap at y = 0.01 is compared with the
  closed-form convolution integrated by quadrature (the published threshold
  0.02 sits below the true value 0.02745).
"""

import math
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from alexnorm.cli import load_manifest, run
from alexnorm.errors import HypothesisViolated
from alexnorm.norms import (DecaySpec, SmoothBump, alexiewicz_norm, gap_sweep,
                            hk_not_l1_witness, one_norm, primitive_gap_l1,
                            primitive_gap_norm, slow_decay_construct,
                            translate, translation_gap)
from alexnorm.poisson import (HalfPlanePoint, PeriodicIntegrand, disc_kernel,
                              halfplane_weighted_convergence, poisson_disc,
                              poisson_halfplane)
from alexnorm.registry import get_function, get_weight, indicator
from alexnorm.weights import (ratio_conditions_check, uniform_bound_lemma_check,
                              variation_bound_check, weight_ratio)

ONE = lambda y: np.ones_like(np.asarray(y, dtype=float))


def _report(cid: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} {detail}"


def test_c01_norm_exactness():
    t0 = time.perf_counter()
    f = get_function("indicator_01")
    val = alexiewicz_norm(f)
    ok = abs(val - 1.0) <= 1e-12
    xs = np.linspace(-1.0, 2.0, 1000)
    F = np.concatenate([f.primitive.eval(xs), [0.0, 1.0]])
    brute = float(np.abs(F[:, None] - F[None, :]).max())  # 10^6 interval pairs
    ok = ok and abs(val - brute) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report("c01", ok, f"norm={val!r} brute={brute!r} t={elapsed:.2f}s")


def test_c02_translation_gap_convergence():
    t0 = time.perf_counter()
    ok = True
    detail = []
    xs = [2.0 ** -k for k in range(1, 11)]
    for name in ("indicator_01", "ramp", "sinc_primitive", "bump"):
        reports = gap_sweep(get_function(name), xs)
        gaps = [r.gap for r in reports]
        decreasing = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        ok = ok and decreasing and gaps[-1] < 1e-2
        detail.append(f"{name}:{gaps[-1]:.2e}")
    chi_gaps = [translation_gap(get_function("indicator_01"), x) for x in xs]
    ok = ok and all(abs(g - x) <= 1e-12 for g, x in zip(chi_gaps, xs))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report("c02", ok, " ".join(detail) + f" t={elapsed:.2f}s")


def test_c03_isometry_random_pairs():
    names = ("indicator_01", "ramp", "sinc_primitive", "gaussian", "bump",
             "cosine", "step_signal")
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        name = names[int(rng.integers(len(names)))]
        x = float(rng.uniform(-5.0, 5.0))
        f = get_function(name)
        worst = max(worst, abs(alexiewicz_norm(translate(f, x)) - alexiewicz_norm(f)))
    ok = worst <= 1e-12
    _report("c03", ok, f"worst_error={worst:.2e}")


def test_c04_slow_decay_construction():
    t0 = time.perf_counter()
    spec = DecaySpec(lambda x: np.sqrt(np.asarray(x, dtype=float)), 256)
    f = slow_decay_construct(spec)
    worst = math.inf
    for n in range(2, 257):
        x = 1.0 / n
        margin = translation_gap(f, x) - math.sqrt(x)
        worst = min(worst, margin)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 5.0
    _report("c04", ok, f"worst_margin={worst:.2e} t={elapsed:.2f}s")


def test_c05_bump_oscillation_rate():
    b = SmoothBump()
    g = b.to_integrand()
    ok = True
    detail = []
    for x in (1e-2, 1e-3):
        gap = translation_gap(g, x)
        err = abs(gap / x - b.osc())
        bound = 2.0 * b.derivative_sup() * x + 1e-6
        ok = ok and err <= bound
        detail.append(f"x={x:g}:err={err:.2e}<=bound={bound:.2e}")
    _report("c05", ok, " ".join(detail))


def test_c06_primitive_gap_bounds_and_witness():
    ok = True
    for name in ("indicator_01", "ramp", "gaussian", "step_signal", "bump"):
        f = get_function(name)
        norm = alexiewicz_norm(f)
        n1 = one_norm(f)
        for x in (0.5, 0.25, 0.1, 0.01):
            ok = ok and primitive_gap_norm(f, x) <= norm * x + 1e-9
            ok = ok and primitive_gap_l1(f, x) <= n1 * x + 1e-9
    sinc = get_function("sinc_primitive")
    for x in (0.5, 0.25, 0.1):
        ok = ok and primitive_gap_norm(sinc, x) <= alexiewicz_norm(sinc) * x + 1e-9
    wit = hk_not_l1_witness(math.pi)
    ok = ok and wit.abs_integral_diverges and wit.r_squared >= 0.999
    ok = ok and wit.alexiewicz_finite and math.isfinite(wit.gap_norm)
    _report("c06", ok, f"witness_r2={wit.r_squared:.6f}")


def test_c07a_ratio_conditions_three_weights():
    ok = True
    for name, I in (("reciprocal_quadratic", (-10.0, 10.0)),
                    ("exponential", (-3.0, 3.0)),
                    ("step_weight", (-1.0, 1.0))):
        rep = ratio_conditions_check(get_weight(name), [0.5, 0.25, 0.1, 0.01], I, 0.1)
        ok = ok and rep.passed
    _report("c07a", ok)


def test_c07b_ratio_variation_published_closed_form():
    # g_x(y) = w(y+x)/w(y) for w = 1/(y^2+1) rises to its maximum at
    # y- = (-x - sqrt(x^2+4))/2, falls to its minimum at y+ = (-x + sqrt(x^2+4))/2
    # and is monotone in between, so its exact variation on [a, b] is the sum
    # of |dg| over {a, y-, y+, b}.  Variation is a lower estimate, so it must
    # not exceed that value.
    a, b = -50.0, 50.0
    w = get_weight("reciprocal_quadratic")
    ok = True
    detail = []
    for x in (0.5, 0.1):
        est = weight_ratio(w, x).variation_on((a, b), 16)
        g = lambda y: (y * y + 1.0) / ((y + x) ** 2 + 1.0)
        r = math.sqrt(x * x + 4.0)
        ys = [a, (-x - r) / 2.0, (-x + r) / 2.0, b]
        target = sum(abs(g(q) - g(p)) for p, q in zip(ys, ys[1:]))
        ok = ok and abs(est - target) <= 0.01 * target and est <= target + 1e-9
        detail.append(f"x={x:g}:est={est:.10f} target={target:.10f}")
    _report("c07b", ok, " ".join(detail))


def test_c07c_variation_transfer_bound():
    ok = True
    for name, I in (("reciprocal_quadratic", (-10.0, 10.0)),
                    ("exponential", (-3.0, 3.0)),
                    ("step_weight", (-1.0, 1.0))):
        w = get_weight(name)
        for x in (0.5, 0.25, 0.1, 0.01):
            ok = ok and variation_bound_check(w, x, I).passed
    _report("c07c", ok)


def test_c08_uniform_bound_lemma():
    ns = (1, 2, 4, 8, 16)
    seq = [(lambda y, n=n: 1.0 + np.sin(np.asarray(y, dtype=float)) / n) for n in ns]
    rep = uniform_bound_lemma_check(seq, (0.0, 4.0 * math.pi), ONE, 8.0)
    ok = rep.witnessed and all(s <= rep.bound + 1e-9 for s in rep.sup_values)
    spikes = [(lambda y, n=n: n * ((np.asarray(y, dtype=float) >= 0)
                                   & (np.asarray(y, dtype=float) < 1.0 / n)).astype(float))
              for n in (1, 2, 8, 64)]
    try:
        uniform_bound_lemma_check(spikes, (0.0, 1.0),
                                  lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                                  8.0)
        ok = False
    except HypothesisViolated:
        pass
    _report("c08", ok, f"bound={rep.bound}")


def test_c09_poisson_disc():
    t0 = time.perf_counter()
    ok = True
    one = PeriodicIntegrand(get_function("one_period"))
    cosf = PeriodicIntegrand(get_function("cosine"))
    for r in (0.0, 0.5, 0.9, 0.99):
        phis = -math.pi + (np.arange(65536) + 0.5) * (2.0 * math.pi / 65536)
        mass = float(np.sum(disc_kernel(r, phis)) * (2.0 * math.pi / 65536))
        ok = ok and abs(mass - 1.0) <= 1e-10
        ok = ok and abs(poisson_disc(one, r, 0.3) - 1.0) <= 1e-10
        ok = ok and abs(poisson_disc(cosf, r, 0.0) - r) <= 1e-8
    from alexnorm.poisson import disc_boundary_convergence
    chi_half = PeriodicIntegrand(indicator(0.0, math.pi, label="chi_0_pi"))
    reports = disc_boundary_convergence(chi_half, [0.9, 0.99, 0.999])
    gaps = [r.gap for r in reports]
    ok = ok and all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ok = ok and gaps[-1] < 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report("c09", ok, f"final_gap={gaps[-1]:.4f} t={elapsed:.1f}s")


def test_c10a_poisson_halfplane_unit_and_majorant():
    t0 = time.perf_counter()
    ok = True
    w = get_weight("reciprocal_quadratic")
    for y in (0.1, 1.0):
        u = poisson_halfplane(ONE, w, HalfPlanePoint(0.3, y))
        ok = ok and abs(u - 1.0) <= 1e-6
    f = get_function("indicator_01")
    reports = halfplane_weighted_convergence(f, w, [1.0, 0.1, 0.01], (-8.0, 8.0))
    gaps = [r.gap for r in reports]
    ok = ok and all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ok = ok and all(r.gap <= r.bound_upper + 1e-6 for r in reports)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    globals()["_C10_GAPS"] = gaps
    _report("c10a", ok, f"gaps={['%.4f' % g for g in gaps]} t={elapsed:.1f}s")


def _halfplane_gap_oracle(y: float, a: float, b: float) -> float:
    """Oscillation on (a, b) of E(t) = int_a^t (u_y - chi_[0,1]) w for
    w = 1/(t^2+1), with u_y(t) = (atan(t/y) - atan((t-1)/y))/pi in closed form.

    u_y - chi is positive off [0, 1] and negative inside it, so E is monotone
    between a, 0, 1 and b and its extremes sit among those four nodes.  Each
    piece is integrated by quadrature on subintervals graded toward its ends,
    where the integrand varies on the scale y.
    """
    def e(t):
        u = (math.atan(t / y) - math.atan((t - 1.0) / y)) / math.pi
        return (u - (1.0 if 0.0 <= t <= 1.0 else 0.0)) / (t * t + 1.0)

    def piece(p, q):
        nodes = {p, q}
        for k in range(1, 9):
            nodes.update(c for c in (p + 10.0 ** -k, q - 10.0 ** -k) if p < c < q)
        nodes = sorted(nodes)
        return sum(quad(e, s, t, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                   for s, t in zip(nodes, nodes[1:]))

    E = np.cumsum([0.0, piece(a, 0.0), piece(0.0, 1.0), piece(1.0, b)])
    return float(E.max() - E.min())


def test_c10b_halfplane_final_gap_threshold():
    # the final gap at y = 0.01 against the closed-form oracle, to the
    # harness's own point tolerance (1e-6)
    gaps = globals().get("_C10_GAPS")
    if gaps is None:
        w = get_weight("reciprocal_quadratic")
        f = get_function("indicator_01")
        reports = halfplane_weighted_convergence(f, w, [0.01], (-8.0, 8.0))
        final = reports[-1].gap
    else:
        final = gaps[-1]
    oracle = _halfplane_gap_oracle(0.01, -8.0, 8.0)
    ok = abs(final - oracle) <= 1e-6
    _report("c10b", ok, f"final_gap={final:.10f} oracle={oracle:.10f}")


def test_c11_full_manifest_runtime_and_determinism(tmp_path):
    manifest = Path(__file__).resolve().parents[1] / "manifests" / "canonical.json"
    t0 = time.perf_counter()
    report1 = run(load_manifest(manifest), out_dir=tmp_path / "a")
    elapsed = time.perf_counter() - t0
    run(load_manifest(manifest), out_dir=tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    ok = files_a == files_b and len(files_a) == 19  # 18 scenario CSVs + summary
    for name in files_a:
        ok = ok and (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    ok = ok and elapsed < 60.0
    # the only failing scenario keeps the published final_gap 0.02 at
    # y = 0.01, below the true gap 0.02745 (see test_c10b)
    failing = {s["name"] for s in report1.summary["scenarios"] if not s["passed"]}
    ok = ok and failing == {"c10_poisson_halfplane"}
    _report("c11", ok, f"t={elapsed:.1f}s files={len(files_a)} failing={sorted(failing)}")
