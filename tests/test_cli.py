import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alexnorm
from alexnorm import cli
from alexnorm.cli import load_manifest, main, parse_manifest, run
from alexnorm.errors import SpecFieldError, SpecParseError
from alexnorm.registry import (describe, function_from_spec, registry_list,
                               weight_from_spec)


# -- registry --------------------------------------------------------------


def test_registry_list_sorted_and_complete():
    names = registry_list()
    assert names == sorted(names)
    assert "sinc_primitive" in names
    assert "indicator_01" in names
    for expected in ("ramp", "gaussian", "bump", "cosine", "step_signal",
                     "reciprocal_quadratic", "exponential", "step_weight",
                     "constant"):
        assert expected in names


def test_describe():
    info = describe("sinc_primitive")
    assert info["kind"] == "function"
    assert describe("step_weight")["kind"] == "weight"
    with pytest.raises(KeyError):
        describe("wavelet")


def test_function_from_spec_kinds():
    f = function_from_spec({"kind": "indicator", "a": 0.0, "b": 2.0})
    assert f.primitive.eval(2.0) == 2.0
    g = function_from_spec({"kind": "table", "breakpoints": [0.0, 1.0],
                            "values": [0.0, 3.0]})
    assert g.primitive.eval(0.5) == 1.5
    h = function_from_spec({"kind": "closed_form", "name": "gaussian"})
    assert h.label == "gaussian"


# -- manifest parsing --------------------------------------------------------


def _scenario(**kw):
    base = {
        "name": "s",
        "kind": "norm",
        "function_spec": {"kind": "builtin", "name": "indicator_01"},
        "thresholds": {"tol": 1e-9},
        "output_path": "s.csv",
    }
    base.update(kw)
    return {"seed": 1, "scenarios": [base]}


def test_parse_unknown_kind():
    with pytest.raises(SpecParseError, match=r"scenarios\[0\].kind"):
        parse_manifest(_scenario(kind="wavelet_transform"))


def test_parse_unknown_builtin_names_field():
    with pytest.raises(SpecParseError, match=r"scenarios\[0\].function_spec.name"):
        parse_manifest(_scenario(function_spec={"kind": "builtin", "name": "wavelet"}))


def test_parse_missing_ladder():
    with pytest.raises(SpecParseError, match=r"scenarios\[0\].ladder"):
        parse_manifest(_scenario(kind="gap_sweep"))


def test_parse_bad_tolerance():
    with pytest.raises(SpecParseError, match=r"thresholds.tol"):
        parse_manifest(_scenario(thresholds={"tol": -1.0}))


def test_parse_missing_weight():
    with pytest.raises(SpecParseError, match=r"weight_spec"):
        parse_manifest(_scenario(kind="weighted_sweep", ladder=[0.5]))


def test_parse_constant_function_only_in_weighted_kinds():
    with pytest.raises(SpecParseError, match="constant boundary data"):
        parse_manifest(_scenario(function_spec={"kind": "constant", "value": 1.0}))


RQ = {"kind": "builtin", "name": "reciprocal_quadratic"}


@pytest.mark.parametrize("fields, where", [
    ({"kind": ["norm"]}, r"scenarios\[0\]\.kind"),
    ({"kind": "decay", "psi": {"name": "cubic"}}, r"scenarios\[0\]\.psi\.name"),
    ({"kind": "lemma_check", "family": "comb"}, r"scenarios\[0\]\.family"),
    # the closed form checked is the reciprocal_quadratic ratio variation
    ({"kind": "weight_audit", "ladder": [0.5],
      "weight_spec": {"kind": "builtin", "name": "exponential"},
      "closed_form_check": {"xs": [0.5]}}, r"scenarios\[0\]\.closed_form_check"),
    ({"thresholds": 5}, r"scenarios\[0\]\.thresholds"),
    ({"thresholds": {"tol": "x"}}, r"scenarios\[0\]\.thresholds\.tol"),
    ({"thresholds": {"final_gap": "abc"}}, r"scenarios\[0\]\.thresholds\.final_gap"),
    ({"kind": "gap_sweep", "ladder": 5}, r"scenarios\[0\]\.ladder"),
    ({"kind": "gap_sweep", "ladder": ["a"]}, r"scenarios\[0\]\.ladder"),
    ({"kind": "gap_sweep", "ladder": ["0.5", True]}, r"scenarios\[0\]\.ladder"),
    ({"thresholds": {"tol": "1e-9"}}, r"scenarios\[0\]\.thresholds\.tol"),
    ({"kind": "lemma_check", "ns": []}, r"scenarios\[0\]\.ns"),
    ({"kind": "lemma_check", "ns": [1, 0]}, r"scenarios\[0\]\.ns"),
    ({"kind": "lemma_check", "ns": [1, "a"]}, r"scenarios\[0\]\.ns"),
    ({"kind": "decay", "n_max": "abc"}, r"scenarios\[0\]\.n_max"),
    ({"expected": "one"}, r"scenarios\[0\]\.expected"),
    ({"kind": "weight_audit", "ladder": [0.5], "weight_spec": RQ, "eps": 0},
     r"scenarios\[0\]\.eps"),
    ({"kind": "weight_audit", "ladder": [0.5], "weight_spec": RQ, "interval": [3, -3]},
     r"scenarios\[0\]\.interval"),
    # levels sizes a 2^levels + 1 sample grid
    ({"kind": "weight_audit", "ladder": [0.5], "weight_spec": RQ,
      "closed_form_check": {"levels": 0}}, r"scenarios\[0\]\.closed_form_check\.levels"),
    ({"kind": "weight_audit", "ladder": [0.5], "weight_spec": RQ,
      "closed_form_check": {"levels": 21}}, r"scenarios\[0\]\.closed_form_check\.levels"),
    ({"kind": "lemma_check", "expect": "violatd"}, r"scenarios\[0\]\.expect"),
    ({"check_isometry": True, "pairs": -5}, r"scenarios\[0\]\.pairs"),
    ({"check_isometry": "yes"}, r"scenarios\[0\]\.check_isometry"),
    ({"kind": "osc_bound", "ladder": [0.1], "halfwidth": 0.0}, r"scenarios\[0\]\.halfwidth"),
    ({"kind": "primitive_gap", "ladder": [0.5], "witness_shift": 0.0},
     r"scenarios\[0\]\.witness_shift"),
    # a misspelled key must not leave its field at the default
    ({"kind": "lemma_check", "family": "spike", "expcet": "violated"},
     r"scenarios\[0\]\.expcet: unknown key"),
    ({"thresholds": {"tol_": 1e-9}}, r"scenarios\[0\]\.thresholds\.tol_: unknown key"),
    ({"kind": "weight_audit", "ladder": [0.5], "weight_spec": RQ,
      "closed_form_check": {"level": 16}},
     r"scenarios\[0\]\.closed_form_check\.level: unknown key"),
    ({"output_path": 5}, r"scenarios\[0\]\.output_path"),
    ({"output_path": ""}, r"scenarios\[0\]\.output_path"),
    ({"output_path": "/tmp/x.csv"}, r"scenarios\[0\]\.output_path"),
    ({"output_path": "../x.csv"}, r"scenarios\[0\]\.output_path"),
    ({"output_path": "summary.json"}, r"scenarios\[0\]\.output_path"),
], ids=["kind", "psi", "family", "closed_form_check", "thresholds_not_object",
        "tol_not_number", "final_gap_not_number", "ladder_not_list",
        "ladder_entry_not_number", "ladder_entry_string_or_bool", "tol_string", "ns_empty", "ns_zero", "ns_not_integer",
        "n_max_not_integer", "expected_not_number", "eps_zero", "interval_reversed",
        "closed_form_levels_zero", "closed_form_levels_too_large", "expect_misspelled",
        "pairs_negative", "check_isometry_not_bool", "halfwidth_zero", "witness_shift_zero",
        "unknown_key", "unknown_threshold_key", "unknown_closed_form_key",
        "output_path_not_string", "output_path_empty", "output_path_absolute",
        "output_path_parent", "output_path_summary"])
def test_parse_rejects_field_before_running(fields, where):
    with pytest.raises(SpecParseError, match=where):
        parse_manifest(_scenario(**fields))


@pytest.mark.parametrize("fields, where", [
    ({"function_spec": {"kind": "table", "breakpoints": [0.0, 1.0]}},
     r"function_spec\.values: required for kind 'table'"),
    ({"function_spec": {"kind": "wavelet"}},
     r"function_spec\.kind: unknown function kind 'wavelet'"),
    ({"function_spec": {"kind": "builtin"}}, r"function_spec\.name: required"),
    ({"kind": "weighted_sweep", "ladder": [0.5],
      "weight_spec": {"kind": "table", "values": [1.0]}},
     r"weight_spec\.breakpoints: required for kind 'table'"),
    ({"kind": "weighted_sweep", "ladder": [0.5], "weight_spec": {"kind": "spline"}},
     r"weight_spec\.kind: unknown weight kind 'spline'"),
    # the constant builtin weight takes c, as README documents
    ({"kind": "weighted_sweep", "ladder": [0.5],
      "weight_spec": {"kind": "builtin", "name": "constant", "value": 2.0}},
     r"weight_spec: .*unexpected keyword argument 'value'"),
], ids=["table_without_values", "unknown_function_kind", "builtin_without_name",
        "weight_table_without_breakpoints", "unknown_weight_kind", "constant_value"])
def test_parse_spec_errors_name_the_field(fields, where):
    with pytest.raises(SpecParseError, match=r"^scenarios\[0\]\." + where):
        parse_manifest(_scenario(**fields))


@pytest.mark.parametrize("build, spec, field", [
    (function_from_spec, {"kind": "builtin", "name": "wavelet"}, "name"),
    (function_from_spec, {"kind": "spline"}, "kind"),
    (function_from_spec, {"kind": "table", "values": [0.0, 1.0]}, "breakpoints"),
    (weight_from_spec, {"kind": "closed_form", "name": "gaussian"}, "name"),
    (weight_from_spec, {"kind": "spline"}, "kind"),
], ids=["unknown_builtin", "unknown_function_kind", "missing_field",
        "function_as_weight", "unknown_weight_kind"])
def test_spec_errors_are_one_type_naming_the_field(build, spec, field):
    # the library raises one exception type for every spec mistake
    with pytest.raises(SpecFieldError, match=rf"^spec field '{field}': ") as info:
        build(spec)
    assert info.value.field == field and isinstance(info.value, SpecParseError)


def test_parse_constant_weight_takes_c():
    sc = parse_manifest(_scenario(kind="weighted_sweep", ladder=[0.5], weight_spec={
        "kind": "builtin", "name": "constant", "c": 2.0})).scenarios[0]
    assert sc.weight(np.asarray([0.0, 3.0])).tolist() == [2.0, 2.0]


def test_parse_rejects_duplicate_output_path():
    # the later CSV would silently overwrite the earlier one
    manifest = _scenario()
    manifest["scenarios"].append(dict(manifest["scenarios"][0], name="t",
                                      output_path="./s.csv"))
    with pytest.raises(SpecParseError, match=r"scenarios\[1\]\.output_path: '\./s\.csv' "
                       r"is also written by scenarios\[0\]"):
        parse_manifest(manifest)


def test_parse_rejects_unknown_manifest_key():
    manifest = _scenario()
    manifest["sede"] = 3
    with pytest.raises(SpecParseError, match=r"manifest\.sede: unknown key"):
        parse_manifest(manifest)


def test_parse_fills_field_defaults():
    # every field a kind reads is resolved at parse time, defaults included
    sc = parse_manifest(_scenario(kind="weight_audit", ladder=[0.5], weight_spec=RQ,
                                  closed_form_check={"xs": [0.25]})).scenarios[0]
    assert sc.params == {"interval": (-10.0, 10.0), "eps": 0.1, "closed_form_check": {
        "xs": [0.25], "interval": (-50.0, 50.0), "levels": 16, "rel_tol": 0.01}}
    sc = parse_manifest(_scenario(kind="lemma_check", family="spike")).scenarios[0]
    assert sc.params == {"family": "spike", "ns": [1, 2, 4, 8], "M": 8.0,
                         "expect": "witnessed", "interval": None}


def test_run_exits_2_on_bad_field(tmp_path, capsys):
    # a bad field stops the run before any scenario writes
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(_scenario(kind="weight_audit", ladder=[0.5],
                                          weight_spec=RQ, eps=0)))
    assert main(["run", str(mpath), "--out", str(tmp_path / "o")]) == 2
    assert "scenarios[0].eps" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ['"nan"', "1e400", "true", '"2"', "null"])
def test_run_exits_2_on_constant_data_that_is_not_a_finite_number(value, tmp_path, capsys):
    # 1e400 reads as inf; a string or a boolean is no number even if float()
    # takes it
    mpath = tmp_path / "m.json"
    text = json.dumps(_scenario(kind="weighted_sweep", ladder=[0.5], weight_spec=RQ,
                                function_spec={"kind": "constant", "value": "VALUE"}))
    mpath.write_text(text.replace('"VALUE"', value))
    assert main(["run", str(mpath), "--out", str(tmp_path / "o")]) == 2
    assert ("scenarios[0].function_spec.value: must be a finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_parse_takes_a_finite_constant_value():
    for value in (2, 0.5):
        sc = parse_manifest(_scenario(kind="weighted_sweep", ladder=[0.5], weight_spec=RQ,
                                      function_spec={"kind": "constant",
                                                     "value": value})).scenarios[0]
        assert sc.function(np.asarray([0.0, 3.0])).tolist() == [value, value]


def test_run_exits_2_on_nan_in_weight_table(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(_scenario(
        kind="weighted_sweep", ladder=[0.5],
        weight_spec={"kind": "table", "breakpoints": [0.0], "values": [1.0, float("nan")]})))
    assert "NaN" in mpath.read_text()
    assert main(["run", str(mpath), "--out", str(tmp_path / "o")]) == 2
    assert "scenarios[0].weight_spec: weight values must be positive and finite" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


HALFPLANE = dict(kind="poisson_halfplane", weight_spec=RQ)


@pytest.mark.parametrize("fields", [
    dict(HALFPLANE, ladder=[0.1, -0.1]), dict(HALFPLANE, ladder=[0.0]),
    dict(kind="poisson_disc", ladder=[0.5, -0.2]), dict(kind="poisson_disc", ladder=[1.0]),
], ids=["height_negative", "height_zero", "radius_negative", "radius_one"])
def test_run_exits_2_on_bad_poisson_ladder(fields, tmp_path, capsys):
    # heights must lie above the line and radii inside the disc
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(_scenario(**fields)))
    assert main(["run", str(mpath), "--out", str(tmp_path / "o")]) == 2
    assert "scenarios[0].ladder: must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_parse_accepts_poisson_ladder_bounds():
    assert parse_manifest(_scenario(kind="poisson_disc", ladder=[0.0, 0.999])
                          ).scenarios[0].ladder == [0.0, 0.999]
    assert parse_manifest(_scenario(**HALFPLANE, ladder=[1e-300])).scenarios[0].ladder == [1e-300]
    # other kinds take negative ladder entries: a shift may have either sign
    assert parse_manifest(_scenario(kind="gap_sweep", ladder=[-0.5])).scenarios[0].ladder == [-0.5]


@pytest.mark.parametrize("seed", ["abc", [1], float("inf"), 2.7, True, -1])
def test_parse_rejects_manifest_seed(seed):
    manifest = _scenario()
    manifest["seed"] = seed
    with pytest.raises(SpecParseError, match=r"manifest\.seed"):
        parse_manifest(manifest)


# -- runner ------------------------------------------------------------------


def test_empty_manifest_writes_nothing(tmp_path):
    report = run(parse_manifest({"scenarios": []}), out_dir=tmp_path / "out")
    assert report.exit_code == 0
    assert not (tmp_path / "out").exists()


MINI = {
    "seed": 11,
    "versions": "test",
    "scenarios": [
        {
            "name": "norm_box",
            "kind": "norm",
            "function_spec": {"kind": "builtin", "name": "indicator_01"},
            "thresholds": {"tol": 1e-12},
            "expected": 1.0,
            "output_path": "norm_box.csv",
        },
        {
            "name": "gaps_box",
            "kind": "gap_sweep",
            "function_spec": {"kind": "builtin", "name": "indicator_01"},
            "ladder": [0.5, 0.25, 0.125],
            "thresholds": {"tol": 1e-9, "final_gap": 0.2},
            "output_path": "gaps_box.csv",
        },
    ],
}


def test_run_mini_manifest(tmp_path):
    report = run(parse_manifest(MINI), out_dir=tmp_path)
    assert report.exit_code == 0
    assert (tmp_path / "norm_box.csv").read_text().splitlines()[0] == \
        "label,norm,expected,passed"
    gaps = (tmp_path / "gaps_box.csv").read_text().splitlines()
    assert gaps[0] == "x,gap,bound_lower,bound_upper,passed"
    # 17-significant-digit serialization is float round-trip exact
    x, gap = gaps[1].split(",")[:2]
    assert float(x) == 0.5 and float(gap) == 0.5
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert [s["name"] for s in summary["scenarios"]] == ["norm_box", "gaps_box"]


def test_run_deterministic_bytes(tmp_path):
    m1 = parse_manifest(MINI)
    m2 = parse_manifest(MINI)
    run(m1, out_dir=tmp_path / "a")
    run(m2, out_dir=tmp_path / "b")
    for name in ("norm_box.csv", "gaps_box.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_parallel_matches_serial(tmp_path):
    run(parse_manifest(MINI), out_dir=tmp_path / "serial", jobs=1)
    run(parse_manifest(MINI), out_dir=tmp_path / "par", jobs=2)
    for name in ("norm_box.csv", "gaps_box.csv", "summary.json"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes()


def test_run_failing_scenario_exit_code(tmp_path):
    bad = {
        "seed": 0,
        "scenarios": [{
            "name": "wrong_expectation",
            "kind": "norm",
            "function_spec": {"kind": "builtin", "name": "indicator_01"},
            "thresholds": {"tol": 1e-12},
            "expected": 2.0,
            "output_path": "w.csv",
        }],
    }
    report = run(parse_manifest(bad), out_dir=tmp_path)
    assert report.exit_code == 1
    assert report.summary["scenarios"][0]["passed"] is False
    assert report.summary["scenarios"][0]["status"] == "ok"


def test_tol_override_decides_the_verdict(tmp_path):
    # |1 - expected| = 1e-10 fails tol 1e-12 and passes an override of 1e-9
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(_scenario(expected=1.0 + 1e-10,
                                          thresholds={"tol": 1e-12})))
    report = run(load_manifest(mpath), out_dir=tmp_path / "strict")
    assert report.exit_code == 1
    assert (tmp_path / "strict" / "s.csv").read_text().splitlines()[1].endswith(",false")
    report = run(load_manifest(mpath), out_dir=tmp_path / "api", tol_override=1e-9)
    assert report.exit_code == 0
    assert (tmp_path / "api" / "s.csv").read_text().splitlines()[1].endswith(",true")
    assert main(["run", str(mpath), "--out", str(tmp_path / "flag"), "--tol", "1e-9"]) == 0
    assert (tmp_path / "flag" / "s.csv").read_bytes() == \
        (tmp_path / "api" / "s.csv").read_bytes()


def test_summary_is_strict_json(tmp_path, monkeypatch):
    # non-finite headline values are written as null, never NaN or Infinity
    headline = {"nan": float("nan"), "inf": float("inf"), "ninf": -np.inf,
                "np_nan": np.float64("nan"), "finite": np.float64(1.5)}
    monkeypatch.setitem(cli._EXECUTORS, "norm",
                        lambda sc, seed: (True, dict(headline), "x\n1\n"))
    run(parse_manifest({"scenarios": MINI["scenarios"][:1]}), out_dir=tmp_path)

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (tmp_path / "summary.json").read_text()
    summary = json.loads(text, parse_constant=refuse)
    assert summary["scenarios"][0]["headline"] == {
        "nan": None, "inf": None, "ninf": None, "np_nan": None, "finite": 1.5}


def test_run_domain_error_is_scenario_error(tmp_path):
    # a decay target violating its preconditions surfaces as an error entry
    bad = {
        "seed": 0,
        "scenarios": [{
            "name": "bad_decay",
            "kind": "decay",
            "thresholds": {"tol": 1e-12},
            "psi": {"name": "power", "exponent": 0.0},  # constant: no decay
            "n_max": 16,
            "output_path": "d.csv",
        }],
    }
    report = run(parse_manifest(bad), out_dir=tmp_path)
    assert report.exit_code == 1
    entry = report.summary["scenarios"][0]
    assert entry["status"] == "error"
    assert "InvalidSpec" in entry["error"]
    assert not (tmp_path / "d.csv").exists()


def test_run_records_disc_data_off_the_period(tmp_path, capsys):
    # boundary data outside [-pi, pi] is a scenario error, and the run goes on
    data = _scenario(kind="poisson_disc", ladder=[0.5],
                     function_spec={"kind": "indicator", "a": 0, "b": 4})
    data["scenarios"].append(_scenario(name="t", output_path="t.csv")["scenarios"][0])
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(data))
    assert main(["run", str(mpath), "--out", str(tmp_path / "o")]) == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    disc, norm = summary["scenarios"]
    assert disc["status"] == "error" and disc["error"].startswith("InvalidSpec: ")
    assert norm["passed"]
    assert "[-pi, pi]" in disc["error"]
    assert not (tmp_path / "o" / "s.csv").exists()
    assert (tmp_path / "o" / "t.csv").exists()
    assert "ERROR s" in capsys.readouterr().out


# -- command line ------------------------------------------------------------


def _child_env(**extra):
    """This process's environment plus extra, with the directory of the
    imported package first on PYTHONPATH, so a child runs installed or not."""
    src_dir = str(Path(alexnorm.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "alexnorm", *args],
                          capture_output=True, text=True, env=_child_env())


def test_cli_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "run" in cp.stdout and "list-builtins" in cp.stdout


def test_cli_list_builtins():
    cp = run_cli("list-builtins")
    assert cp.returncode == 0
    names = cp.stdout.split()
    assert names == sorted(names) and "sinc_primitive" in names


def test_cli_describe():
    cp = run_cli("describe", "step_weight")
    assert cp.returncode == 0 and "weight" in cp.stdout
    cp = run_cli("describe", "nope")
    assert cp.returncode == 2


def test_cli_run_and_env_out(tmp_path):
    # no --out: the run must write to $ALEXNORM_OUT, not to the working
    # directory
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(MINI))
    env_dir = tmp_path / "envout"
    env = _child_env(ALEXNORM_OUT=str(env_dir))
    cp = subprocess.run(
        [sys.executable, "-m", "alexnorm", "run", str(mpath)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert (env_dir / "summary.json").exists()
    assert not (tmp_path / "summary.json").exists()
    assert "PASS" in cp.stdout


def test_cli_run_parse_error(tmp_path):
    mpath = tmp_path / "bad.json"
    mpath.write_text(json.dumps(_scenario(
        function_spec={"kind": "builtin", "name": "wavelet"})))
    cp = run_cli("run", str(mpath), "--out", str(tmp_path / "o"))
    assert cp.returncode == 2
    assert "function_spec.name" in cp.stderr


def test_cli_run_invalid_json(tmp_path):
    mpath = tmp_path / "broken.json"
    mpath.write_text("{nope")
    cp = run_cli("run", str(mpath))
    assert cp.returncode == 2
    assert "invalid JSON" in cp.stderr


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_cli_run_unreadable_manifest(tmp_path, capsys, case):
    # an unreadable path is a bad manifest (exit 2), not a failed verdict (exit 1)
    mpath = {"missing": tmp_path / "missing.json", "directory": tmp_path,
             "not_utf8": tmp_path / "latin1.json"}[case]
    if case == "not_utf8":
        mpath.write_bytes(b'{"seed": "\xe9"}')
    assert main(["run", str(mpath), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err


_IMPORT_PATH_CHILD = """
import math, sys
import alexnorm
from alexnorm import cli
from alexnorm.poisson import HalfPlanePoint, poisson_halfplane
from alexnorm.registry import get_function, get_weight, indicator
cli.load_manifest(sys.argv[1])
poisson_halfplane(indicator(-1.0, 1.0), get_weight("reciprocal_quadratic"),
                  HalfPlanePoint(0.5, 0.2))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
norm = alexnorm.alexiewicz_norm(get_function("gaussian"))
gap = alexnorm.translation_gap(get_function("sinc_primitive"), 0.25)
pgn = alexnorm.primitive_gap_norm(get_function("cosine"), 1.0)
print(math.isfinite(norm) and math.isfinite(gap) and math.isfinite(pgn))
# closed forms take their candidates from a Chebyshev proxy, not a search,
# and gaussian's F is math.erf, elementwise: they need no scipy either
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
# bench/tracer.py wraps realfn's own minimize_scalar binding
print("minimize_scalar" in vars(alexnorm.realfn))
"""


def test_import_path_loads_no_scipy():
    # the runtime is numpy alone: no scipy module loads on import, in the
    # half-plane harness or in closed-form norms and gaps
    manifest = Path(__file__).resolve().parents[1] / "manifests" / "canonical.json"
    cp = subprocess.run([sys.executable, "-c", _IMPORT_PATH_CHILD, str(manifest)],
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.split("\n")[:4] == ["[]", "True", "[]", "True"]


# -- options -------------------------------------------------------------------


def test_keyword_default_count_is_pinned():
    # every keyword parameter with a default (in a def or a lambda) is an
    # option a caller may set; a new one must change this count on purpose
    count = 0
    for path in sorted(Path(alexnorm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count == 52


def test_manifest_key_count_is_pinned():
    # every key a manifest may carry, read from the tables that refuse the
    # unknown ones; a new manifest option must change this count on purpose
    count = (len(cli._MANIFEST) + len(cli._SCENARIO_KEYS) + len(cli._THRESHOLDS)
             + sum(len(fields) for _, fields in cli._KINDS.values())
             + len(cli._CLOSED_FORM_FIELDS))
    assert count == 38
