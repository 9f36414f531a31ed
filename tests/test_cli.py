"""End-to-end checks for the command-line front end.

Each test drives cli.main() in process and inspects the one-line summary,
the exit status, and the CSV/JSON artifacts. Two subprocess tests run the
CLI as its own process: one through `python -m flagint.cli`, which needs
no install, and one through the installed `flagint` console script, which
is skipped where that script is not on PATH.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from flagint import cli, quadrature
from flagint.atoms import atom_to_json, signum_atom_at_scale


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    # a stray seed override would silently rename every artifact below
    monkeypatch.delenv("FLAGINT_SEED", raising=False)


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def read_artifacts(out_dir, experiment, seed=0):
    base = os.path.join(str(out_dir), f"{experiment}-{seed}")
    with open(base + ".csv", "r", encoding="utf-8", newline="") as fh:
        csv_text = fh.read()
    with open(base + ".json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return csv_text, payload


# ---------------------------------------------------------------------------
# check


def test_check_formula_two_satisfied(tmp_path, capsys):
    status, out, err = run_cli(
        capsys, "check", "--alpha", "9/10", "--beta", "3/10", "--q", "2",
        "--out", str(tmp_path),
    )
    assert status == 0
    assert out.strip() == "formula-two: SATISFIED"
    assert err.startswith("wrote ")
    csv_text, payload = read_artifacts(tmp_path, "check")
    assert "formula-two,true,,SATISFIED," in csv_text
    assert payload["metadata"]["derived"] == {"a": "1/2", "b": "1/2"}


def test_check_reports_both_formulas_when_p_given(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "check", "--alpha", "9/10", "--beta", "3/10",
        "--p", "1", "--q", "2", "--out", str(tmp_path),
    )
    assert status == 0
    assert out.strip() == "formula-one: SATISFIED; formula-two: SATISFIED"
    _, payload = read_artifacts(tmp_path, "check")
    assert payload["row_count"] == 2


def test_check_critical_pair_fails_strict_condition(tmp_path, capsys):
    # alpha/n == beta/m satisfies the weak form but not the strict one
    status, out, _ = run_cli(
        capsys, "check", "--alpha", "1/2", "--beta", "1/2",
        "--p", "1", "--q", "2", "--out", str(tmp_path),
    )
    assert status == 2
    assert out.strip() == "formula-one: SATISFIED; formula-two: VIOLATED"


def test_check_requires_q(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "check", "--alpha", "9/10", "--beta", "3/10",
        "--out", str(tmp_path),
    )
    assert status == 1
    assert err.strip() == "usage error: check needs q (and optionally p)"
    assert list(tmp_path.iterdir()) == []


def test_check_rejects_beta_at_endpoint(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "check", "--alpha", "9/10", "--beta", "1", "--q", "2",
        "--out", str(tmp_path),
    )
    assert status == 1
    assert err.strip() == "error: beta must lie in (0, m)=(0,1), got 1"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# kernel


def test_kernel_point_value_and_artifacts(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "kernel", "--x", "2", "--y", "3", "--out", str(tmp_path),
    )
    assert status == 0
    assert out.strip() == "kernel value 0.2672612419124244"
    csv_text, payload = read_artifacts(tmp_path, "kernel")
    assert csv_text == (
        "x,y,value,err,label,case\r\n"
        "2.0,3.0,0.2672612419124244,0.0,kernel,\r\n"
    )
    echo = payload["metadata"]["run_config"]
    assert echo["alpha"] == "1/2"
    assert echo["experiment"] == "kernel"
    assert echo["out"] == str(tmp_path)


def test_kernel_missing_coordinate_is_usage_error(tmp_path, capsys):
    status, _, err = run_cli(capsys, "kernel", "--y", "3", "--out", str(tmp_path))
    assert status == 1
    assert err.strip() == "usage error: missing required field 'x' for 'kernel'"


def test_apply_missing_coordinate_is_usage_error(tmp_path, capsys):
    status, _, err = run_cli(capsys, "apply", "--y", "0.25", "--out", str(tmp_path))
    assert status == 1
    assert err.strip() == "usage error: missing required field 'x' for 'apply'"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (("kernel", "--x", "1,2", "--y", "3"), "need 1 x-coordinates and 1 y-coordinates"),
    (("dilate", "--deltas", " , "), "'deltas' is empty"),
], ids=["kernel-two-x", "dilate-empty-deltas"])
def test_coordinate_and_list_shapes_are_usage_errors(tmp_path, capsys, argv, message):
    status, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_unrecognized_flag_maps_to_exit_one(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "kernel", "--x", "2", "--y", "3", "--frequency", "9",
    )
    assert status == 1
    assert err.startswith("usage error: ")
    assert "unrecognized" in err


# ---------------------------------------------------------------------------
# config file and environment precedence


def test_config_file_supplies_fields(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"experiment": "kernel", "x": [2], "y": [3]}))
    status, out, _ = run_cli(
        capsys, "kernel", "--config", str(cfg), "--out", str(tmp_path),
    )
    assert status == 0
    assert out.strip() == "kernel value 0.2672612419124244"


def test_explicit_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"experiment": "kernel", "x": [2], "y": [3]}))
    status, out, _ = run_cli(
        capsys, "kernel", "--config", str(cfg), "--x", "3",
        "--out", str(tmp_path),
    )
    assert status == 0
    # |x|^{-1/2} (|x|^2+|y|)^{-1/2} at (3, 3) is exactly 1/6
    assert out.strip() == "kernel value 0.16666666666666666"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    # method once chose the quadrature rule; the grid is now the only one
    cfg = tmp_path / "run.json"
    for key in ("wavelength", "method"):
        cfg.write_text(json.dumps({"experiment": "kernel", key: 5}))
        status, _, err = run_cli(capsys, "kernel", "--config", str(cfg))
        assert status == 1
        assert err.strip() == (
            f"usage error: unknown config key '{key}' for experiment 'kernel'"
        )


def test_config_file_rejects_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"experiment": "check"}))
    status, _, err = run_cli(capsys, "kernel", "--config", str(cfg))
    assert status == 1
    assert err.strip() == (
        "usage error: config file declares experiment 'check', "
        "command line says 'kernel'"
    )


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    status, _, err = run_cli(capsys, "kernel", "--config", str(cfg))
    assert status == 1
    assert err.strip() == "usage error: config file must hold a JSON object"


@pytest.mark.parametrize("experiment, doc, message", [
    ("shells", {"k_max": [3]}, "config key 'k_max' must be a number, got [3]"),
    ("kernel", {"n": None}, "config key 'n' must be a number, got null"),
    ("kernel", {"seed": True}, "config key 'seed' must be a number, got true"),
    ("dilate", {"radius": {"r": 1}}, 'config key \'radius\' must be a number, got {"r": 1}'),
    # int(4.9) would run k_max 4, and int(1.5) n 1, while run_config echoed 4.9 and 1.5
    ("shells", {"k_max": 4.9}, "config key 'k_max' must be an integer, got 4.9"),
    ("kernel", {"n": 1.5, "x": "2", "y": "3"}, "config key 'n' must be an integer, got 1.5"),
    ("apply", {"inner_cutoff": "-20.5", "x": "3", "y": "3"},
     'config key \'inner_cutoff\' must be an integer, got "-20.5"'),
])
def test_config_file_rejects_a_number_flag_of_the_wrong_type(
        tmp_path, capsys, experiment, doc, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, experiment, "--config", str(cfg), "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("experiment, doc, message", [
    ("apply", {"box": [1, 2]}, "bad box: expected lo:hi pairs, got [1, 2]"),
    ("apply", {"box": [[0, None], [0, 1]]},
     "bad box: expected lo:hi pairs, got [[0, None], [0, 1]]"),
    ("apply", {"box": [[0, 1, 2], [0, 1]]},
     "bad box: expected lo:hi pairs, got [[0, 1, 2], [0, 1]]"),
    ("atom-validate", {"atom_json": True}, "'atom_json' must be a path string, got true"),
    ("atom-validate", {"atom_json": 0}, "'atom_json' must be a path string, got 0"),
    ("atom-validate", {"atom_json": ["a.json"]},
     "'atom_json' must be a path string, got [\"a.json\"]"),
], ids=["box-flat", "box-null", "box-triple", "atom-json-true", "atom-json-0",
        "atom-json-list"])
def test_config_file_rejects_a_box_or_atom_path_of_the_wrong_type(
        tmp_path, capsys, experiment, doc, message):
    # open(True) would read and close stdout, and a falsy 0 would pick the
    # signum atom in place of a file
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"x": "3", "y": "3", **doc} if experiment == "apply" else doc))
    status, out, err = run_cli(capsys, experiment, "--config", str(cfg), "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err == f"usage error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("experiment, doc, message", [
    ("atom-validate", {"atom": "signun"},
     'config key \'atom\' must be one of signum, random, got "signun"'),
    ("atom-validate", {"atom": 3}, "config key 'atom' must be one of signum, random, got 3"),
    ("atom-validate", {"normalization": "loose"},
     'config key \'normalization\' must be one of strict, relaxed, got "loose"'),
    # signum is a payload of shells and apply, not of dilate
    ("dilate", {"payload": "signum"},
     'config key \'payload\' must be one of bump, indicator, got "signum"'),
], ids=["atom-typo", "atom-number", "normalization", "payload-of-another"])
def test_config_file_rejects_a_value_outside_its_choices(
        tmp_path, capsys, experiment, doc, message):
    # argparse checks the choices of a flag, not of a config-file value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, experiment, "--config", str(cfg), "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err == f"usage error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


_CHECK = ("check", "--alpha", "9/10", "--beta", "3/10", "--q", "2")


@pytest.mark.parametrize("argv, key", [
    (_CHECK, "rho"),
    (("shells",), "alpha"),
    (("dilate",), "beta"),
    (("hls",), "p"),
    (("frontier",), "q"),
], ids=["rho", "alpha", "beta", "p", "q"])
def test_config_file_rejects_a_null_rational_where_the_default_is_not_null(
        tmp_path, capsys, argv, key):
    # a null rho reached the exponent checks, which refused None as no rational
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: None}))
    status, out, err = run_cli(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err == f"usage error: config key {key!r} must be a rational, got null\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_keeps_a_null_rational_where_the_default_is_null(tmp_path, capsys):
    # check has no default alpha: a null one is no key, so the flag still sets it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": None}))
    status, out, _ = run_cli(capsys, *_CHECK, "--config", str(cfg), "--out", str(tmp_path))
    assert status == 0
    assert out.strip() == "formula-two: SATISFIED"
    status, _, err = run_cli(capsys, "check", "--beta", "3/10", "--q", "2",
                             "--config", str(cfg), "--out", str(tmp_path))
    assert status == 1
    assert err == "usage error: missing required field 'alpha' for 'check'\n"


def test_config_file_keeps_a_null_choice_where_the_default_is_null(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"normalization": None}))
    status, out, _ = run_cli(capsys, "atom-validate", "--config", str(cfg),
                             "--out", str(tmp_path))
    assert status == 0
    assert out.startswith("atom VALID")


@pytest.mark.parametrize("value, shown", [(5, "5"), (False, "false")], ids=["number", "false"])
def test_config_file_rejects_an_out_that_is_no_path_string(
        tmp_path, capsys, monkeypatch, value, shown):
    # str(5) would write into a directory 5, and a falsy false into the working directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"out": value}))
    status, out, err = run_cli(capsys, "check", "--alpha", "9/10", "--beta", "3/10", "--q", "2",
                               "--config", str(cfg))
    assert status == 1
    assert out == ""
    assert err == f"usage error: 'out' must be a path string, got {shown}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_keeps_a_null_atom_path_where_the_default_is_null(tmp_path, capsys):
    # a null atom_json means no key: the signum atom is validated
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"atom_json": None}))
    status, out, _ = run_cli(capsys, "atom-validate", "--config", str(cfg),
                             "--out", str(tmp_path / "null"))
    assert status == 0
    assert out.startswith("atom VALID")
    run_cli(capsys, "atom-validate", "--out", str(tmp_path / "unset"))
    assert (read_artifacts(tmp_path / "null", "atom-validate")[0]
            == read_artifacts(tmp_path / "unset", "atom-validate")[0])


def test_config_file_keeps_numeric_strings_floats_and_default_nulls(tmp_path, capsys):
    # jobs defaults to null, and L has no default under apply
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "1", "seed": 3.0, "jobs": None, "L": None,
                               "x": "2", "y": "3"}))
    status, out, _ = run_cli(capsys, "apply", "--config", str(cfg), "--out", str(tmp_path))
    assert status == 0
    assert out.startswith("operator value ")
    assert (tmp_path / "apply-3.csv").exists()
    # the sidecar echoes the typed values that ran
    _, payload = read_artifacts(tmp_path, "apply", seed=3)
    echo = payload["metadata"]["run_config"]
    assert (echo["n"], echo["seed"]) == (1, 3)
    assert type(echo["n"]) is type(echo["seed"]) is int


@pytest.mark.parametrize("argv", [
    ("check", "--alpha", "9/10", "--beta", "3/10", "--q", "2"),
    ("kernel", "--x", "2", "--y", "3"),
    ("apply", "--x", "3", "--y", "3"),
    ("atom-validate",),
    ("shells", "--k-max", "1", "--l-max", "1", "--jobs", "1"),
], ids=lambda argv: argv[0])
def test_every_run_is_timed_by_the_cli(tmp_path, capsys, argv):
    # the CLI times the whole run, whichever runner built the result
    status, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert status in (0, 2)
    _, payload = read_artifacts(tmp_path, argv[0])
    assert payload["timestamp"]["wall_time_s"] > 0.0


def test_seed_env_var_names_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGINT_SEED", "77")
    status, _, _ = run_cli(
        capsys, "kernel", "--x", "2", "--y", "3", "--out", str(tmp_path),
    )
    assert status == 0
    _, payload = read_artifacts(tmp_path, "kernel", seed=77)
    assert payload["metadata"]["run_config"]["seed"] == 77


def test_seed_flag_beats_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGINT_SEED", "77")
    status, _, _ = run_cli(
        capsys, "kernel", "--x", "2", "--y", "3", "--seed", "5",
        "--out", str(tmp_path),
    )
    assert status == 0
    _, payload = read_artifacts(tmp_path, "kernel", seed=5)
    assert payload["metadata"]["run_config"]["seed"] == 5
    assert not (tmp_path / "kernel-77.csv").exists()


def test_seed_only_names_files(tmp_path, capsys):
    # the engine takes no seed: the rows and the sidecar are the same at any seed
    artifacts = {}
    for seed in ("0", "7"):
        status, _, _ = run_cli(capsys, "shells", "--k-max", "1", "--l-max", "1", "--jobs", "1",
                               "--seed", seed, "--out", str(tmp_path))
        assert status in (0, 2)
        artifacts[seed] = read_artifacts(tmp_path, "shells", seed=int(seed))
    (csv_0, doc_0), (csv_7, doc_7) = artifacts["0"], artifacts["7"]
    assert csv_0 == csv_7
    seeds = [doc["metadata"]["run_config"].pop("seed") for doc in (doc_0, doc_7)]
    assert seeds == [0, 7]
    del doc_0["timestamp"], doc_7["timestamp"]
    assert doc_0 == doc_7


def test_seed_env_var_rejects_garbage(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGINT_SEED", "xyz")
    status, _, err = run_cli(
        capsys, "kernel", "--x", "2", "--y", "3", "--out", str(tmp_path),
    )
    assert status == 1
    assert err.strip() == "usage error: FLAGINT_SEED must be an integer, got 'xyz'"


def test_jobs_must_be_positive(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "counterexample", "--radii", "10", "--jobs", "0",
        "--out", str(tmp_path),
    )
    assert status == 1
    assert err.strip() == "usage error: jobs must be >= 1"


@pytest.mark.parametrize("argv, name", [
    (("counterexample", "--radii", "10,1e400"), "radii"),
    (("dilate", "--deltas", "1e400"), "deltas"),
    (("apply", "--x", "1e400", "--y", "0"), "x"),
])
def test_number_lists_beyond_float_range_are_usage_errors(tmp_path, capsys, argv, name):
    status, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err.startswith(f"usage error: bad value in {name!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("atom-validate", "--L", "5000"),
    ("atom-validate", "--L", "-5000"),
    ("shells", "--L", "5000"),
    ("apply", "--payload", "signum", "--L", "5000", "--x", "1", "--y", "1"),
])
def test_dyadic_scales_beyond_float_range_are_errors(tmp_path, capsys, argv):
    status, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert re.fullmatch(r"error: 2\^-?\d+ is outside the normal float range \S+\n", err)


@pytest.mark.parametrize("argv, status", [
    (("atom-validate", "--L", "0"), 0),
    (("apply", "--payload", "bump", "--radius", "0", "--x", "3", "--y", "0.5"), 1),
    (("shells", "--payload", "bump", "--radius", "0"), 1),
], ids=["atom-validate-L0", "apply-bump-radius0", "shells-bump-radius0"])
def test_a_flag_value_of_zero_is_that_value(tmp_path, capsys, argv, status):
    # 0 is a value, not an unset flag: the L = 0 signum atom has sup 4, and a
    # bump of radius 0 is refused
    got, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert got == status
    if status == 0:
        _, payload = read_artifacts(tmp_path, "atom-validate")
        assert payload["metadata"]["report"]["sup"] == 4.0
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--points-per-axis", "100000",
     f"points_per_axis must lie in [4, {quadrature.MAX_POINTS_PER_AXIS}]"),
    ("--inner-cutoff", "5", "inner_cutoff must be a negative dyadic exponent >= -1060"),
    ("--seed", "-1", "seed must be a 64-bit unsigned integer"),
], ids=["points-per-axis", "inner-cutoff", "seed"])
def test_points_per_axis_beyond_the_cap_is_refused_before_any_rule(tmp_path, capsys, flag,
                                                                   value, message):
    # leggauss(100000) alone would form an 80 GB matrix; every setting the
    # spec refuses is a usage error
    tracemalloc.start()
    try:
        status, out, err = run_cli(capsys, "apply", "--x", "3", "--y", "3",
                                   flag, value, "--out", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    assert out == ""
    assert err == f"usage error: {message}\n"
    assert peak < 2 ** 20, peak


# ---------------------------------------------------------------------------
# apply


def test_apply_interior_point_is_unresolved_at_default_cutoff(tmp_path, capsys):
    # the core estimate exceeds the target there, so the run degrades to
    # a flagged row plus exit code 1 instead of a hard failure
    status, out, _ = run_cli(
        capsys, "apply", "--x", "0.5", "--y", "0.25", "--out", str(tmp_path),
    )
    assert status == 1
    match = re.fullmatch(r"operator value (\S+) \+/- (\S+) UNRESOLVED", out.strip())
    assert match is not None, out
    value_txt, err_txt = match.groups()
    # floats are printed in full repr precision
    assert repr(float(value_txt)) == value_txt
    assert repr(float(err_txt)) == err_txt
    # Pinned on Python 3.10. numpy's float64 power and libm pow disagree in
    # the last bit on a few percent of inputs, so other numpy builds print
    # other last digits. 1e-12 relative is about 6,000 ulps of the value;
    # err = |Q_g - Q_{g-1}| is a difference of two sums of that size and
    # inherits their rounding, so its bound scales with the value too.
    pinned_value, pinned_err = 11.418799431244237, 0.02486624605925176
    tol = 1e-12 * abs(pinned_value)
    assert abs(float(value_txt) - pinned_value) <= tol, value_txt
    assert abs(float(err_txt) - pinned_err) <= tol, err_txt
    csv_text, _ = read_artifacts(tmp_path, "apply")
    assert csv_text.endswith(
        f"0.5,0.25,{value_txt},{err_txt},UNRESOLVED,accuracy-error\r\n"
    )


def test_apply_prints_plain_floats_when_the_core_is_excluded(tmp_path, capsys):
    # the point sits inside the bump, so err carries the analytic core bound
    status, out, _ = run_cli(
        capsys, "apply", "--x", "0.5", "--y", "0.25", "--inner-cutoff", "-40",
        "--payload", "bump", "--out", str(tmp_path),
    )
    assert status == 0
    match = re.fullmatch(r"operator value (\S+) \+/- (\S+)", out.strip())
    assert match is not None, out
    for txt in match.groups():
        assert repr(float(txt)) == txt


def test_apply_exterior_point_passes(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "apply", "--x", "10", "--y", "0", "--out", str(tmp_path),
    )
    assert status == 0
    assert out.startswith("operator value ")
    assert "UNRESOLVED" not in out
    csv_text, _ = read_artifacts(tmp_path, "apply")
    assert ",apply,\r\n" in csv_text


@pytest.mark.parametrize("argv", [
    ("apply", "--x", "1e20", "--y", "0"),
    ("counterexample", "--radii", "1e150", "--jobs", "1"),
], ids=["apply-grid", "counterexample"])
def test_points_too_far_from_the_payload_are_a_usage_error(tmp_path, capsys, argv):
    status, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err.startswith("usage error: the point ") and err.count("\n") == 1


def test_apply_above_the_grid_dimension_is_a_usage_error_naming_the_limit(tmp_path, capsys):
    status, out, err = run_cli(capsys, "apply", "--n", "3", "--m", "2", "--x", "0.5,0.5,0.5",
                               "--y", "0.3,0.3", "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err == (f"usage error: grid quadrature supports "
                   f"n+m <= {quadrature.MAX_GRID_DIMENSION}, got 5\n")
    assert "monte" not in err.lower()
    assert list(tmp_path.iterdir()) == []


def test_apply_box_string_reads_as_the_same_json_pairs(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"box": [[0, 1], [-0.5, 0.5]]}))
    query = ("apply", "--x", "3", "--y", "0.25")
    status, want, _ = run_cli(capsys, *query, "--config", str(cfg),
                              "--out", str(tmp_path / "json"))
    assert status == 0
    status, out, _ = run_cli(capsys, *query, "--box", "0:1, -0.5:0.5",
                             "--out", str(tmp_path / "flag"))
    assert status == 0
    assert out == want
    assert out.startswith("operator value ")


@pytest.mark.parametrize("box, message", [
    ("0:1", "'box' needs 2 axes, got 1"),
    ("0:1,0:1,0:1", "'box' needs 2 axes, got 3"),
    ("0:1:2,0:1", "bad box: expected lo:hi pairs, got '0:1:2,0:1'"),
    ("0-1,0:1", "bad box: expected lo:hi pairs, got '0-1,0:1'"),
    ("0:a,0:1", "bad box: expected lo:hi pairs, got '0:a,0:1'"),
], ids=["one-axis", "three-axes", "triple", "no-colon", "not-a-number"])
def test_apply_box_string_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys, box, message):
    status, out, err = run_cli(capsys, "apply", "--x", "3", "--y", "3", "--box", box,
                               "--out", str(tmp_path))
    assert status == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


# ---------------------------------------------------------------------------
# atom-validate


def test_atom_validate_default_signum(tmp_path, capsys):
    status, out, _ = run_cli(capsys, "atom-validate", "--out", str(tmp_path))
    assert status == 0
    assert out.strip() == "atom VALID (support True, bound True, mean True)"


def test_atom_validate_strict_normalization_fails(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "atom-validate", "--normalization", "strict",
        "--out", str(tmp_path),
    )
    assert status == 2
    assert out.strip() == "atom INVALID (support False, bound False, mean True)"
    # artifacts are still written for failed validations
    _, payload = read_artifacts(tmp_path, "atom-validate")
    assert payload["metadata"]["report"]["bound_ok"] is False


def test_atom_validate_reads_json_file(tmp_path, capsys):
    atom_file = tmp_path / "atom.json"
    atom_file.write_text(atom_to_json(signum_atom_at_scale(1, 1, 1)))
    status, out, _ = run_cli(
        capsys, "atom-validate", "--atom-json", str(atom_file),
        "--out", str(tmp_path),
    )
    assert status == 0
    assert out.strip() == "atom VALID (support True, bound True, mean True)"


@pytest.mark.parametrize("doc, message", [
    ({"n": 1, "m": 1, "cells": []}, "error: atom JSON has no key 'L'"),
    ([1, 1, 1], "error: atom JSON must be an object, not list"),
    ({"n": None, "m": 1, "L": 1, "cells": []}, "error: atom JSON 'n' must be an integer, not null"),
    ({"n": 1, "m": 1.5, "L": 1, "cells": []}, "error: atom JSON 'm' must be an integer, not 1.5"),
    ({"n": 1, "m": 1, "L": "1", "cells": []}, "error: atom JSON 'L' must be an integer, not \"1\""),
    ({"n": 1, "m": 1, "L": True, "cells": []}, "error: atom JSON 'L' must be an integer, not true"),
    # json writes and reads these as Infinity, -Infinity and NaN
    ({"n": 1, "m": 1, "L": 1, "cells": [{"box": [[-0.5, 0.5], [-0.5, 0.5]], "value": float("inf")}]},
     "error: cell values must be finite, got inf"),
    ({"n": 1, "m": 1, "L": 1, "cells": [{"box": [[-0.5, 0.5], [-0.5, 0.5]], "value": -float("inf")}]},
     "error: cell values must be finite, got -inf"),
    ({"n": 1, "m": 1, "L": 1, "cells": [{"box": [[-0.5, 0.5], [-0.5, 0.5]], "value": float("nan")}]},
     "error: cell values must be finite, got nan"),
    # the second cell's x interval runs backwards
    ({"n": 1, "m": 1, "L": 1, "cells": [{"box": [[-0.25, 0], [-0.25, 0.25]], "value": 0.25},
                                        {"box": [[0.25, 0], [-0.25, 0.25]], "value": 0.25}]},
     "error: cell intervals must be nonempty"),
    ({"n": 1, "m": 1, "L": 1, "cells": [{"box": [[-0.5, 0.5], [-0.5, 0.5]]}]},
     "error: atom JSON cells must be objects with a box and a value"),
])
def test_atom_validate_rejects_malformed_json_file(tmp_path, capsys, doc, message):
    atom_file = tmp_path / "atom.json"
    atom_file.write_text(json.dumps(doc))
    status, out, err = run_cli(
        capsys, "atom-validate", "--atom-json", str(atom_file),
        "--out", str(tmp_path),
    )
    assert status == 1
    assert out == ""
    assert err == message + "\n"


# ---------------------------------------------------------------------------
# scan experiments at reduced scale


def test_shells_too_small_a_window_fails_cleanly(tmp_path, capsys):
    # k_max 5 leaves three usable levels past the burn-in; the fit needs four
    status, out, _ = run_cli(
        capsys, "shells", "--k-max", "5", "--l-max", "2", "--jobs", "2",
        "--out", str(tmp_path),
    )
    assert status == 2
    assert "k-slope unavailable (k window too small for a fit)" in out
    assert out.strip().endswith("(FAIL)")
    _, payload = read_artifacts(tmp_path, "shells")
    assert payload["metadata"]["k_fit"] is None
    assert "only 3 usable k-levels" in payload["metadata"]["k_fit_error"]


def test_dilate_identity_holds_at_small_scale(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "dilate", "--payload", "indicator", "--deltas", "0.5,2",
        "--lams", "2", "--jobs", "2", "--out", str(tmp_path),
    )
    assert status == 0
    assert out.startswith("dilate: delta secant ")
    assert out.strip().endswith("(PASS)")
    _, payload = read_artifacts(tmp_path, "dilate")
    assert payload["metadata"]["unresolved_rows"] == 0
    assert abs(payload["metadata"]["delta_secant"]) < 1e-10


def test_counterexample_critical_masses_grow(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "counterexample", "--radii", "10,100", "--jobs", "2",
        "--out", str(tmp_path),
    )
    assert status == 0
    assert out.strip() == (
        "counterexample (critical): increasing True, decade fit ok True (PASS)"
    )


def test_counterexample_noncritical_masses_saturate(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "counterexample", "--alpha", "9/10", "--beta", "3/10",
        "--radii", "10,100,1000", "--jobs", "2", "--out", str(tmp_path),
    )
    assert status == 0
    assert out.startswith("counterexample (noncritical): last-decade increment fraction ")
    assert out.strip().endswith("(PASS)")
    _, payload = read_artifacts(tmp_path, "counterexample")
    assert payload["metadata"]["last_increment_fraction"] < 0.05


def test_frontier_two_by_two_is_diagonal(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "frontier", "--alphas", "1/2,9/10", "--betas", "1/2,3/10",
        "--jobs", "4", "--out", str(tmp_path),
    )
    assert status == 0
    assert out.strip() == (
        "frontier: 4 resolved cells, 0 unresolved, 0 off-diagonal (PASS)"
    )
    _, payload = read_artifacts(tmp_path, "frontier")
    echo = payload["metadata"]["run_config"]
    assert echo["alphas"] == ["1/2", "9/10"]
    assert echo["betas"] == ["1/2", "3/10"]


def test_hls_default_run_is_dominated(tmp_path, capsys):
    status, out, _ = run_cli(capsys, "hls", "--out", str(tmp_path))
    assert status == 0
    assert out.startswith("hls: left ")
    assert out.strip().endswith("(PASS)")
    csv_text, payload = read_artifacts(tmp_path, "hls")
    assert ",DOMINATED,\r\n" in csv_text
    report = payload["metadata"]["report"]
    assert report["a"] == "1/2" and report["b"] == "1/2"
    assert report["ok"] is True


# ---------------------------------------------------------------------------
# console script


def test_module_entry_point_runs_check(tmp_path):
    # the directory holding the imported package goes on PYTHONPATH as an
    # absolute path: a relative PYTHONPATH=src does not resolve from tmp_path
    import flagint

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(flagint.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "FLAGINT_SEED"}
    env["PYTHONPATH"] = src_dir
    proc = subprocess.run(
        [sys.executable, "-m", "flagint.cli", "check",
         "--alpha", "9/10", "--beta", "3/10", "--q", "2"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "formula-two: SATISFIED"
    assert (tmp_path / "check-0.csv").exists()


@pytest.mark.skipif(
    shutil.which("flagint") is None,
    reason="the flagint console script is not on PATH; "
    "install it with `pip install -e . --no-build-isolation`",
)
def test_console_script_runs_check(tmp_path):
    exe = shutil.which("flagint")
    assert exe is not None, "console script should be on PATH after install"
    env = {k: v for k, v in os.environ.items() if k != "FLAGINT_SEED"}
    proc = subprocess.run(
        [exe, "check", "--alpha", "9/10", "--beta", "3/10", "--q", "2"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "formula-two: SATISFIED"
    assert (tmp_path / "check-0.csv").exists()
