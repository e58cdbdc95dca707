import argparse
import ast
import contextlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_rescale import cli
from dirac_rescale.cli import KEYS, SUBCOMMANDS, _build_parser, main

DEFAULTS = {name: defaults for name, (_, _, defaults) in SUBCOMMANDS.items()}


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_rescale_info_roundtrip(tmp_path):
    out = tmp_path / "run"
    code = main(["rescale-info", "--a", "2", "--tau", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["schema"] == 1
    assert summary["passed"] is True
    assert summary["config"]["a"] == [2.0]
    table = read(out / "rescaling.csv")
    assert table.splitlines()[0] == "a,t,f,df,d2f,d3f"


def test_config_error_bad_a(tmp_path):
    code = main(["iontrap", "--a", "0.5", "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "summary.json").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": [4.0], "n_samples": 11}))
    out = tmp_path / "run"
    code = main(["rescale-info", "--config", str(cfg), "--a", "2", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    # flag wins over file; file wins over default
    assert summary["config"]["a"] == [2.0]
    assert summary["config"]["n_samples"] == 11


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code = main(["rescale-info", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("content,err", [
    (None, "error: cannot read config file: "),
    ("{'a': [2.0]}", "error: config file is not valid JSON: "),
    ("[2.0]", "error: config file must hold a JSON object"),
], ids=["missing", "not_json", "array"])
def test_config_file_unusable(tmp_path, capsys, content, err):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "run"
    assert main(["rescale-info", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(err)


def test_config_file_null_scan_takes_the_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan": None}))
    out = tmp_path / "run"
    assert main(["floquet", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(read(out / "summary.json"))["config"]["scan"] == "phi_z"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_result_not_published(tmp_path, capsys, monkeypatch, value):
    # a value outside every table still fails the run: summary.json never holds NaN
    def runner(cfg, rfs):
        return {"tables": {"rescaling": (["a"], [(1.0,)])}, "results": {"bad": value},
                "checks": {}}

    monkeypatch.setitem(cli.SUBCOMMANDS, "rescale-info",
                        (runner, *cli.SUBCOMMANDS["rescale-info"][1:]))
    out = tmp_path / "run"
    assert main(["rescale-info", "--out", str(out)]) == 3
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("check failed: non-finite result (")


def test_iontrap_writes_long_format(tmp_path):
    out = tmp_path / "run"
    code = main([
        "iontrap", "--a", "1", "--a", "2", "--tau", "1", "--steps", "200",
        "--n-times", "5", "--grid-points", "17", "--out", str(out),
    ])
    assert code == 0
    lines = read(out / "fidelity.csv").splitlines()
    assert lines[0] == "t,F_i,F_f".replace("t,", "a,t,")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert set(data[:, 0]) == {1.0, 2.0}
    first = data[data[:, 0] == 2.0][0]
    assert first[2] == pytest.approx(1.0, abs=1e-10)  # F_i(0) = 1
    summary = json.loads(read(out / "summary.json"))
    assert summary["subcommand"] == "iontrap"


def test_iontrap_byte_identical_reruns(tmp_path):
    out = tmp_path / "run"
    args = ["iontrap", "--a", "2", "--steps", "150", "--n-times", "4",
            "--grid-points", "9", "--out", str(out)]
    assert main(args) == 0
    first = read(out / "fidelity.csv"), read(out / "summary.json")
    assert main(args) == 0
    second = read(out / "fidelity.csv"), read(out / "summary.json")
    assert first == second


def test_gauge_check_passes(tmp_path):
    out = tmp_path / "run"
    code = main(["gauge-check", "--a", "2", "--p", "0.3", "--steps", "2000", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    check = summary["checks"]["frame_equivalence"]
    assert check["passed"] is True
    assert check["value"] <= 1e-6
    assert (out / "gauge_deviations.csv").exists()


def test_gauge_check_tolerance_exit(tmp_path):
    out = tmp_path / "run"
    code = main(["gauge-check", "--a", "2", "--p", "0.3", "--steps", "500",
                 "--tol", "1e-30", "--out", str(out)])
    assert code == 3
    summary = json.loads(read(out / "summary.json"))
    assert summary["passed"] is False


@pytest.mark.parametrize("argv,check", [
    (["floquet", "--equivalence", "--steps", "200"], "floquet_equivalence"),
    (["appendix", "--steps", "200"], "trajectory_equivalence"),
])
def test_check_tolerance_exit(tmp_path, argv, check):
    # the library returns each check's deviation; the CLI judges it against --tol
    out = tmp_path / "run"
    assert main([*argv, "--tol", "1e-30", "--out", str(out)]) == 3
    summary = json.loads(read(out / "summary.json"))
    assert summary["passed"] is False
    assert summary["checks"][check]["passed"] is False


def test_floquet_scan_table(tmp_path):
    out = tmp_path / "run"
    code = main(["floquet", "--scan", "phi_z", "--scan-points", "5",
                 "--period-steps", "128", "--out", str(out)])
    assert code == 0
    lines = read(out / "quasienergies.csv").splitlines()
    assert lines[0] == "k,phi_y,phi_z,E1,E2"
    assert len(lines) == 6


def test_floquet_equivalence_report(tmp_path):
    out = tmp_path / "run"
    code = main(["floquet", "--equivalence", "--a", "4", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["checks"]["floquet_equivalence"]["value"] <= 1e-8
    assert "quasienergies.csv" not in os.listdir(out)


def test_appendix_classical_trajectory(tmp_path):
    out = tmp_path / "run"
    code = main(["appendix", "--mode", "classical", "--a", "2", "--steps", "2000",
                 "--potential", "harmonic", "--out", str(out)])
    assert code == 0
    files = os.listdir(out)
    assert any(name.startswith("trajectory_a2") for name in files)
    lines = read(out / "trajectory_a2.csv").splitlines()
    assert lines[0] == "t,x,p,xbar,pbar,deviation"
    summary = json.loads(read(out / "summary.json"))
    assert summary["checks"]["trajectory_equivalence"]["passed"] is True


def test_appendix_coeffs_table(tmp_path):
    out = tmp_path / "run"
    code = main(["appendix", "--mode", "coeffs", "--a", "1", "--n-record", "7",
                 "--out", str(out)])
    assert code == 0
    lines = read(out / "coefficients.csv").splitlines()
    assert lines[0] == "a,t,h1,h2,kappa,alpha,beta"
    row = [float(v) for v in lines[1].split(",")]
    assert row[2] == 1.0 and row[3] == 0.0 and row[4] == 0.0


def test_json_table_format(tmp_path):
    out = tmp_path / "run"
    code = main(["rescale-info", "--a", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(read(out / "rescaling.json"))
    assert isinstance(payload, list)
    assert set(payload[0]) == {"a", "t", "f", "df", "d2f", "d3f"}


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    code = main(["rescale-info", "--a", "2", "--out", str(blocker / "sub")])
    assert code == 4


@pytest.mark.parametrize("argv,blocker", [
    (["rescale-info"], "summary.json"),
    (["appendix", "--a", "2", "--a", "3", "--steps", "200"], "summary.json"),
    (["appendix", "--a", "2", "--a", "3", "--steps", "200"], "trajectory_a3.csv"),
])
def test_io_error_leaves_no_partial_set(tmp_path, capsys, argv, blocker):
    # a directory in the way of one artifact fails the run with exit 4, and
    # none of the run's files stays behind: no table, no temp file
    out = tmp_path / "run"
    (out / blocker).mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 4
    assert os.listdir(out) == [blocker]
    assert os.listdir(out / blocker) == []
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_no_partial_files_on_tolerance_failure(tmp_path):
    # even a failing check publishes the full artifact set (summary included)
    out = tmp_path / "run"
    code = main(["gauge-check", "--a", "2", "--p", "0.3", "--steps", "400",
                 "--tol", "1e-30", "--out", str(out)])
    assert code == 3
    names = sorted(os.listdir(out))
    assert names == ["gauge_deviations.csv", "summary.json"]
    assert not any(n.endswith(".tmp") for n in names)


@pytest.mark.parametrize("flags", [
    ["--a", "inf"], ["--a", "2", "--a=-inf"], ["--tau", "inf"], ["--tau", "nan"],
])
def test_config_error_non_finite_flag(tmp_path, flags):
    code = main(["rescale-info", *flags, "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("sub,text", [
    ("rescale-info", '{"a": [Infinity]}'),
    ("gauge-check", '{"p": [0.3, NaN]}'),
    ("appendix", '{"x0": -Infinity}'),
])
def test_config_error_non_finite_file(tmp_path, sub, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "run"
    code = main([sub, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("sub,text", [
    ("appendix", '{"steps": "9"}'),
    ("rescale-info", '{"a": ["x"]}'),
    ("rescale-info", '{"a": []}'),
    ("gauge-check", '{"p": [0.3, true]}'),
    ("appendix", '{"n_record": 2.5}'),
    ("floquet", '{"scan": "bogus"}'),
    ("floquet", '{"equivalence": "yes"}'),
    ("appendix", '{"steps": true}'),
    ("appendix", '{"x0": "1"}'),
    ("appendix", '{"potential": "bogus"}'),
    ("appendix", '{"mode": "bogus"}'),
    ("rescale-info", '{"format": "xml"}'),
    pytest.param("rescale-info", '{"tau": 1' + "0" * 400 + '}', id="rescale-info-tau-overflow"),
])
def test_config_error_file_type(tmp_path, sub, text):
    # a config-file value gets the type and choice checks its flag gets
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "run"
    code = main([sub, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_config_file_numbers_become_floats(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 2, "x0": 1, "potential": "harmonic", "steps": 200}))
    out = tmp_path / "run"
    assert main(["appendix", "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads(read(out / "summary.json"))["config"]
    assert config["a"] == [2.0] and isinstance(config["x0"], float)
    assert config["potential"] == "harmonic" and config["steps"] == 200


@pytest.mark.parametrize("argv,table", [
    (["appendix", "--mode", "coeffs", "--a", "3", "--mass", "1.3", "--n-record", "41"],
     "coefficients.csv"),
    (["rescale-info", "--a", "2", "--a", "5", "--n-samples", "41"], "rescaling.csv"),
])
def test_vectorised_tables_match_scalar_rows(tmp_path, argv, table):
    # one call per a on the whole grid gives the rows one call per t gave
    from dirac_rescale.classical import h1h2, kappa, quantum_coeffs
    from dirac_rescale.rescaling import RescalingFunction

    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    rows = [[float(v) for v in ln.split(",")] for ln in read(out / table).splitlines()[1:]]
    assert len(rows) == (41 if table == "coefficients.csv" else 82)
    for a, t, *values in rows:
        rf = RescalingFunction(a=a, tau=1.0)
        if table == "coefficients.csv":
            want = [*h1h2(rf, t, 1.3), kappa(rf, t, 1.3), *quantum_coeffs(rf, t)]
        else:
            want = [rf.f(t), rf.df(t), rf.d2f(t), rf.d3f(t)]
        assert values == want


def test_non_finite_result_exit(tmp_path):
    # a tiny horizon overflows the samples of d3f = (a-1) omega^2 cos(omega t);
    # nothing may be published
    out = tmp_path / "run"
    code = main(["rescale-info", "--a", "1e15", "--tau", "1e-290", "--out", str(out)])
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,value", [
    # d3f of the first row overflows already at a = 3
    (["rescale-info", "--a", "3", "--a", "1e15", "--tau", "1e-290"], "inf"),
    # d2f = inf * 0 comes before it at a = 1e15
    (["rescale-info", "--a", "1e15", "--tau", "1e-290"], "nan"),
], ids=["argv0", "argv1"])
def test_non_finite_table_not_published(tmp_path, capsys, argv, value, fmt):
    # a table with NaN or Infinity fails the run and leaves nothing behind,
    # not even the finite rows of an earlier a; both formats name the first
    # bad value in row order, with the same line
    out = tmp_path / "run"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == f"check failed: non-finite table value {value}\n"


@pytest.mark.parametrize("argv,code,err", [
    ("iontrap --sigma-p 1e160", 2, "error: p0 = 0.0, sigma_p = 1e+160"),
    ("iontrap --sigma-p 1e-300", 2, "error: p0 = 0.0, sigma_p = 1e-300"),
    ("rescale-info --a 1e300", 2, "error: rescaling fails boundary conditions"),
    ("rescale-info --a 1e200", 2, "error: rescaling fails boundary conditions"),
    ("appendix --x0 1e200", 3, "check failed: trajectory diverged"),
    ("appendix --tau 1e-300", 3, "check failed: trajectory diverged"),
])
def test_out_of_range_input_fails_without_numpy_warning(tmp_path, capsys, argv, code, err):
    # a finite input whose arithmetic leaves float range fails with one line
    # on stderr and publishes nothing; numpy does not warn on the way
    out = tmp_path / "run"
    assert main([*argv.split(), "--out", str(out)]) == code
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(err)


def test_library_warning_prints_one_line(tmp_path):
    # each warning is one 'warning:' line, with no source path or source line
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "dirac_rescale.cli", "iontrap", "--p0", "1",
                           "--out", "run"], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == ""
    assert proc.stderr == (
        "warning: grid contains modes within 1e-6 of the gap-closure momentum p = 1\n"
        "warning: mode sits on the gap-closure point (p = 1, t = tau); "
        "eigenstate direction is undefined there\n")


def test_warning_filtered_as_error_still_raises(tmp_path):
    # main prints warnings its own way but leaves the caller's filters in force
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="pumping period"):
            main(["floquet", "--Omega", "1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "gauge-check --p 1e300",
    "floquet --equivalence --V1 1e300",
    "floquet --J 1e300",
    "gauge-check --tau 1e-300 --steps 8 --n-check 2",
])
def test_huge_coefficients_blame_float_range(tmp_path, capsys, argv):
    # no step count helps once |d| * dt leaves float range, so the message
    # does not advise finer stepping
    out = tmp_path / "run"
    assert main([*argv.split(), "--out", str(out)]) == 3
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("check failed: unitarity defect nan")
    assert lines[0].endswith("the coefficients times the time step left float range")


def test_memory_error_is_config_error(tmp_path, capsys, monkeypatch):
    # a size too large to allocate fails with one line and exit 2, not a
    # traceback; the stand-in raises what numpy raises, allocating nothing
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setattr(cli, "fidelity_curves", too_large)
    out = tmp_path / "run"
    assert main(["iontrap", "--out", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: Unable to allocate 7.45 TiB for an array with shape (1000000, 1000000)"]


@pytest.mark.parametrize("argv", ["rescale-info --tau 1e-320",
                                  "appendix --mode coeffs --tau 1e-320"])
def test_subnormal_horizon_is_config_error(tmp_path, capsys, argv):
    # the message names tau and a, not a sample time, and --out is never made
    out = tmp_path / "run"
    assert main([*argv.split(), "--out", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: horizon tau/a = 1e-320/2.0 is too small: floats that small "
                     "are spaced wider than 1e-09 * tau/a"]


@pytest.mark.parametrize("argv,code", [
    # the f residuals are relative to tau, so one ulp of f(tau/a) = 1e6 passes
    ("rescale-info --tau 1e6 --a 3", 0),
    ("iontrap --tau 1e6 --a 3 --steps 32 --grid-points 9", 0),
    # df(0) = a - (a-1) rounds to 0 at a = 1e16
    ("rescale-info --a 1e16", 2),
    ("iontrap --a 1e16", 2),
])
def test_boundary_check_scales_with_tau_not_a(tmp_path, argv, code):
    assert main([*argv.split(), "--out", str(tmp_path / "run")]) == code


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_appendix_coeffs_overflow_is_config_error(tmp_path, capsys, fmt):
    # a finite but huge a fails the boundary check before any coefficient
    # is computed: exit 2, no numpy warning, no --out made
    out = tmp_path / "run"
    argv = ["appendix", "--mode", "coeffs", "--a", "1e300", "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert "boundary conditions" in capsys.readouterr().err


@pytest.mark.parametrize("argv,stage,err", [
    ("iontrap --a 1 --a 1e16", "fidelity_curves",
     "error: rescaling fails boundary conditions at a = 1e+16, tau = 1.0: "),
    ("floquet --a 1e16", "scan_quasienergies",
     "error: rescaling fails boundary conditions at a = 1e+16, tau = 50.0: "),
    ("iontrap --a 1 --a 0.5", "fidelity_curves", "error: a: must be >= 1, got 0.5"),
    ("gauge-check --tau 0", "gauge_equivalence_check", "error: tau: must be positive, got 0.0"),
    ("floquet --equivalence --T0 -1", "rescaled_floquet_equivalence",
     "error: T0: must be positive, got -1.0"),
    # WavepacketGrid.gaussian would refuse it too, but only inside the run
    ("iontrap --sigma-p 0", "fidelity_curves", "error: sigma_p: must be positive, got 0.0"),
], ids=["iontrap-a=1e16", "floquet-a=1e16", "iontrap-a=0.5", "gauge-check-tau=0",
        "floquet-T0=-1", "iontrap-sigma_p=0"])
def test_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, stage, err):
    # every bound and every a's rescaling is checked before --out exists and
    # before the first a's run starts
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{stage} ran before every rescaling was built")

    monkeypatch.setattr(cli, stage, forbidden)
    out = tmp_path / "run"
    assert main([*argv.split(), "--out", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(err)


def test_back_to_back_runs_match_lone_runs(tmp_path, monkeypatch):
    # the parser is built once per process; runs sharing it write what each
    # writes alone (relative --out, so summary.json echoes the same path)
    runs = [
        ["floquet", "--scan", "k", "--scan-points", "5", "--period-steps", "16"],
        ["gauge-check", "--steps", "16", "--n-check", "3", "--p", "0.2", "--tol", "1"],
        ["rescale-info", "--a", "3", "--format", "json", "--n-samples", "5"],
        ["floquet", "--scan", "phi_y", "--scan-points", "3", "--period-steps", "8",
         "--format", "json"],
        ["gauge-check", "--steps", "8", "--n-check", "2", "--a", "3", "--tol", "1"],
    ]
    for where in ("together", "alone"):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        for i, argv in enumerate(runs):
            if where == "alone":
                _build_parser.cache_clear()
            assert main([*argv, "--out", f"run{i}"]) == 0
    assert _build_parser() is _build_parser()
    for i in range(len(runs)):
        together, alone = tmp_path / "together" / f"run{i}", tmp_path / "alone" / f"run{i}"
        assert sorted(os.listdir(together)) == sorted(os.listdir(alone))
        for name in os.listdir(alone):
            assert read(together / name) == read(alone / name), (runs[i], name)


def _flag(key):
    return "--" + key.replace("_", "-")


def test_one_table_entry_per_subcommand():
    # the parser offers the table's subcommands in table order; each entry's
    # contracted duration is one of its own config keys, bounded positive; and
    # main names no subcommand, so a subcommand lives in its entry alone
    parser = _build_parser()
    choices = next(action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert list(choices) == list(SUBCOMMANDS)
    for name, (_, horizon, defaults) in SUBCOMMANDS.items():
        assert horizon in defaults and KEYS[horizon][0] == "positive", name
    constants = {node.value for node in ast.walk(ast.parse(inspect.getsource(main)))
                 if isinstance(node, ast.Constant)}
    assert not constants & set(SUBCOMMANDS)


def test_parser_flags_follow_defaults():
    # every DEFAULTS key is a flag --key-with-dashes of the kind its default implies
    parser = _build_parser()
    for sub, defaults in DEFAULTS.items():
        ns = vars(parser.parse_args([sub]))
        assert ns.pop("subcommand") == sub
        assert set(ns) == set(defaults) and all(v is None for v in ns.values())
        for key, default in defaults.items():
            if isinstance(default, bool):
                argv, want = [_flag(key)], True
            elif isinstance(default, list):
                argv, want = [_flag(key), "3", _flag(key), "1.5"], [3.0, 1.5]
            elif isinstance(default, (int, float)):
                argv, want = [_flag(key), "7"], type(default)(7)
            else:
                want = (_BOUNDS.get(key) or ["x"])[-1]
                argv = [_flag(key), want]
            value = getattr(parser.parse_args([sub, *argv]), key)
            assert value == want and type(value) is type(want), (sub, key)


@pytest.mark.parametrize("argv", [
    # gauge-check has no mass or c; with prefix matching off, "--c" is not read as --config
    ["gauge-check", "--mass", "2"], ["gauge-check", "--c", "3"],
    # floquet's pumping window is T0, so it has no tau; its run never reads ell
    ["floquet", "--tau", "2"], ["floquet", "--ell", "2"],
])
def test_gauge_check_has_no_mass_or_c_flag(tmp_path, argv):
    try:
        code = main([*argv, "--out", str(tmp_path / "run")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sub,key", [
    pytest.param("gauge-check", "mass", id="mass"),
    pytest.param("gauge-check", "c", id="c"),
    pytest.param("floquet", "tau", id="floquet-tau"),
    pytest.param("floquet", "ell", id="floquet-ell"),
])
def test_gauge_check_config_has_no_mass_or_c(tmp_path, sub, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 2}))
    out = tmp_path / "run"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


#: every bounded key; a is a float, so its edge below the bound is the float below 1
_BOUNDS = {**{key: bound for key, (bound, _) in KEYS.items() if bound is not None},
           "a": 1.0}


def test_keys_table_covers_every_bounded_key():
    # each KEYS entry belongs to some subcommand, every count has a minimum,
    # every string but a path has its choices, and each default is in bounds
    keys = {key for defaults in DEFAULTS.values() for key in defaults}
    assert set(KEYS) <= keys
    for defaults in DEFAULTS.values():
        for key, default in defaults.items():
            bound = _BOUNDS.get(key)
            if type(default) is int:
                assert type(bound) is int and default >= bound, key
            elif default is None or isinstance(default, str):
                assert key in ("out", "config") or (isinstance(bound, list)
                                                    and default in [None, *bound]), key
            elif bound == "positive":
                assert default > 0, key
            elif bound is not None:
                assert min(default) >= bound, key
    for bound, help_text in KEYS.values():
        assert bound is not None or help_text


@pytest.mark.parametrize("sub,key,source", [
    pytest.param(sub, key, source, id=f"{sub}-{key}{suffix}")
    for sub, defaults in DEFAULTS.items() for key in defaults
    if type(_BOUNDS.get(key)) is int
    for source, suffix in [("flag", ""), ("file", "-file")]
])
def test_integer_lower_bounds(tmp_path, capsys, sub, key, source):
    # the same line from a flag, or from a config file under a valid flag
    out = tmp_path / "run"
    bad = _BOUNDS[key] - 1
    if source == "flag":
        argv = [sub, _flag(key), str(bad)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: bad}))
        argv = [sub, _flag(key), str(DEFAULTS[sub][key]), "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {key}: must be >= {_BOUNDS[key]}, got {bad}\n"


@pytest.mark.parametrize("sub,key,value,extra", [
    ("rescale-info", "tau", 2.5, []),
    ("rescale-info", "n_samples", 7, []),
    ("gauge-check", "p", [0.3, -0.5], ["--steps", "300", "--tol", "1"]),
    ("appendix", "potential", "harmonic", ["--steps", "200"]),
    ("floquet", "equivalence", True, ["--steps", "3000", "--tol", "1"]),
], ids=["float", "int", "list", "choice", "bool"])
def test_flag_and_config_file_agree(tmp_path, sub, key, value, extra):
    # the same non-default value set by flag or by config file gives the same artifacts
    if isinstance(value, bool):
        flag = [_flag(key)]
    elif isinstance(value, list):
        flag = [tok for v in value for tok in (_flag(key), str(v))]
    else:
        flag = [_flag(key), str(value)]
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    runs = []
    for file_values, flags in [({}, flag), ({key: value}, [])]:
        cfg.write_text(json.dumps(file_values))
        assert main([sub, *flags, *extra, "--config", str(cfg), "--out", str(out)]) == 0
        runs.append({name: read(out / name) for name in sorted(os.listdir(out))})
    assert runs[0] == runs[1]
    assert json.loads(runs[0]["summary.json"])["config"][key] == value


#: (subcommand, config key, a bad file value, a valid file value, its flag, the
#: flag's echoed value)
_OVERRIDDEN = [
    pytest.param("iontrap", "steps", "abc", 64, ["--steps", "32"], 32, id="steps"),
    pytest.param("iontrap", "a", [], [3.0], ["--a", "2"], [2.0], id="a"),
    pytest.param("iontrap", "format", "xml", "csv", ["--format", "json"], "json", id="format"),
    pytest.param("iontrap", "steps", 0, 64, ["--steps", "32"], 32, id="steps-bound"),
    pytest.param("iontrap", "tau", math.nan, 2.0, ["--tau", "1"], 1.0, id="tau-nan"),
    pytest.param("iontrap", "sigma_p", -1.0, 0.1, ["--sigma-p", "0.05"], 0.05,
                 id="sigma_p-negative"),
    pytest.param("iontrap", "grid_points", 10**400, 9, ["--grid-points", "9"], 9,
                 id="grid_points-huge"),
    # bounds that RescalingFunction and WeylModelParams apply to the resolved value too
    pytest.param("iontrap", "a", [0], [3.0], ["--a", "2"], [2.0], id="a-bound"),
    pytest.param("iontrap", "tau", -1.0, 2.0, ["--tau", "1"], 1.0, id="tau-bound"),
    pytest.param("floquet", "Omega", -1.0, 3.0, ["--Omega", repr(2 * math.pi)], 2 * math.pi,
                 id="floquet-Omega-bound"),
]


@pytest.mark.parametrize("sub,key,bad,good,flag,echoed", _OVERRIDDEN)
def test_config_file_value_checked_under_its_flag(tmp_path, capsys, sub, key, bad, good, flag,
                                                  echoed):
    # a flag overrides the file's value, but a bad file value still fails the run
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    argv = [sub, *_SMALL_RUN[sub], *flag, "--config", str(cfg), "--out", str(out)]
    cfg.write_text(json.dumps({key: bad}))
    assert main(argv) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}: ")
    cfg.write_text(json.dumps({key: good}))
    assert main(argv) == 0
    assert json.loads(read(out / "summary.json"))["config"][key] == echoed


@pytest.mark.parametrize("argv,file_values,err", [
    ("iontrap --a 1 --a 1", None, "a: repeated value 1.0"),
    ("appendix --a 2 --a 3 --a 2.0", None, "a: repeated value 2.0"),
    ("rescale-info --a 2 --a 2", None, "a: repeated value 2.0"),
    ("gauge-check --p 0.3 --p -0.5 --p 0.3", None, "p: repeated value 0.3"),
    ("gauge-check --p 0 --p -0", None, "p: repeated value -0.0"),
    ("floquet --equivalence --a 3 --a 3", None, "a: repeated value 3.0"),
    ("appendix", {"a": [2, 2]}, "a: repeated value 2.0"),
    # a file value is checked also under the flag that overrides it
    ("iontrap --a 2", {"a": [4.0, 4]}, "a: repeated value 4.0"),
    ("gauge-check", {"p": [1, -1, 1.0]}, "p: repeated value 1.0"),
], ids=["iontrap-a", "appendix-a", "rescale-info-a", "gauge-check-p", "gauge-check-signed-zero",
        "floquet-a", "appendix-file-a", "iontrap-file-a-under-flag", "gauge-check-file-p"])
def test_repeated_list_value_refused(tmp_path, capsys, argv, file_values, err):
    # per-a results and files are keyed by the value, so a repeat would collapse them
    out = tmp_path / "run"
    config = []
    if file_values is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_values))
        config = ["--config", str(cfg)]
    assert main([*argv.split(), *config, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv,flag", [
    (["gauge-check", "--conf", "x"], "--conf"),
    (["iontrap", "--ste", "5"], "--ste"),
    (["floquet", "--equiv"], "--equiv"),
    (["rescale-info", "--n-sam", "5"], "--n-sam"),
])
def test_flag_prefix_is_not_matched(tmp_path, capsys, argv, flag):
    # a prefix of exactly one flag is an unknown flag, not that flag
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err
    assert not (tmp_path / "run").exists()


def test_sample_bound_applies_to_resolved_steps(tmp_path):
    # a file's steps under a --steps flag never runs, so only the flag's value
    # meets the n_times <= steps + 1 bound
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 10}))
    out = tmp_path / "run"
    argv = ["iontrap", "--grid-points", "9", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert main([*argv, "--steps", "256"]) == 0
    assert json.loads(read(out / "summary.json"))["config"]["steps"] == 256


def test_rescale_info_has_no_steps(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["rescale-info", "--steps", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert main(["rescale-info", "--out", str(out)]) == 0
    assert "steps" not in json.loads(read(out / "summary.json"))["config"]


@pytest.mark.parametrize("argv", [
    ["iontrap", "--steps", "4", "--n-times", "10"],
    ["iontrap", "--steps", "31", "--n-times", "33"],
    ["gauge-check", "--steps", "4", "--n-check", "10"],
    ["gauge-check", "--steps", "1", "--n-check", "3"],
])
def test_more_samples_than_steps_rejected(tmp_path, capsys, argv):
    # each sample is a distinct step index in [0, steps]; the library refuses the count
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(("error: n_times: ", "error: n_check: ")), lines


@pytest.mark.parametrize("argv,table,rows", [
    (["iontrap", "--a", "1", "--a", "2", "--steps", "4", "--n-times", "5",
      "--grid-points", "9"], "fidelity.csv", 10),
    (["gauge-check", "--p", "0.3", "--steps", "4", "--n-check", "5", "--tol", "1"],
     "gauge_deviations.csv", 5),
])
def test_one_sample_per_step_accepted(tmp_path, argv, table, rows):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    lines = read(out / table).splitlines()[1:]
    assert len(lines) == rows and len(set(lines)) == rows


@pytest.mark.parametrize("mode,mass", [("classical", "0"), ("coeffs", "0"), ("coeffs", "-1.5")])
def test_appendix_rejects_non_positive_mass(tmp_path, mode, mass):
    out = tmp_path / "run"
    assert main(["appendix", "--mode", mode, "--mass", mass, "--out", str(out)]) == 2
    assert not out.exists()


def test_propagating_defaults_use_cf4():
    steps = {"iontrap": 256, "gauge-check": 512, "floquet": 4000}
    for sub, n in steps.items():
        assert DEFAULTS[sub]["steps"] == n and "order" not in DEFAULTS[sub]
    assert DEFAULTS["floquet"]["period_steps"] == 256
    # samples land on equally spaced steps
    assert DEFAULTS["iontrap"]["steps"] % (DEFAULTS["iontrap"]["n_times"] - 1) == 0
    assert DEFAULTS["gauge-check"]["steps"] % (DEFAULTS["gauge-check"]["n_check"] - 1) == 0


def test_iontrap_matches_library_cf4(tmp_path):
    from dirac_rescale.iontrap import IonTrapModel, WavepacketGrid, fidelity_curves
    from dirac_rescale.rescaling import RescalingFunction

    out = tmp_path / "run"
    assert main(["iontrap", "--steps", "200", "--a", "1", "--a", "3",
                 "--grid-points", "17", "--n-times", "9", "--out", str(out)]) == 0
    rows = [[float(v) for v in ln.split(",")] for ln in read(out / "fidelity.csv").splitlines()[1:]]
    grid = WavepacketGrid.gaussian(n_points=17)
    want = []
    for a in (1.0, 3.0):
        curves = fidelity_curves(IonTrapModel(tau=1.0), RescalingFunction(a=a, tau=1.0), grid,
                                 n_times=9, n_steps=200)
        want += [[a, *row] for row in zip(curves.t, curves.f_initial, curves.f_final)]
    assert rows == want


#: edge values for the numeric keys, each passed as --key=value (so "-1e300" is a value)
_EDGE_VALUES = ["0", "1", "-1", "1e-320", "1e-300", "1e300", "-1e300", "1e160"]

#: step and sample counts that keep each fuzzed run to milliseconds
_SMALL_RUN = {
    "iontrap": ["--steps=4", "--n-times=3", "--grid-points=5"],
    "gauge-check": ["--steps=4", "--n-check=3"],
    "floquet": ["--steps=8", "--period-steps=4", "--scan-points=3"],
    "appendix": ["--steps=20", "--n-record=5"],
    "rescale-info": ["--n-samples=5"],
}

#: the library's own warnings; any other warning fails the property
_LIBRARY_WARNINGS = ["pumping period", "grid contains modes", "mode sits on the gap-closure"]


def _bound_edges(key):
    """(value, refused) at the key's numeric bound and one step past it.  A
    positive key's smallest float passes the bound, but the run may still be
    refused later, so it is marked None."""
    bound = _BOUNDS.get(key)
    if bound == "positive":
        return [(0.0, True), (5e-324, None)]
    if type(bound) is int:
        return [(bound - 1, True), (bound, False)]
    if isinstance(bound, float):
        return [(math.nextafter(bound, 0.0), True), (bound, False)]
    return []


@st.composite
def _edge_flags(draw, sub):
    options = {}
    for key, default in DEFAULTS[sub].items():
        bound = _BOUNDS.get(key)
        if isinstance(bound, list):
            options[key] = [f"={v}" for v in bound]
        elif isinstance(default, bool):
            options[key] = [""]
        elif isinstance(default, (float, list)):
            options[key] = [f"={v}" for v in _EDGE_VALUES + [v for v, _ in _bound_edges(key)]]
    keys = draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=3, unique=True))
    return [_flag(k) + draw(st.sampled_from(options[k])) for k in keys]


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


#: wall-time bound of one fuzzed run, so that a hang fails instead of passing
_RUN_SECONDS = 20.0


@contextlib.contextmanager
def _wall_time_bound(seconds):
    def expire(signum, frame):
        pytest.fail(f"run took over {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_wall_time_bound_stops_a_hang():
    with pytest.raises(pytest.fail.Exception, match="run took over"):
        with _wall_time_bound(0.05):
            time.sleep(5)


def _run_all_or_nothing(argv, config_text=None):
    """Exit code of one run, checked to be 0, 2 or 3 within the wall-time
    bound, with either a strictly finite artifact set whose verdict matches
    the exit code, or no file at all."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for message in _LIBRARY_WARNINGS:
            warnings.filterwarnings("ignore", message=message)
        if config_text is not None:
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(config_text)
            argv = [*argv, f"--config={config}"]
        out = os.path.join(tmp, "run")
        with _wall_time_bound(_RUN_SECONDS):
            code = main([*argv, f"--out={out}"])
        assert code in (0, 2, 3), argv
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if "summary.json" not in names:
            assert names == [], argv
            return code
        summary = json.loads(read(os.path.join(out, "summary.json")),
                             parse_constant=_reject_constant)
        assert summary["passed"] is (code == 0), argv
        for name in names:
            text = read(os.path.join(out, name))
            if name.endswith(".json"):
                json.loads(text, parse_constant=_reject_constant)
            else:
                assert name.endswith(".csv"), name
                cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
                assert all(math.isfinite(float(c)) for c in cells), (argv, name)
    return code


@pytest.mark.parametrize("sub", sorted(DEFAULTS))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_edge_values_publish_all_or_nothing(sub, data):
    # every run ends in 0, 2 or 3, and either publishes a strictly finite
    # artifact set whose verdict matches the exit code, or no file at all
    _run_all_or_nothing([sub, *_SMALL_RUN[sub], *data.draw(_edge_flags(sub))])


#: config-file values as JSON text: ints for float keys, wrong types, a
#: float literal that parses to inf and an int beyond float range
_FILE_VALUES = ["0", "2", "-1", "true", "null", '"x"', "[]", '[1, "x"]', "1e999", str(10**400)]

#: values that no key accepts, so a file holding one always exits 2
_FILE_REJECTED = {"[]", '[1, "x"]', "1e999", str(10**400)}


def _small_run_values(sub):
    """_SMALL_RUN's counts as config-file values: {key: JSON text}."""
    pairs = (arg[2:].split("=") for arg in _SMALL_RUN[sub])
    return {key.replace("-", "_"): value for key, value in pairs}


@st.composite
def _edge_file(draw, sub):
    # --out and --config are flags, which would override the file's values
    keys = sorted(set(DEFAULTS[sub]) - {"out", "config"})
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    def pool(key):
        bound = _BOUNDS.get(key)
        edges = bound if isinstance(bound, list) else [v for v, _ in _bound_edges(key)]
        return _FILE_VALUES + [json.dumps(v) for v in edges]

    return {key: draw(st.sampled_from(pool(key))) for key in chosen}


@pytest.mark.parametrize("sub", sorted(DEFAULTS))
@settings(max_examples=16, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_file_edge_values_publish_all_or_nothing(sub, data):
    # the file holds the small run's counts, and the drawn values override them
    drawn = data.draw(_edge_file(sub))
    values = {**_small_run_values(sub), **drawn}
    text = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in values.items()) + "}"
    code = _run_all_or_nothing([sub], text)
    if _FILE_REJECTED & set(drawn.values()):
        assert code == 2, text


def _integer_edges():
    """(argv, the key, whether it must be refused) for each bounded number at
    and past its bound, and for sample counts at and past steps + 1."""
    # one step holds at most two samples
    fewer = {"iontrap": ["--n-times=2"], "gauge-check": ["--n-check=2"]}
    for sub in sorted(DEFAULTS):
        for key in DEFAULTS[sub]:
            extra = fewer.get(sub, []) if key == "steps" else []
            for value, refused in _bound_edges(key):
                yield pytest.param([sub, *_SMALL_RUN[sub], *extra, f"{_flag(key)}={value}"],
                                   key, refused, id=f"{sub}-{key}={value}")
    for sub, key in (("iontrap", "n_times"), ("gauge-check", "n_check")):
        steps = int(_small_run_values(sub)["steps"])
        for value, refused in ((steps + 1, False), (steps + 2, True)):
            yield pytest.param([sub, *_SMALL_RUN[sub], f"{_flag(key)}={value}"],
                               key, refused, id=f"{sub}-{key}=steps+{value - steps}")


@pytest.mark.parametrize("argv,key,refused", _integer_edges())
def test_integer_edges_publish_all_or_nothing(capsys, argv, key, refused):
    # past a bound, or more samples than step indices, is a config error that
    # names the key; at the bound the run goes ahead (its check may still
    # fail, exit 3).  The smallest positive float passes the bound but may be
    # refused by the library after it, with a message about something else.
    code = _run_all_or_nothing(argv)
    err = capsys.readouterr().err
    if refused is None:
        assert not err.startswith(f"error: {key}: must be positive"), (argv, err)
    else:
        assert (code == 2) is refused, (argv, code)
        assert err.startswith(f"error: {key}: ") is refused, (argv, err)
