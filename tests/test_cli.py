import json
import os

import numpy as np
import pytest

from dirac_rescale.cli import CHOICES, DEFAULTS, ORDER, _build_parser, main


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
    assert lines[0] == "a,t,h1,h2,kappa,alpha,beta,kappa_q"
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_result_exit(tmp_path):
    # a finite but huge a overflows df_max = 2a - 1; nothing may be published
    out = tmp_path / "run"
    code = main(["rescale-info", "--a", "1e308", "--out", str(out)])
    assert code == 3
    assert os.listdir(out) == []


def _flag(key):
    return "--" + key.replace("_", "-")


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
                want = CHOICES.get(key, ["x"])[-1]
                argv = [_flag(key), want]
            value = getattr(parser.parse_args([sub, *argv]), key)
            assert value == want and type(value) is type(want), (sub, key)


@pytest.mark.parametrize("argv", [
    # gauge-check has no mass or c; with prefix matching off, "--c" is not read as --config
    ["gauge-check", "--mass", "2"], ["gauge-check", "--c", "3"],
])
def test_gauge_check_has_no_mass_or_c_flag(tmp_path, argv):
    try:
        code = main([*argv, "--out", str(tmp_path / "run")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["mass", "c"])
def test_gauge_check_config_has_no_mass_or_c(tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1.0}))
    out = tmp_path / "run"
    assert main(["gauge-check", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


_LOWER_BOUNDS = {
    "steps": 1, "n_times": 2, "grid_points": 3, "n_check": 2,
    "scan_points": 2, "period_steps": 1, "n_record": 1, "n_samples": 2,
}


@pytest.mark.parametrize("sub,key", [
    (sub, key) for sub, defaults in DEFAULTS.items() for key in _LOWER_BOUNDS if key in defaults
])
def test_integer_lower_bounds(tmp_path, sub, key):
    out = tmp_path / "run"
    assert main([sub, _flag(key), str(_LOWER_BOUNDS[key] - 1), "--out", str(out)]) == 2
    assert not out.exists()


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
def test_more_samples_than_steps_rejected(tmp_path, argv):
    # each sample is a distinct step index in [0, steps]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


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
    assert ORDER == 4
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
                                 n_times=9, n_steps=200, order=4)
        want += [[a, *row] for row in zip(curves.t, curves.f_initial, curves.f_final)]
    assert rows == want
