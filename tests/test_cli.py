import json
import os

import numpy as np
import pytest

from dirac_rescale.cli import main


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
