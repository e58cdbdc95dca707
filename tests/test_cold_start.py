"""Cold start: the package imports only numpy at run time, the CLI and the
perturbative pair run without scipy, and a fresh process writes the same
bytes as a run inside this (scipy-loaded) test process.

The fresh interpreters are started once per module and shared by the tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special  # noqa: F401  (loaded in this process, absent in the fresh one)

import dirac_rescale
from dirac_rescale.cli import main
from dirac_rescale.floquet import WeylModelParams, perturbative_floquet

# one small argv per subcommand that exits 0 (smaller floquet/appendix step
# counts fail their own checks)
RUNS = [
    ["iontrap", "--steps", "32", "--grid-points", "9"],
    ["floquet", "--equivalence", "--scan", "phi_z", "--scan-points", "5",
     "--period-steps", "16", "--steps", "512"],
    ["gauge-check", "--steps", "32", "--n-check", "3"],
    ["appendix", "--steps", "100"],
    ["rescale-info", "--a", "3"],
]

# python -m dirac_rescale.cli runs sys.exit(main()), so calling main in a fresh
# interpreter is the CLI's cold path; relative --out keeps the echoed path equal
_FRESH = """
import json, sys
import dirac_rescale.cli as cli

runs = json.loads(sys.argv[1])
codes = [cli.main([*argv, "--out", f"run{i}"]) for i, argv in enumerate(runs)]
scipy_after_cli = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from dirac_rescale.floquet import WeylModelParams, perturbative_floquet

u = perturbative_floquet(WeylModelParams())
print(json.dumps({
    "codes": codes,
    "scipy_after_cli": scipy_after_cli,
    "perturbative": [[z.real.hex(), z.imag.hex()] for z in u.ravel().tolist()],
    "scipy_after_calls": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def _env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirac_rescale.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _read_tree(root):
    return {name: (root / name).read_bytes() for name in sorted(os.listdir(root))}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Artifacts and report of the five runs in one fresh interpreter, plus
    one ``python -m dirac_rescale.cli`` run of the last argv."""
    where = tmp_path_factory.mktemp("fresh")
    proc = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(RUNS)], cwd=where,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    module_run = subprocess.run([sys.executable, "-m", "dirac_rescale.cli", *RUNS[-1],
                                 "--out", "run_m"], cwd=where, env=_env(),
                                capture_output=True, text=True, timeout=60)
    assert module_run.returncode == 0, module_run.stderr
    return where, report


def test_cli_cold_path_loads_no_scipy(fresh):
    _, report = fresh
    assert report["codes"] == [0] * len(RUNS)
    assert report["scipy_after_cli"] == []


def test_perturbative_floquet_loads_no_scipy(fresh):
    _, report = fresh
    # J_0 is the drive-period mean perturbative_floquet computes with numpy
    assert report["scipy_after_calls"] == []
    u = np.array([complex(float.fromhex(re), float.fromhex(im))
                  for re, im in report["perturbative"]]).reshape(2, 2)
    assert np.array_equal(u, perturbative_floquet(WeylModelParams()))


def test_src_imports_only_numpy_stdlib_and_itself():
    # every import counts, also one inside a function body
    allowed = set(sys.stdlib_module_names) | {"numpy", "dirac_rescale"}
    found = set()
    for path in sorted(Path(dirac_rescale.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert found and sorted(f for f in found if f[1] not in allowed) == []


def test_fresh_process_matches_in_process(fresh, tmp_path, monkeypatch):
    # import order (scipy loaded here, absent there) changes no arithmetic
    where, _ = fresh
    monkeypatch.chdir(tmp_path)
    for i, argv in enumerate(RUNS):
        assert main([*argv, "--out", f"run{i}"]) == 0
        assert _read_tree(where / f"run{i}") == _read_tree(tmp_path / f"run{i}"), argv
    assert main([*RUNS[-1], "--out", "run_m"]) == 0
    assert _read_tree(where / "run_m") == _read_tree(tmp_path / "run_m")
