"""Golden CLI artifacts: each committed case must reproduce byte for byte.

A case is one directory under ``tests/golden/``:

- ``argv.json``: the arguments, to which ``--out run`` is appended;
- ``exit_code``, ``stdout``, ``stderr``: what the run returned and printed;
- ``files/``: every file the run wrote, at its path under the working directory;
- ``input/`` (optional): files copied into the working directory first, such as
  a config file that ``argv.json`` names.

Each case runs through ``cli.main`` in process, in an empty working directory,
with ``COLUMNS=80`` and warnings printed as a fresh interpreter prints them.

After a change that moves the arithmetic, regenerate every case with
``python tests/test_golden.py --write``. It prints, per file and per CSV
column, the largest absolute and relative change against the committed bytes.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # as a script, without pytest's pythonpath
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dirac_rescale import cli  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def run_case(case: Path, workdir: Path) -> dict[str, bytes]:
    """Run a case in ``workdir``, the current directory; return what it produced by name.

    ``exit_code``, ``stdout`` and ``stderr`` name the run's return; ``files/<path>``
    names each file left under ``workdir`` that is not an input.
    """
    inputs = case / "input"
    if inputs.is_dir():
        shutil.copytree(inputs, workdir, dirs_exist_ok=True)
    argv = json.loads((case / "argv.json").read_text(encoding="utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # as a fresh interpreter does, not as pytest's filterwarnings setting does
        warnings.simplefilter("default")
        try:
            code = cli.main(argv + ["--out", "run"])
        except SystemExit as exc:  # --help
            code = exc.code
    produced = {"exit_code": f"{code}\n".encode(), "stdout": out.getvalue().encode(),
                "stderr": err.getvalue().encode()}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir)
        if path.is_file() and not (inputs / rel).is_file():
            produced[f"files/{rel.as_posix()}"] = path.read_bytes()
    return produced


def committed(case: Path) -> dict[str, bytes]:
    """A case's committed outputs, named as ``run_case`` names them."""
    names = ["exit_code", "stdout", "stderr"]
    if (case / "files").is_dir():
        names += sorted(p.relative_to(case).as_posix()
                        for p in (case / "files").rglob("*") if p.is_file())
    return {name: (case / name).read_bytes() for name in names}


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    produced = run_case(GOLDEN / name, tmp_path)
    expected = committed(GOLDEN / name)
    assert sorted(produced) == sorted(expected)
    for key, data in expected.items():
        assert produced[key] == data, f"{name}/{key} differs"


def _numbers(data: bytes, name: str) -> dict[str, np.ndarray] | None:
    """The numbers of a file, by CSV column or one group per JSON file; None for text."""
    text = data.decode()
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        return dict(zip(header.split(","), table.T))
    if name.endswith(".json"):
        leaves = []

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                leaves.append(float(node))

        walk(json.loads(text))
        return {"(numbers)": np.array(leaves)}
    return None


def report(name: str, old: bytes | None, new: bytes | None) -> list[str]:
    """Lines naming how one output moved: its largest absolute and relative change."""
    if old == new:
        return []
    if old is None or new is None:
        return [f"{name}: {'added' if old is None else 'removed'}"]
    before, after = _numbers(old, name), _numbers(new, name)
    if before is None or after is None or before.keys() != after.keys() or any(
            before[k].shape != after[k].shape for k in before):
        return [f"{name}: changed (not comparable by number)"]
    lines = []
    for key in before:
        if np.array_equal(after[key], before[key]):
            continue
        diff = np.abs(after[key] - before[key])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(diff > 0, diff / np.abs(before[key]), 0.0)
        lines.append(f"{name} {key}: max abs {diff.max():.3g}, max rel {rel.max():.3g}")
    return lines or [f"{name}: changed text, same numbers"]


def write_all() -> None:
    """Rerun every case, replace its committed outputs, and print what moved."""
    os.environ["COLUMNS"] = "80"
    home = os.getcwd()
    for name in CASES:
        case = GOLDEN / name
        old = committed(case) if (case / "exit_code").exists() else {}
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                new = run_case(case, Path(tmp))
            finally:
                os.chdir(home)
        for key in sorted(set(old) | set(new)):
            for line in report(f"{name}/{key}", old.get(key), new.get(key)):
                print(line)
        shutil.rmtree(case / "files", ignore_errors=True)
        for key, data in new.items():
            (case / key).parent.mkdir(parents=True, exist_ok=True)
            (case / key).write_bytes(data)
    print(f"{len(CASES)} cases written")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    write_all()
