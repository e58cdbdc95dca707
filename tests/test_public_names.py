"""The public names the package exports, and the ones the benchmark tracer wraps."""

import ast
import importlib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("rescaling", "propagator", "gauge", "iontrap", "floquet", "classical", "cli")


@pytest.mark.parametrize("module", ["dirac_rescale"] + [f"dirac_rescale.{m}" for m in MODULES])
def test_star_import_resolves_every_name(module):
    # a name left in __all__ (or in the package's imports) after its
    # definition is deleted fails here
    exec(f"from {module} import *", {})


def test_tracer_targets_resolve(monkeypatch):
    # perfbench/tracer.py wraps these names by import path; deleting or
    # renaming one breaks the benchmark, so it must be retargeted first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing there
    tracer = importlib.import_module("tracer")
    patches = tracer.Tracer()._build_patches()  # raises on a name that does not resolve
    # each entry wraps its own object
    assert len({id(original) for _, _, original, _ in patches}) == len(tracer.TARGETS)


def test_boundary_check_stays_inside_the_rescaling():
    # a RescalingFunction checks its boundary conditions when it is built, so
    # no other layer checks them again: rescaling defines no other public
    # checker, the CLI only reports the residuals, the package re-exports the
    # function, and the propagator does not depend on the rescaling at all
    referrers, imported_from_rescaling = set(), set()
    for path in sorted((ROOT / "src" / "dirac_rescale").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "rescaling.py":
            public = {node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_")}
            assert public == {"RescalingFunction", "check_boundary"}
        for node in ast.walk(tree):
            ident = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            imported = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if "check_boundary" in (ident, *imported):
                referrers.add(path.name)
            if isinstance(node, ast.ImportFrom) and "rescaling" in (node.module, *imported):
                assert path.name != "propagator.py", "propagator imports the rescaling"
                imported_from_rescaling.update(imported)
    assert referrers == {"__init__.py", "rescaling.py", "cli.py"}
    assert imported_from_rescaling == {"BOUNDARY_TOL", "RescalingFunction", "check_boundary"}
