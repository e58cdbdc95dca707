"""The public names the package exports, the ones the benchmark tracer wraps, and the fields code reads."""

import ast
import importlib
import inspect
import pathlib
import sys
import types

import pytest

import dirac_rescale
import dirac_rescale.rescaling

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("rescaling", "propagator", "gauge", "iontrap", "floquet", "classical", "cli")


@pytest.mark.parametrize("module", ["dirac_rescale"] + [f"dirac_rescale.{m}" for m in MODULES])
def test_star_import_resolves_every_name(module):
    # a name left in __all__ after its definition is deleted fails here
    exec(f"from {module} import *", {})


def test_package_exports_exactly_the_library_modules_all():
    # each module's __all__ is the one list of its public names: the package
    # re-exports all of them and nothing else (the CLI exports only main)
    library = [importlib.import_module(f"dirac_rescale.{m}") for m in MODULES if m != "cli"]
    exported = {name for name, value in vars(dirac_rescale).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name for module in library for name in module.__all__}


def test_one_stepper_without_an_order_knob():
    # CF4 is the only propagator step: no public callable selects a stepper,
    # and the propagator keeps no table of them
    for m in MODULES[:-1]:
        module = importlib.import_module(f"dirac_rescale.{m}")
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert "order" not in inspect.signature(obj).parameters, f"{m}.{name}"
    assert not hasattr(importlib.import_module("dirac_rescale.propagator"), "_STEPPERS")


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
    # a RescalingFunction checks its boundary conditions when it is built and
    # keeps the residuals, so no other layer checks them again: rescaling
    # defines no other public checker, the CLI reports rf.residuals, the
    # package re-exports the function through rescaling's __all__, and the
    # propagator does not depend on the rescaling at all
    assert dirac_rescale.check_boundary is dirac_rescale.rescaling.check_boundary
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
            # a star import names nothing; the package's is checked by identity above
            imported = ([a.name for a in node.names if a.name != "*"]
                        if isinstance(node, ast.ImportFrom) else [])
            if "check_boundary" in (ident, *imported):
                referrers.add(path.name)
            if isinstance(node, ast.ImportFrom) and "rescaling" in (node.module, *imported):
                assert path.name != "propagator.py", "propagator imports the rescaling"
                imported_from_rescaling.update(imported)
    assert referrers == {"rescaling.py"}
    assert imported_from_rescaling == {"BOUNDARY_TOL", "RescalingFunction"}


def test_every_dataclass_field_is_read():
    # a field that no code in src/ reads as an attribute is an input nothing
    # uses; a check in __post_init__ through getattr does not count as a read
    fields, read = set(), set()
    for path in sorted((ROOT / "src" / "dirac_rescale").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields.update((node.name, item.target.id) for item in node.body
                              if isinstance(item, ast.AnnAssign))
    assert fields
    assert sorted(f"{cls}.{name}" for cls, name in fields if name not in read) == []
