"""The public names the package exports, and the ones the benchmark tracer wraps."""

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
