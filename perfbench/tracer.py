"""Spans and work counts at the package's layer boundaries, from outside it.

``Tracer.install`` replaces each public name listed in TARGETS with a
wrapper, in every package module that holds it, so calls between modules
go through the wrapper.  Each call appends one span (name, start, end,
parent span, op id) to flat in-memory arrays, and counts of work done are
derived from argument shapes at the same boundary.  A span's self time is
its duration minus the time its child spans cover; a layer's self time is
the sum over its spans.  The layer of a span is the first part of its name.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "dirac_rescale"
MODULES = ("rescaling", "propagator", "gauge", "iontrap", "floquet", "classical", "cli")

#: computed bytes per SU(2) step: four float64 coefficients read, one complex 2x2 written
SU2_BYTES = 4 * 8 + 4 * 16
#: computed bytes per 2x2 complex matmul: two operands read, one product written
MATMUL_BYTES = 3 * 4 * 16


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs):
    # bound methods f(self, t) and coeffs(self, t)
    return np.size(_arg(args, kwargs, 1, "t"))


def _su2_elems(args, kwargs):
    return np.prod(np.broadcast_shapes(*(np.shape(v) for v in args[:4])), dtype=np.int64)


def _matmuls(args, kwargs):
    # a pairwise reduction of n matrices takes n - 1 products per batch element
    shape = np.shape(args[0])
    return (shape[0] - 1) * np.prod(shape[1:-2], dtype=np.int64)


def _rk4_steps(args, kwargs):
    return _arg(args, kwargs, 5, "n_steps")


# (module, public name, span name, (count name, count from args) or None)
TARGETS = (
    ("rescaling", "RescalingFunction.f", "rescaling.f", ("rescaling.points", _points)),
    ("rescaling", "RescalingFunction.df", "rescaling.df", ("rescaling.points", _points)),
    ("rescaling", "RescalingFunction.d2f", "rescaling.d2f", ("rescaling.points", _points)),
    ("rescaling", "RescalingFunction.d3f", "rescaling.d3f", ("rescaling.points", _points)),
    ("rescaling", "check_boundary", "rescaling.check_boundary", None),
    ("propagator", "PauliHamiltonian.coeffs", "propagator.coeffs",
     ("propagator.coeffs.points", _points)),
    ("propagator", "su2_exponential", "propagator.su2", ("propagator.su2.elems", _su2_elems)),
    ("propagator", "_ordered_product", "propagator.product",
     ("propagator.product.matmuls", _matmuls)),
    ("propagator", "evolve_states", "propagator.evolve", None),
    ("propagator", "propagate", "propagator.propagate", None),
    ("propagator", "propagate_sampled", "propagator.propagate", None),
    ("propagator", "unitarity_defect", "propagator.unitarity", None),
    ("gauge", "phi_dot", "gauge.phi_dot", None),
    ("gauge", "gauge_equivalence_check", "gauge.equivalence_check", None),
    ("iontrap", "instantaneous_eigenstate", "iontrap.eigenstate", None),
    ("iontrap", "fidelity_curves", "iontrap.fidelity_curves", None),
    ("floquet", "quasienergies", "floquet.quasienergies", None),
    ("floquet", "floquet_operator", "floquet.operator", None),
    ("floquet", "rescaled_floquet_equivalence", "floquet.equivalence", None),
    ("classical", "evolve_classical", "classical.evolve", ("classical.rk4_steps", _rk4_steps)),
    ("classical", "kappa", "classical.coeff", None),
    ("classical", "h1h2", "classical.coeff", None),
    ("classical", "canonical_map", "classical.coeff", None),
    ("classical", "appendix_equivalence_check", "classical.equivalence_check", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans and counts over the ops run while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack = [-1]
        self._patches = None

    def _wrap(self, fn, span_name, counter):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter[0]] += int(counter[1](args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _build_patches(self) -> list[tuple]:
        """(holder, attribute, original, wrapper) for every TARGETS name."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        patches = []
        for module_name, public, span_name, counter in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in public:
                cls_name, attr = public.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original, self._wrap(original, span_name, counter)))
                continue
            original = getattr(home, public)
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original, wrapper))
        return patches

    def install(self):
        """Wrap every TARGETS name in every package module that holds it."""
        if self._patches is None:
            self._patches = self._build_patches()
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        """Put the original names back; spans stop until the next install."""
        for holder, attr, original, _ in self._patches or ():
            setattr(holder, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "op": np.frombuffer(self.op, dtype=np.intc),
        }

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op calls, counts and self times by span name and by layer."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, spans["parent"][nested], dur[nested])
        n = len(self.names)
        calls = np.bincount(spans["name"], minlength=n)
        self_s = np.bincount(spans["name"], weights=dur - covered, minlength=n)

        def total_calls(*names):
            return sum(int(calls[self._ids[x]]) for x in names if x in self._ids)

        def total_self(prefix):
            return float(sum(self_s[i] for i, x in enumerate(self.names)
                             if x == prefix or x.startswith(prefix + ".")))

        def count(name):
            return self.counts.get(name, 0)

        total = {
            "rescaling.calls": total_calls("rescaling.f", "rescaling.df",
                                           "rescaling.d2f", "rescaling.d3f"),
            "rescaling.points": count("rescaling.points"),
            "rescaling.self_s": total_self("rescaling"),
            "rescaling.check_boundary.calls": total_calls("rescaling.check_boundary"),
            "propagator.coeffs.calls": total_calls("propagator.coeffs"),
            "propagator.coeffs.points": count("propagator.coeffs.points"),
            "propagator.coeffs.self_s": total_self("propagator.coeffs"),
            "propagator.su2.elems": count("propagator.su2.elems"),
            "propagator.su2.bytes": count("propagator.su2.elems") * SU2_BYTES,
            "propagator.su2.self_s": total_self("propagator.su2"),
            "propagator.product.matmuls": count("propagator.product.matmuls"),
            "propagator.product.bytes": count("propagator.product.matmuls") * MATMUL_BYTES,
            "propagator.product.self_s": total_self("propagator.product"),
            "propagator.evolve.self_s": total_self("propagator.evolve"),
            "propagator.propagate.calls": total_calls("propagator.propagate"),
            "propagator.propagate.self_s": total_self("propagator.propagate"),
            "propagator.unitarity.calls": total_calls("propagator.unitarity"),
            "propagator.unitarity.self_s": total_self("propagator.unitarity"),
            "propagator.self_s": total_self("propagator"),
            "gauge.phi_dot.calls": total_calls("gauge.phi_dot"),
            "gauge.self_s": total_self("gauge"),
            "iontrap.eigenstate.calls": total_calls("iontrap.eigenstate"),
            "iontrap.self_s": total_self("iontrap"),
            "floquet.quasienergies.calls": total_calls("floquet.quasienergies"),
            "floquet.self_s": total_self("floquet"),
            "classical.rk4_steps": count("classical.rk4_steps"),
            "classical.coeff.calls": total_calls("classical.coeff"),
            "classical.evolve.self_s": total_self("classical.evolve"),
            "classical.self_s": total_self("classical"),
            "cli.self_s": total_self("cli"),
        }
        return {k: v / n_ops for k, v in total.items()}
