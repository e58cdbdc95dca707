"""Experiment runner: wires flags/config files to the library and writes artifacts.

Every run produces a versioned JSON summary (echoing the fully resolved
configuration) plus plot-ready tables of float columns, written as ``%.17g``
in CSV and as numbers in JSON; a NaN or Infinity in a table fails either
format with one message.  A runner only computes; ``main`` creates ``--out``
and writes every artifact once the run has finished, or none of them.
Output is deterministic: no RNG and fixed-order reductions, so repeated
runs are byte-identical.

Exit codes: 0 ok, 2 configuration error (including any non-finite value and
a size too large to allocate), 3 a built-in check exceeded its tolerance or
a result is not finite, 4 I/O failure (which leaves none of the run's files).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

from .classical import (
    appendix_equivalence_check,
    h1h2,
    harmonic_model,
    kappa,
    quantum_coeffs,
    quartic_model,
)
from .floquet import (
    WeylModelParams,
    build_pumping_h,
    rescaled_floquet_equivalence,
    scan_quasienergies,
)
from .gauge import gauge_equivalence_check
from .iontrap import IonTrapModel, WavepacketGrid, build_demo_hamiltonian, fidelity_curves
from .rescaling import BOUNDARY_TOL, RescalingFunction

__all__ = ["main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_IO = 4


_FLOAT = "%.17g"


def _fmt(x) -> str:
    return _FLOAT % float(x)


#: each key's bound and flag help, for every subcommand that has the key.  The
#: bound is the list of allowed strings, the smallest allowed number, or
#: "positive"; None is neither.  A key with no bound and no help has no entry.
#: RescalingFunction and WeylModelParams refuse a < 1, tau <= 0 and Omega <= 0
#: too, but they see only the resolved value, not a file value under a flag.
#: floquet rescales T0, which is bounded here so that its message names T0.
KEYS = {
    "a": (1, "contraction factor(s); repeat for several runs"),
    "tau": ("positive", "original process duration"),
    "T0": ("positive", "pumping window, the duration that --a contracts"),
    "steps": (1, "time steps per window"),
    "out": (None, "output directory"),
    "config": (None, "JSON config file; flags override"),
    "format": (["csv", "json"], "table format (summary is always JSON)"),
    "p0": (None, "initial momentum (iontrap: packet centre)"),
    # WavepacketGrid.gaussian refuses it too, but only after the rescalings are built
    "sigma_p": ("positive", "packet width"),
    "p": (None, "momentum mode(s); repeat for several"),
    "equivalence": (None, "also compare the contracted pumping cycle to the original"),
    "scan": (["k", "phi_y", "phi_z"], "write a quasienergy scan along this axis"),
    "period_steps": (1, "steps per drive period in scans"),
    "n_times": (2, None), "grid_points": (3, None), "n_check": (2, None),
    "scan_points": (2, None), "n_samples": (2, None),
    "n_record": (1, "table rows: classical mode writes every (steps+1)//n_record-th "
                    "step from t = 0, coeffs mode exactly n_record rows per --a"),
    "fidelity_mode": (["incoherent", "coherent"], None),
    "mode": (["classical", "coeffs"], None),
    "potential": (["harmonic", "quartic"], None),
    # appendix --mode coeffs builds no ClassicalModel, which would refuse it
    "mass": ("positive", None),
    "Omega": ("positive", None),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-rescale",
        description="Time-rescaled shortcuts for two-level Dirac-type dynamics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (run, _, defaults) in SUBCOMMANDS.items():
        # no prefix matching: a mistyped or removed flag fails as unknown
        sp = sub.add_parser(name, help=run.__doc__, allow_abbrev=False)
        for key, default in defaults.items():
            bound, help_text = KEYS.get(key, (None, None))
            if isinstance(default, bool):
                kind = {"action": "store_const", "const": True}
            elif isinstance(default, list):
                kind = {"action": "append", "type": float}
            elif isinstance(default, (int, float)):
                kind = {"type": type(default)}
            else:
                kind = {"choices": bound}
            sp.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                            help=help_text, **kind)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    defaults = SUBCOMMANDS[sub][2]
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_values) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys for {sub}: {', '.join(unknown)}")
    # every file value is checked, also where a flag overrides it, then every flag set
    cfg = {**defaults, **{key: _checked(key, value, defaults[key])
                          for key, value in file_values.items()}}
    for key, default in defaults.items():
        if getattr(args, key) is not None:
            cfg[key] = _checked(key, getattr(args, key), default)
    if sub == "floquet" and cfg["scan"] is None and not cfg["equivalence"]:
        cfg["scan"] = "phi_z"
    return cfg


def _checked(key: str, value, default):
    """A flag or config-file value, checked by the type of the default and its KEYS bound."""
    bound = KEYS.get(key, (None,))[0]
    if isinstance(default, list):
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ValueError(f"{key}: needs at least one value")
        values = [_checked(key, v, 0.0) for v in values]
        # results and files are keyed by value, so a repeat would silently collapse them
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{key}: repeated value {v}")
        return values
    if default is None or isinstance(default, str):
        if value is None and default is None:
            return None
        if not isinstance(value, str) or (bound and value not in bound):
            wanted = f"one of {', '.join(bound)}" if bound else "a string"
            raise ValueError(f"{key}: must be {wanted}, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key}: expected a number, got {value!r}")
    elif type(value) is not type(default):
        raise ValueError(f"{key}: expected {type(default).__name__}, got {value!r}")
    try:
        number = float(value)  # an int past float range fails as a float would
    except OverflowError:
        raise ValueError(f"{key}: {value} is out of float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{key}: must be finite, got {number}")
    if bound == "positive" and not number > 0:
        raise ValueError(f"{key}: must be positive, got {number}")
    if isinstance(bound, (int, float)) and value < bound:
        raise ValueError(f"{key}: must be >= {bound}, got {value}")
    return number if isinstance(default, float) else value


def _json_text(doc) -> str:
    """Strict JSON; a NaN or infinite value raises RuntimeError."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"
    except ValueError as exc:
        raise RuntimeError(f"non-finite result ({exc})") from exc


def _table_text(header: list[str], blocks: list[tuple], fmt: str) -> str:
    """The blocks' rows as CSV or JSON; a NaN or infinite value raises RuntimeError.

    A block holds one column per header name: floats and arrays that broadcast
    to one shape, whose entries in C order are the block's rows.
    """
    table = np.vstack([np.column_stack([c.ravel() for c in np.broadcast_arrays(*block)])
                       for block in blocks])
    bad = ~np.isfinite(table)
    if bad.any():
        raise RuntimeError(f"non-finite table value {table[bad][0]}")
    if fmt == "json":
        return _json_text([dict(zip(header, row)) for row in table.tolist()])
    line = ",".join([_FLOAT] * len(header))
    return "\n".join([",".join(header), *(line % tuple(row) for row in table.tolist())]) + "\n"


def _publish(out_dir: str, files: dict[str, str]) -> None:
    """Write every file or, on OSError, none: each goes to a temp file, then all are renamed."""
    written = []  # the paths that hold this run's files: temp names, then final names
    try:
        for name, text in files.items():
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.", suffix=".tmp")
            written.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for i, name in enumerate(files):
            final = os.path.join(out_dir, name)
            os.replace(written[i], final)
            written[i] = final
    except OSError:
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _check(value: float, tol: float) -> dict:
    return {"value": value, "tol": tol, "passed": value <= tol}


def _run_iontrap(cfg: dict, rfs: list) -> dict:
    """Fidelity curves of the rescaled ramp."""
    model = IonTrapModel(tau=cfg["tau"])
    grid = WavepacketGrid.gaussian(p0=cfg["p0"], sigma_p=cfg["sigma_p"],
                                   n_points=cfg["grid_points"])
    blocks = []
    terminal = {}
    for a, rf in zip(cfg["a"], rfs):
        curves = fidelity_curves(model, rf, grid, n_times=cfg["n_times"],
                                 n_steps=cfg["steps"], mode=cfg["fidelity_mode"])
        blocks.append((a, curves.t, curves.f_initial, curves.f_final))
        terminal[_fmt(a)] = {"t": float(curves.t[-1]), "F_i": float(curves.f_initial[-1]),
                             "F_f": float(curves.f_final[-1])}
    return {"tables": {"fidelity": (["a", "t", "F_i", "F_f"], blocks)},
            "results": {"terminal": terminal}, "checks": {}}


def _run_gauge_check(cfg: dict, rfs: list) -> dict:
    """Frame-equivalence deviation report."""
    model = IonTrapModel(tau=cfg["tau"])
    blocks = []
    deviations = {}
    for a, rf in zip(cfg["a"], rfs):
        res = gauge_equivalence_check(
            lambda p: build_demo_hamiltonian(model, p), rf, cfg["p"],
            n_steps=cfg["steps"], n_check=cfg["n_check"],
        )
        # rows run over t within each p
        blocks.append((a, res.momenta[:, None], res.sample_times, res.deviations))
        deviations[_fmt(a)] = res.max_deviation
    return {"tables": {"gauge_deviations": (["a", "p", "t", "deviation"], blocks)},
            "results": {"max_deviation": deviations},
            "checks": {"frame_equivalence": _check(max(deviations.values()), cfg["tol"])}}


def _run_floquet(cfg: dict, rfs: list) -> dict:
    """Quasienergy scans and the contracted-cycle identity."""
    params = WeylModelParams(**{f.name: cfg[f.name] for f in dataclasses.fields(WeylModelParams)
                                if f.name in cfg})
    tables: dict = {}
    results: dict = {}
    checks: dict = {}
    if cfg["scan"] is not None:
        values = np.linspace(cfg["scan_min"], cfg["scan_max"], cfg["scan_points"])
        energies = scan_quasienergies(params, cfg["scan"], values, cfg["period_steps"])
        # rows echo the requested value; the scan uses it zone-wrapped
        fields = {"k": params.k, "phi_y": params.phi_y, "phi_z": params.phi_z,
                  cfg["scan"]: values}
        tables["quasienergies"] = (["k", "phi_y", "phi_z", "E1", "E2"],
                                   [(*fields.values(), *energies.T)])
        results["scan"] = {"axis": cfg["scan"], "points": int(cfg["scan_points"])}
    if cfg["equivalence"]:
        deviations = {}
        h = build_pumping_h(params)
        for a, rf in zip(cfg["a"], rfs):
            deviations[_fmt(a)] = rescaled_floquet_equivalence(h, rf, cfg["steps"])
        results["equivalence"] = deviations
        checks["floquet_equivalence"] = _check(max(deviations.values()), cfg["tol"])
    return {"tables": tables, "results": results, "checks": checks}


def _run_appendix(cfg: dict, rfs: list) -> dict:
    """Canonical-transformation checks."""
    tables: dict = {}
    results: dict = {}
    checks: dict = {}
    if cfg["mode"] == "classical":
        factory = harmonic_model if cfg["potential"] == "harmonic" else quartic_model
        model = factory(tau=cfg["tau"], m=cfg["mass"])
        worst = {}
        for a, rf in zip(cfg["a"], rfs):
            res = appendix_equivalence_check(model, rf, state0=(cfg["x0"], cfg["p0"]),
                                             n_steps=cfg["steps"])
            stride = max(1, len(res.times) // cfg["n_record"])
            dev = np.max(np.abs(res.mapped - res.transformed), axis=-1)
            columns = (res.times, *res.original.T, *res.transformed.T, dev)
            tables[f"trajectory_a{_fmt(a)}"] = (["t", "x", "p", "xbar", "pbar", "deviation"],
                                                [tuple(c[::stride] for c in columns)])
            worst[_fmt(a)] = res.max_deviation
        results["max_deviation"] = worst
        checks["trajectory_equivalence"] = _check(max(worst.values()), cfg["tol"])
    else:
        blocks = []
        for a, rf in zip(cfg["a"], rfs):
            ts = np.linspace(0.0, rf.horizon, cfg["n_record"])
            blocks.append((a, ts, *h1h2(rf, ts, cfg["mass"]), kappa(rf, ts, cfg["mass"]),
                           *quantum_coeffs(rf, ts)))
        tables["coefficients"] = (["a", "t", "h1", "h2", "kappa", "alpha", "beta", "kappa_q"],
                                  blocks)
        results["coefficients"] = {"rows": cfg["n_record"] * len(blocks)}
    return {"tables": tables, "results": results, "checks": checks}


def _run_rescale_info(cfg: dict, rfs: list) -> dict:
    """Rescaling samples and boundary report."""
    results: dict = {}
    checks: dict = {}
    blocks = []
    for a, rf in zip(cfg["a"], rfs):
        ts = np.linspace(0.0, rf.horizon, cfg["n_samples"])
        blocks.append((a, ts, rf.f(ts), rf.df(ts), rf.d2f(ts), rf.d3f(ts)))
        results[_fmt(a)] = {
            "horizon": rf.horizon,
            "df_max": float(2.0 * a - 1.0),
            "residuals": rf.residuals,
        }
        checks[f"boundary_a={_fmt(a)}"] = _check(max(rf.residuals.values()), BOUNDARY_TOL)
    return {"tables": {"rescaling": (["a", "t", "f", "df", "d2f", "d3f"], blocks)},
            "results": results, "checks": checks}


_COMMON = {"out": ".", "format": "csv", "config": None}

#: each subcommand's runner, the config key of the duration that --a contracts,
#: and its defaults: every config key of the subcommand, each also the flag
#: --key-with-dashes, whose kind follows the type of the default (see
#: _build_parser).  The CF4 step counts keep every check value at or below the
#: midpoint rule's at 4000 steps per window and 150000 per pumping cycle.
SUBCOMMANDS = {
    "iontrap": (_run_iontrap, "tau", {
        **_COMMON,
        "tau": 1.0,
        # a multiple of n_times - 1, so the samples fall on equally spaced steps
        "steps": 256,
        "a": [1.0],
        "n_times": 33,
        "p0": 0.0,
        "sigma_p": 0.05,
        "grid_points": 129,
        "fidelity_mode": "incoherent",
    }),
    "gauge-check": (_run_gauge_check, "tau", {
        **_COMMON,
        "tau": 1.0,
        # a multiple of n_check - 1
        "steps": 512,
        "a": [2.0],
        "p": [-1.0, 0.0, 1.0],
        "n_check": 9,
        "tol": 1e-6,
    }),
    "floquet": (_run_floquet, "T0", {
        **_COMMON,
        # the pumping window is T0 = 50 drive periods, hence the larger step count
        "steps": 4000,
        "a": [2.0],
        # generic mode away from band degeneracies
        "J": 0.2,
        "lam": 0.15,
        "V1": 0.5,
        "V2": 0.25,
        "Omega": 2.0 * math.pi,
        "k": 1.1,
        "phi_y": 0.8,
        "phi_z": 0.5,
        "T0": 50.0,
        "r": 0.3,
        "phi_y0": 0.8,
        "phi_z0": 0.5,
        "equivalence": False,
        "scan": None,
        "scan_min": -math.pi,
        "scan_max": math.pi,
        "scan_points": 65,
        "period_steps": 256,
        "tol": 1e-6,
    }),
    "appendix": (_run_appendix, "tau", {
        **_COMMON,
        "tau": 1.0,
        "steps": 4000,
        "a": [2.0],
        "mode": "classical",
        "potential": "quartic",
        "x0": 1.0,
        "p0": 0.0,
        "mass": 1.0,
        "n_record": 200,
        "tol": 1e-5,
    }),
    "rescale-info": (_run_rescale_info, "tau", {
        **_COMMON,
        "tau": 1.0,
        "a": [2.0],
        "n_samples": 101,
    }),
}


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """One stderr line per warning, without the source path and line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run, horizon, _ = SUBCOMMANDS[args.subcommand]
    try:
        cfg = _resolve_config(args)
        # every rescaling is built, and so checked, before any work
        rfs = [RescalingFunction(a=a, tau=cfg[horizon]) for a in cfg["a"]]
        # a non-finite value fails the run below, so numpy need not warn of it first
        # the filters stay as set, so a warning made an error still raises
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                warnings.catch_warnings():
            warnings.showwarning = _print_warning
            outcome = run(cfg, rfs)
        files = {f"{name}.{cfg['format']}": _table_text(header, blocks, cfg["format"])
                 for name, (header, blocks) in outcome["tables"].items()}
        failed = sorted(name for name, c in outcome["checks"].items() if not c["passed"])
        files["summary.json"] = _json_text({
            "schema": SCHEMA_VERSION, "subcommand": args.subcommand, "config": cfg,
            "results": outcome["results"], "checks": outcome["checks"], "passed": not failed})
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # drifted/diverged computation: report as a failed check
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    try:
        os.makedirs(cfg["out"], exist_ok=True)
        _publish(cfg["out"], files)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if failed:
        print(f"tolerance exceeded: {', '.join(failed)}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
