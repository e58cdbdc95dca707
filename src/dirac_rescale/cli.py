"""Experiment runner: wires flags/config files to the library and writes artifacts.

Every run produces a versioned JSON summary (echoing the fully resolved
configuration) plus plot-ready tables.  A runner only computes; ``main``
writes the whole artifact set once the run has finished, or none of it.
Output is deterministic: no RNG, fixed-order reductions and
17-significant-digit float formatting, so repeated runs are byte-identical.

Exit codes: 0 ok, 2 configuration error (including any non-finite value),
3 a built-in check exceeded its tolerance or a result is not finite, 4 I/O
failure (which leaves none of the run's files).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile

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


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


_COMMON = {"out": ".", "format": "csv", "config": None}

#: every config key of each subcommand; each is also the flag --key-with-dashes,
#: whose kind follows the type of the default (see _build_parser).  The CF4
#: step counts keep every check value at or below the midpoint rule's at
#: 4000 steps per window and 150000 per pumping cycle.
DEFAULTS = {
    "iontrap": {
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
    },
    "gauge-check": {
        **_COMMON,
        "tau": 1.0,
        # a multiple of n_check - 1
        "steps": 512,
        "a": [2.0],
        "p": [-1.0, 0.0, 1.0],
        "n_check": 9,
        "tol": 1e-6,
    },
    "floquet": {
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
    },
    "appendix": {
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
    },
    "rescale-info": {
        **_COMMON,
        "tau": 1.0,
        "a": [2.0],
        "n_samples": 101,
    },
}


#: each key's bound and flag help, for every subcommand that has the key.  The
#: bound is the list of allowed strings, the smallest allowed number, or
#: "positive"; None is neither.  A key with no bound and no help has no entry.
#: a and tau have no bound here: main builds every RescalingFunction before any
#: work, and it refuses a < 1 and tau <= 0 itself.  floquet rescales T0, so T0
#: is bounded here, where its message can name T0.
KEYS = {
    "a": (None, "contraction factor(s); repeat for several runs"),
    "tau": (None, "original process duration"),
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
    "scan_points": (2, None), "n_record": (1, None), "n_samples": (2, None),
    "fidelity_mode": (["incoherent", "coherent"], None),
    "mode": (["classical", "coeffs"], None),
    "potential": (["harmonic", "quartic"], None),
    # appendix --mode coeffs builds no ClassicalModel, which would refuse it
    "mass": ("positive", None),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-rescale",
        description="Time-rescaled shortcuts for two-level Dirac-type dynamics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, defaults in DEFAULTS.items():
        # no prefix matching: a mistyped or removed flag fails as unknown
        sp = sub.add_parser(name, help=_RUNNERS[name].__doc__, allow_abbrev=False)
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
    defaults = DEFAULTS[sub]
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_values) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys for {sub}: {', '.join(unknown)}")
    # every file value is checked, also where a flag overrides it
    from_file = {key: _file_value(key, value, defaults[key]) for key, value in file_values.items()}
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key)
        resolved[key] = flag_value if flag_value is not None else from_file.get(key, default)
    _validate(sub, resolved)
    return resolved


def _as_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key}: {value} is out of float range") from None


def _file_value(key: str, value, default):
    """A config-file value checked as its flag would be, by the type of the default."""
    if isinstance(default, list):
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ConfigError(f"{key}: needs at least one value")
        return [_as_float(key, v) for v in values]
    if isinstance(default, float):
        return _as_float(key, value)
    if default is None or isinstance(default, str):
        if value is None and default is None:
            return None
        choices = KEYS.get(key, (None,))[0]
        if not isinstance(value, str) or (choices and value not in choices):
            wanted = f"one of {', '.join(choices)}" if choices else "a string"
            raise ConfigError(f"{key}: must be {wanted}, got {value!r}")
        return value
    if type(value) is not type(default):
        raise ConfigError(f"{key}: expected {type(default).__name__}, got {value!r}")
    return value


def _validate(sub: str, cfg: dict) -> None:
    for key, value in cfg.items():
        bound = KEYS.get(key, (None,))[0]
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key}: must be finite, got {v}")
            if type(v) is int:
                _as_float(key, v)  # an int past float range fails as a float would
            if bound == "positive" and not v > 0:
                raise ConfigError(f"{key}: must be positive, got {v}")
            if isinstance(bound, (int, float)) and v < bound:
                raise ConfigError(f"{key}: must be >= {bound}, got {v}")
    # each sample is a step index in [0, steps]
    for key in ("n_times", "n_check"):
        if key in cfg and cfg[key] > cfg["steps"] + 1:
            raise ConfigError(f"{key}: must be <= steps + 1 = {cfg['steps'] + 1}, "
                              f"got {cfg[key]}")
    if sub == "floquet" and cfg["scan"] is None and not cfg["equivalence"]:
        cfg["scan"] = "phi_z"


def _json_text(doc, what: str) -> str:
    """Strict JSON; a NaN or infinite value raises RuntimeError naming ``what``."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"
    except ValueError as exc:
        raise RuntimeError(f"{what} ({exc})") from exc


def _table_text(header: list[str], rows: list[list], fmt: str) -> str:
    """The table as CSV or JSON; a NaN or infinite entry raises RuntimeError."""
    if fmt == "json":
        return _json_text([dict(zip(header, row)) for row in rows], "non-finite table value")
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, float, np.floating)):
                if not math.isfinite(v):
                    raise RuntimeError(f"non-finite table value {v}")
                cells.append(_fmt(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _summary_text(sub: str, cfg: dict, results: dict, checks: dict, passed: bool) -> str:
    doc = {"schema": SCHEMA_VERSION, "subcommand": sub, "config": cfg,
           "results": results, "checks": checks, "passed": passed}
    return _json_text(doc, "non-finite result")


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
    rows = []
    terminal = {}
    for a, rf in zip(cfg["a"], rfs):
        curves = fidelity_curves(model, rf, grid, n_times=cfg["n_times"],
                                 n_steps=cfg["steps"], mode=cfg["fidelity_mode"])
        for t, fi, ff in zip(curves.t, curves.f_initial, curves.f_final):
            rows.append([a, t, fi, ff])
        terminal[_fmt(a)] = {"t": float(curves.t[-1]), "F_i": float(curves.f_initial[-1]),
                             "F_f": float(curves.f_final[-1])}
    return {"tables": {"fidelity": (["a", "t", "F_i", "F_f"], rows)},
            "results": {"terminal": terminal}, "checks": {}}


def _run_gauge_check(cfg: dict, rfs: list) -> dict:
    """Frame-equivalence deviation report."""
    model = IonTrapModel(tau=cfg["tau"])
    rows = []
    deviations = {}
    worst = 0.0
    for a, rf in zip(cfg["a"], rfs):
        res = gauge_equivalence_check(
            lambda p: build_demo_hamiltonian(model, p), rf, cfg["p"],
            n_steps=cfg["steps"], n_check=cfg["n_check"],
        )
        for i, p in enumerate(res.momenta):
            for j, t in enumerate(res.sample_times):
                rows.append([a, p, t, res.deviations[i, j]])
        deviations[_fmt(a)] = res.max_deviation
        worst = max(worst, res.max_deviation)
    return {"tables": {"gauge_deviations": (["a", "p", "t", "deviation"], rows)},
            "results": {"max_deviation": deviations},
            "checks": {"frame_equivalence": _check(worst, cfg["tol"])}}


def _run_floquet(cfg: dict, rfs: list) -> dict:
    """Quasienergy scans and the contracted-cycle identity."""
    params = WeylModelParams(
        J=cfg["J"], lam=cfg["lam"], V1=cfg["V1"], V2=cfg["V2"], Omega=cfg["Omega"],
        k=cfg["k"], phi_y=cfg["phi_y"], phi_z=cfg["phi_z"],
        T0=cfg["T0"], r=cfg["r"], phi_y0=cfg["phi_y0"], phi_z0=cfg["phi_z0"],
    )
    tables: dict = {}
    results: dict = {}
    checks: dict = {}
    if cfg["scan"] is not None:
        values = np.linspace(cfg["scan_min"], cfg["scan_max"], cfg["scan_points"])
        energies = scan_quasienergies(params, cfg["scan"], values, cfg["period_steps"])
        rows = []
        for v, (e1, e2) in zip(values, energies):
            # rows echo the requested value; the scan uses it zone-wrapped
            fields = {"k": params.k, "phi_y": params.phi_y, "phi_z": params.phi_z,
                      cfg["scan"]: float(v)}
            rows.append([fields["k"], fields["phi_y"], fields["phi_z"], e1, e2])
        tables["quasienergies"] = (["k", "phi_y", "phi_z", "E1", "E2"], rows)
        results["scan"] = {"axis": cfg["scan"], "points": int(cfg["scan_points"])}
    if cfg["equivalence"]:
        deviations = {}
        worst = 0.0
        h = build_pumping_h(params)
        for a, rf in zip(cfg["a"], rfs):
            dev = rescaled_floquet_equivalence(h, rf, cfg["steps"])
            deviations[_fmt(a)] = dev
            worst = max(worst, dev)
        results["equivalence"] = deviations
        checks["floquet_equivalence"] = _check(worst, cfg["tol"])
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
            rows = list(zip(*(c[::stride].tolist() for c in columns)))
            tables[f"trajectory_a{_fmt(a)}"] = (["t", "x", "p", "xbar", "pbar", "deviation"],
                                                rows)
            worst[_fmt(a)] = res.max_deviation
        results["max_deviation"] = worst
        checks["trajectory_equivalence"] = _check(max(worst.values()), cfg["tol"])
    else:
        rows = []
        for a, rf in zip(cfg["a"], rfs):
            ts = np.linspace(0.0, rf.horizon, cfg["n_record"])
            columns = (ts, *h1h2(rf, ts, cfg["mass"]), kappa(rf, ts, cfg["mass"]),
                       *quantum_coeffs(rf, ts))
            rows.extend([a, *row] for row in zip(*columns))
        tables["coefficients"] = (["a", "t", "h1", "h2", "kappa", "alpha", "beta", "kappa_q"],
                                  rows)
        results["coefficients"] = {"rows": len(rows)}
    return {"tables": tables, "results": results, "checks": checks}


def _run_rescale_info(cfg: dict, rfs: list) -> dict:
    """Rescaling samples and boundary report."""
    results: dict = {}
    checks: dict = {}
    rows = []
    for a, rf in zip(cfg["a"], rfs):
        ts = np.linspace(0.0, rf.horizon, cfg["n_samples"])
        columns = (ts, rf.f(ts), rf.df(ts), rf.d2f(ts), rf.d3f(ts))
        rows.extend([a, *row] for row in zip(*columns))
        results[_fmt(a)] = {
            "horizon": rf.horizon,
            "df_max": float(2.0 * a - 1.0),
            "residuals": rf.residuals,
        }
        checks[f"boundary_a={_fmt(a)}"] = _check(max(rf.residuals.values()), BOUNDARY_TOL)
    return {"tables": {"rescaling": (["a", "t", "f", "df", "d2f", "d3f"], rows)},
            "results": results, "checks": checks}


_RUNNERS = {
    "iontrap": _run_iontrap,
    "gauge-check": _run_gauge_check,
    "floquet": _run_floquet,
    "appendix": _run_appendix,
    "rescale-info": _run_rescale_info,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        # every rescaling is built, and so checked, before --out exists
        tau = cfg["T0"] if args.subcommand == "floquet" else cfg["tau"]
        rfs = [RescalingFunction(a=a, tau=tau) for a in cfg["a"]]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(cfg["out"], exist_ok=True)
        try:
            # a non-finite value fails the run below, so numpy need not warn of it first
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                outcome = _RUNNERS[args.subcommand](cfg, rfs)
            files = {f"{name}.{cfg['format']}": _table_text(header, rows, cfg["format"])
                     for name, (header, rows) in outcome["tables"].items()}
            failed = sorted(name for name, c in outcome["checks"].items() if not c["passed"])
            files["summary.json"] = _summary_text(args.subcommand, cfg, outcome["results"],
                                                  outcome["checks"], passed=not failed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except RuntimeError as exc:
            # drifted/diverged computation: report as a failed check
            print(f"check failed: {exc}", file=sys.stderr)
            return EXIT_TOLERANCE
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
