"""Seeded inputs and per-op output checks for the benchmark workloads.

An op is one or more in-process ``dirac_rescale.cli.main(argv)`` calls.
Each workload turns its seed into a fixed list of ops that a run cycles
through.  The list is a Latin-hypercube sample inside every cell of the
discrete parameters (the contraction factor A, and on ``appendix`` the
potential): each continuous parameter takes one value in each of K equal
strata of its range.  Every seed therefore covers each cell's whole range,
so the largest identity residual of a run moves little from seed to seed,
while the values themselves change with the seed.  On ``appendix``, whose
residual depends strongly on the initial position, each cell's corners are
ops as well.

This module uses only the standard library, so the parent process can
import it without paying for numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

A_VALUES = (2, 3, 4)

#: tolerance of the terminal identity F^a(tau/a) = F^1(tau) on ``packet``
TERMINAL_TOL = 1e-6


class CheckFailed(Exception):
    """An op's exit code or artifacts failed the benchmark's output checks."""


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws from [lo, hi], one in each of k equal strata, in random order."""
    order = list(range(k))
    rng.shuffle(order)
    return [lo + (hi - lo) * (s + rng.random()) / k for s in order]


def _sample(rng: random.Random, cells, k: int, ranges) -> list[tuple]:
    """(cell, *values) rows: a k-point Latin hypercube over ``ranges`` per cell."""
    rows = []
    for cell in cells:
        columns = [_strata(rng, k, lo, hi) for lo, hi in ranges]
        rows += [(cell, *values) for values in zip(*columns)]
    rng.shuffle(rows)
    return rows


def _num(x: float) -> str:
    return repr(float(x))


def _packet_ops(rng):
    # p0 + 6 sigma stays below the gap closure at p = 1 (0.5 + 6 * 0.08 = 0.98)
    rows = _sample(rng, A_VALUES, 6, [(-0.5, 0.5), (0.03, 0.08)])
    return [[["iontrap", "--a", "1", "--a", _num(a), "--p0", _num(p0), "--sigma-p", _num(s)]]
            for a, p0, s in rows]


def _single_mode_ops(rng):
    # pumping-loop centre within +-0.2 of its default (0.8, 0.5)
    rows = _sample(rng, A_VALUES, 4, [(0.6, 1.0), (0.3, 0.7), (0.2, 0.4)])
    ops = []
    for a, phi_y0, phi_z0, r in rows:
        momenta = []
        for p in _strata(rng, 5, -1.0, 1.0):
            momenta += ["--p", _num(p)]
        ops.append([
            ["floquet", "--equivalence", "--scan", "phi_z", "--a", _num(a),
             "--phi-y0", _num(phi_y0), "--phi-z0", _num(phi_z0), "--r", _num(r)],
            ["gauge-check", "--a", _num(a), *momenta],
        ])
    return ops


def _appendix_ops(rng):
    # The residual grows about as x0 squared, so the worst op of a sample is
    # set by where its largest x0 falls.  Each cell's four corners are
    # therefore ops too, beside two sampled ones: the run's worst residual is
    # that of the box, whatever the seed.
    cells = [(a, pot) for a in A_VALUES for pot in ("quartic", "harmonic")]
    x_range, p_range = (0.5, 1.5), (-0.5, 0.5)
    rows = _sample(rng, cells, 2, [x_range, p_range])
    rows += [(cell, x0, p0) for cell in cells for x0 in x_range for p0 in p_range]
    rng.shuffle(rows)
    return [[["appendix", "--mode", "classical", "--potential", pot, "--a", _num(a),
              "--x0", _num(x0), "--p0", _num(p0), "--steps", "1000"]]
            for (a, pot), x0, p0 in rows]


#: workload name -> op-list generator
GENERATORS = {
    "packet": _packet_ops,
    "single-mode": _single_mode_ops,
    "appendix": _appendix_ops,
}


def make_ops(workload: str, seed: int) -> list[list[list[str]]]:
    """The workload's op list for this seed: ops -> calls -> argv (without --out)."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(ops) -> str:
    """Short fingerprint of an op list, to compare inputs between runs."""
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()[:16]


def _reject_constant(name):
    raise CheckFailed(f"summary.json holds the non-finite constant {name}")


def _check_summary(out_dir: str) -> list[float]:
    """Strictly parse summary.json; return its check values, each within tol."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        try:
            summary = json.loads(fh.read(), parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"summary.json is not valid JSON: {exc}") from exc
    values = []
    for name, check in summary["checks"].items():
        if not check["value"] <= check["tol"]:
            raise CheckFailed(f"check {name}: {check['value']!r} above tol {check['tol']!r}")
        values.append(float(check["value"]))
    return values


def _terminal_residual(out_dir: str) -> float:
    """max |F^a(tau/a) - F^1(tau)| over every a and over F_i and F_f, from fidelity.csv."""
    terminal = {}
    with open(os.path.join(out_dir, "fidelity.csv"), encoding="utf-8") as fh:
        if fh.readline().strip() != "a,t,F_i,F_f":
            raise CheckFailed("fidelity.csv has an unexpected header")
        for line in fh:
            row_a, _, f_i, f_f = (float(v) for v in line.split(","))
            terminal[row_a] = (f_i, f_f)  # rows run forward in t: last one wins
    if 1.0 not in terminal or len(terminal) < 2:
        raise CheckFailed("fidelity.csv lacks the a = 1 or a contracted curve")
    residual = max(abs(x - y) for curve in terminal.values()
                   for x, y in zip(curve, terminal[1.0]))
    if not residual <= TERMINAL_TOL:
        raise CheckFailed(f"terminal identity residual {residual!r} above {TERMINAL_TOL}")
    return residual


def check_op(op, exit_codes, out_dirs) -> float:
    """Validate one op's results; return its largest identity residual.

    Raises CheckFailed on a non-zero exit code, a summary.json that a strict
    parse rejects, a built-in check above its tol or, for ``iontrap`` calls,
    a terminal fidelity identity above TERMINAL_TOL.
    """
    worst = 0.0
    for argv, code, out_dir in zip(op, exit_codes, out_dirs):
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited with code {code}")
        values = _check_summary(out_dir)
        if argv[0] == "iontrap":
            values.append(_terminal_residual(out_dir))
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed("non-finite residual")
        worst = max([worst, *values])
    return worst
