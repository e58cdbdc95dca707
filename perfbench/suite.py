"""Run the benchmark over several seeds and print one table per workload.

Usage, from the root of a checkout:

    python3 perfbench/suite.py                       # every workload, seeds 1-10
    python3 perfbench/suite.py --workload packet --seeds 1 2 3 4 5
    python3 perfbench/suite.py --trace 1 --seeds 1   # per-layer tables

Every run lasts ``run_seconds`` from BENCHMARK.json.  Each row gives a
metric's unit, sample count (runs), median, first and third quartile
(``statistics.quantiles(n=4)``) and spread, the quartile distance as a
share of the median, beside the bound from BENCHMARK.json ("-" for
metrics without one).  Failures are counted against ops attempted
over all runs.  With ``--trace 1`` a layer table follows: each layer's
median self time per op and its share of the sum over layers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("rescaling", "propagator", "gauge", "iontrap", "floquet", "classical", "cli")


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("env", "inputs", "info"):
            result[key] = json.loads(rest)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def shown(result) -> dict:
    """The result's metrics, then the latency percentiles run.py prints beside them."""
    return {**result["metrics"], **result.get("info", {})}


def table(workload, runs, bounds) -> str:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines = [f"### {workload}", "",
             f"runs {len(runs)}, seeds {[r['env']['seed'] for r in runs]}, "
             f"ops {attempted}, failed_frac {failed / attempted:.3g} (base {attempted} ops), "
             f"all correct: {all(r['correct'] for r in runs)}", "",
             "| metric | unit | n | median | q1 | q3 | spread | bound |",
             "|---|---|---|---|---|---|---|---|"]
    for name, first in shown(runs[0]).items():
        values = [shown(r)[name]["value"] for r in runs if name in shown(r)]
        q1, med, q3 = quartiles(values)
        spread = f"{(q3 - q1) / med:.3f}" if med else "-"
        bound = bounds.get(name, "-")
        lines.append(f"| {name} | {first['unit']} | {len(values)} | {med:.6g} | {q1:.6g} | "
                     f"{q3:.6g} | {spread} | {bound} |")
    if "cli.self_s" in runs[0]["metrics"]:
        lines += ["", "| layer | median self_s per op | share |", "|---|---|---|"]
        med = {n: statistics.median(r["metrics"][f"{n}.self_s"]["value"] for r in runs)
               for n in LAYERS}
        total = sum(med.values())
        for n in LAYERS:
            lines.append(f"| {n} | {med[n]:.4g} | {med[n] / total:.3f} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        print(table(workload, runs, bounds), flush=True)
    print("env " + json.dumps(runs[0]["env"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
