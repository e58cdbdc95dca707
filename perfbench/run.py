"""Benchmark of the dirac-rescale CLI, run in process through ``cli.main(argv)``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload packet --seed 1 --seconds 30 --trace 0

A run is one fresh worker process (worker.py) that imports the package,
builds the seeded inputs and then runs the closed loop for ``--seconds``.
Set-up is the time from process start until the worker is ready for its
first op.  Before the worker, SETUP_PROBES more processes are started that
stop once ready; ``setup_s`` is the median of all these set-up times.

With ``--trace 0`` the run reports the end-to-end metrics, and prints the
median and 75th-percentile op latency on an ``info`` line; they are not
gated, because on ops of equal work they follow the host's speed.  With
``--trace 1`` the worker runs every op untraced and traced in turn, reports
per-op layer metrics from the traced ops (see tracer.py) and
``trace.overhead_frac`` from the pairs, and writes the spans under
perfbench/out/.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: set-up-only processes per untraced run, besides the worker itself
SETUP_PROBES = 4
#: a run must end within 180 s; kill the worker before that
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "check_dev_max": "1",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B_computed"
    if name == "cli.bytes_written":
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def _worker(args, deadline, *flags) -> dict:
    """Run one worker; return its result with its set-up time."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--tmp", args.out, *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready != "ready\n":
            raise WorkerError("worker did not get ready (is the package importable?)")
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    if "--setup-only" in flags:
        return {"setup_s": setup}
    if not out.strip():
        raise WorkerError("worker printed no result")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def run(args) -> dict:
    """The worker's result; untraced, with ``setup_s`` the median over all set-ups."""
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        spans = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.npz")
        return _worker(args, deadline, "--spans", spans)
    setups = [_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    result = _worker(args, deadline)
    result["setup_s"] = statistics.median([*setups, result["setup_s"]])
    return result


def metrics(result: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    lat = result["latencies"]
    values = {
        "setup_s": result["setup_s"],
        "ops_per_s": len(lat) / sum(lat),
        # with no op passed there is no residual: report the worst, 1
        "check_dev_max": max(result["residuals"], default=1.0),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def latency_info(lat: list[float]) -> dict:
    """Op latency percentiles, printed but not gated (see README)."""
    info = {"op_p50_s": {"value": statistics.median(lat), "unit": "s"}}
    if len(lat) >= 40:  # only with ten samples beyond it
        info["op_p75_s"] = {"value": statistics.quantiles(lat, n=4)[2], "unit": "s"}
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dirac_rescale", "cli.py")):
        print("error: src/dirac_rescale is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    args.out = os.path.join(HERE, "out")
    os.makedirs(args.out, exist_ok=True)
    try:
        result = run(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(result["latencies"])
    failed = result["failed"]
    found = metrics(result, args.trace)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print(f"ops {attempted} failed {failed} failed_frac {failed / attempted:.6g} "
          f"(base {attempted} ops)")
    info = {} if args.trace else latency_info(result["latencies"])
    if info:
        print("info " + json.dumps(info))
    for name, m in {**found, **info}.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": found}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
