"""One benchmark run in a fresh process, started by run.py.

Protocol on stdout: the line ``ready`` once the package is imported and the
seeded inputs are built (run.py times set-up up to it), then one JSON line
with the run's results.  The CLI's own stdout goes to stderr, so it cannot
corrupt the protocol.  With ``--setup-only`` the worker stops after
``ready``: run.py starts a few of these to sample set-up time.

The loop is closed with one client: the next op starts when the previous one
has returned.  It cycles through the op list for ``--seconds``, and an
untraced run covers the whole list at least once.  A traced run (``--spans``)
runs each op twice in a row, untraced and traced, in alternating order, so
the two latencies of a pair see the same host speed.  Each op's artifacts go
to a fresh directory under ``--tmp``, are checked after the op's timer
stops, and are then removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without walking up the tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
    }


def _artifact_size(dirs) -> tuple[int, int]:
    files = nbytes = 0
    for d in dirs:
        for entry in os.scandir(d):
            files += 1
            nbytes += entry.stat().st_size
    return files, nbytes


def run_op(cli, check_op, op, dirs) -> tuple[float, float | None, int, int]:
    """Run and check one op: (latency, residual or None if it failed, files, bytes)."""
    codes = []
    t0 = time.perf_counter()
    try:
        for argv, out in zip(op, dirs):
            codes.append(cli.main([*argv, "--out", out]))
    except SystemExit as exc:  # argparse rejects an argv
        codes.append(exc.code)
    except Exception:
        traceback.print_exc()
        codes.append("exception")
    latency = time.perf_counter() - t0
    try:
        residual = check_op(op, codes, dirs)
        files, nbytes = _artifact_size(dirs)
    except Exception as exc:
        print(f"op {dirs[0]} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        residual, files, nbytes = None, 0, 0
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    return latency, residual, files, nbytes


def run_loop(cli, check_op, ops, seconds, tmp) -> dict:
    """Closed loop over ``ops`` (cycled) for ``seconds`` and at least one pass."""
    latencies, residuals = [], []
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        dirs = [os.path.join(tmp, f"op{i}-{j}") for j in range(len(op))]
        latency, residual, _, _ = run_op(cli, check_op, op, dirs)
        latencies.append(latency)
        if residual is not None:
            residuals.append(residual)
        i += 1
    return {"latencies": latencies, "residuals": residuals,
            "failed": len(latencies) - len(residuals)}


def run_pairs(cli, check_op, ops, seconds, tmp, tracer) -> dict:
    """Each op untraced and traced, in alternating order, for ``seconds``.

    Layer metrics are per traced op.  ``trace.overhead_frac`` is the median
    over pairs of traced over untraced latency, minus 1.
    """
    ratios, latencies = [], []
    failed = files = nbytes = 0
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        tracer.op_id = i
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            dirs = [os.path.join(tmp, f"op{i}-{j}-{int(traced)}") for j in range(len(op))]
            if traced:
                tracer.install()
            try:
                latency, residual, op_files, op_bytes = run_op(cli, check_op, op, dirs)
            finally:
                tracer.uninstall()
            pair[traced] = latency
            latencies.append(latency)
            failed += residual is None
            if traced:
                files += op_files
                nbytes += op_bytes
        ratios.append(pair[True] / pair[False])
        i += 1
    layers = tracer.layer_metrics(i)
    layers["cli.files_written"] = files / i
    layers["cli.bytes_written"] = nbytes / i
    layers["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return {"latencies": latencies, "failed": failed, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop once ready")
    parser.add_argument("--spans", help="trace the loop and write its spans here (.npz)")
    args = parser.parse_args()

    from dirac_rescale import cli

    import workloads

    ops = workloads.make_ops(args.workload, args.seed)
    protocol, sys.stdout = sys.stdout, sys.stderr
    protocol.write("ready\n")
    protocol.flush()
    if args.setup_only:
        return 0

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        if args.spans:
            import tracer as tracing

            tracer = tracing.Tracer()
            result = run_pairs(cli, workloads.check_op, ops, args.seconds, tmp, tracer)
            tracer.save(args.spans)
        else:
            result = run_loop(cli, workloads.check_op, ops, args.seconds, tmp)
    result["env"] = environment(args.root, args.workload, args.seed)
    result["inputs"] = {"ops": len(ops), "digest": workloads.digest(ops)}
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
