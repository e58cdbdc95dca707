"""Self-test of the benchmark's determinism, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it makes two short traced runs at one seed and one at
another.  The two runs at one seed must see identical inputs and identical
per-op work counts; the other seed must change the inputs but not the op
sizes.  The bytes the CLI writes are left out: their number formatting
depends on the values, so on which ops a timed run reached.  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import sys

from suite import run_once

SEED, OTHER_SEED = 1, 2
#: length of each traced run
SECONDS = 2


def counts(result) -> dict:
    """Work counts; ``cli.bytes_written`` (unit B) depends on the values."""
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "B_computed")}


def main() -> int:
    problems = []
    for workload in ("packet", "single-mode", "appendix"):
        first, again, other = (run_once(workload, seed, SECONDS, 1)
                               for seed in (SEED, SEED, OTHER_SEED))
        for r in (first, again, other):
            if not r["correct"]:
                problems.append(f"{workload}: a run had failed ops")
        if first["inputs"] != again["inputs"]:
            problems.append(f"{workload}: seed {SEED} gave different inputs twice")
        if counts(first) != counts(again):
            problems.append(f"{workload}: seed {SEED} gave different counts twice")
        if first["inputs"]["digest"] == other["inputs"]["digest"]:
            problems.append(f"{workload}: seeds {SEED} and {OTHER_SEED} gave the same inputs")
        sizes, other_sizes = counts(first), counts(other)
        if sizes != other_sizes:
            changed = sorted(k for k in sizes if sizes[k] != other_sizes.get(k))
            problems.append(f"{workload}: op sizes changed with the seed: {changed}")
        print(f"{workload}: inputs {first['inputs']['digest']} / {other['inputs']['digest']}, "
              f"{len(sizes)} size counts compared", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
