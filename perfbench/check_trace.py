"""Check the traced run for exactness and measure tracing overhead.

Usage (from the repository root)::

    python3 perfbench/check_trace.py --workload synth-sa --seed 7 --seconds 30

Runs ``run.py`` three times, one after another: traced twice with the
same seed, then untraced. The per-layer counts listed in
``metrics.EXACT_COUNTS`` cover only the seed-determined designated jobs,
so the two traced runs must agree on them exactly; the script exits 1
when they do not. It prints the tracing overhead as traced vs untraced
``jobs_per_s``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import EXACT_COUNTS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    first, second = (_run(args.workload, args.seed, args.seconds, 1)
                     for _ in range(2))
    plain = _run(args.workload, args.seed, args.seconds, 0)
    mismatched = []
    for name in EXACT_COUNTS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        print(f"{name:42s} {a!r:>24} {b!r:>24}")
        if a != b:
            mismatched.append(name)
    traced = first["metrics"]["harness.traced_jobs_per_s"]["value"]
    untraced = plain["metrics"]["jobs_per_s"]["value"]
    print(f"jobs_per_s traced {traced:.4g}, untraced {untraced:.4g}: "
          f"tracing overhead {1.0 - traced / untraced:+.1%}")
    if mismatched:
        print("counts differ between two traced runs: "
              + ", ".join(mismatched))
        return 1
    print("traced counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
