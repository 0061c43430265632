"""PIMSYN reproduction benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth-sa --seed 1 --seconds 30 --trace 0

Workloads: ``synth-sa`` and ``synth-ea``, which ``BENCHMARK.json``
gates, and ``serve-mixed``, which runs the same way but is not gated
(``workloads.py`` says why each exists, and why that one is not).
``--trace 0`` measures the end-to-end metrics with no instrumentation,
their times in reference seconds (see ``hostspeed.py``);
``--trace 1`` wraps each layer's public entry points from outside the
program and reports the per-layer metrics instead. Human-readable lines (environment, every
metric with its unit and sample count, failures) come first; the last
line of standard output is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names, units and bounds are those of ``BENCHMARK.json`` at
the repository root, which this script reads so its output always
matches the declared set. It builds nothing: the program is the pure
Python package under ``src/``, imported from the checkout. Scratch
files (the serve workload's result store) live under
``.perfbench-work/`` in the checkout and are deleted on exit. Without
``src/`` (or ``BENCHMARK.json``) the script exits with status 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-sa", "synth-ea", "serve-mixed")


def _environment() -> dict:
    import numpy

    from repro import SynthesisConfig
    from repro.core.backend import backend_status
    from repro.sim.cycle.engine import engine_status, resolve_engine_name

    config = SynthesisConfig.fast()
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": config.backend,
        "sim_engine": resolve_engine_name(config.sim_engine),
        "backends_available": [n for n, ok, _ in backend_status() if ok],
        "sim_engines_available": [n for n, ok, _ in engine_status() if ok],
    }


def _import_seconds(repeats: int = 7) -> float:
    """Median time of a fresh interpreter importing the program, in
    reference seconds.

    Imports happen once per process, so set-up's import share is timed
    in child interpreters (each waited for) to take a median like the
    rest of set-up. A child's start-up follows the host's process and
    file-system costs more than the CPU speed the calibration loop
    measures, so imports are calibrated by their own kind of work:
    before each timed child, a child that only imports numpy (code no
    change to the program can touch), and the median is scaled by
    :data:`hostspeed.IMPORT_REFERENCE_S` over that baseline's median.
    """
    from hostspeed import IMPORT_REFERENCE_S

    program = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import repro.serve, repro.sim.cycle")
    baseline = "import numpy"
    times: dict = {program: [], baseline: []}
    for _ in range(repeats):
        for code in (baseline, program):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                           check=True, timeout=120)
            times[code].append(time.perf_counter() - started)
    return (statistics.median(times[program]) * IMPORT_REFERENCE_S
            / statistics.median(times[baseline]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/repro package or no "
              "BENCHMARK.json; run from a full checkout", file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text("utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from hostspeed import HostSpeed

    import_s = _import_seconds()
    speed = HostSpeed()
    import metrics
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    work_dir = ROOT / ".perfbench-work"
    try:
        if args.workload == "serve-mixed":
            out = workloads.run_serve(args.seed, args.seconds, tracer,
                                      work_dir, speed)
        else:
            out = workloads.run_synth(args.workload, args.seed, args.seconds,
                                      tracer, work_dir, speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out.import_s = import_s
    out.host_factor = speed.factor()
    out.calibrations = len(speed.samples)

    values = metrics.per_layer(out) if args.trace else metrics.end_to_end(out)
    shown = dict(values)
    if not args.trace:
        shown.update(metrics.report_only(out))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(_environment(), sort_keys=True))
    print(f"window {out.window_s:.3f} s, attempted {out.attempted}, "
          f"failed {out.failed}, completed {len(out.latencies)}, "
          f"latency samples beyond p99: "
          f"{metrics.beyond(out.latencies, 0.99)}, designated jobs "
          f"{len(out.designs)}, host factor {out.host_factor:.4f} from "
          f"{out.calibrations} calibrations")
    for name, (value, unit) in shown.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    if args.trace:
        for layers, target in metrics.PER_LAYER_TARGETS.items():
            print(f"  target of {layers}: {target}")
    for line in out.job_lines:
        print(f"  job {line}")
    for note in out.notes[:20]:
        print(f"  failure: {note}")

    result = {}
    for entry in declared:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} differs from "
                               f"BENCHMARK.json's {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
