"""Host-speed calibration: wall seconds to reference seconds.

The benchmark's reference host is two vCPUs of a shared VM whose speed
moves under the benchmark: the same deterministic ``lenet5`` synthesis,
repeated in one process, takes 0.8 s for a minute and 1.35 s the next,
with CPU time equal to wall time (the core runs slower; the process is
not descheduled). Runs land in different mixes of fast and slow
periods, so raw wall times spread by a tenth to a fifth between runs of
the same code.

A fixed calibration loop, run between the timed steps of a run, slows
in the same periods. :class:`HostSpeed` samples it once per
:data:`SAMPLE_EVERY_S` seconds of timed work, so the samples weigh each
period by its length, and the run's factor is ``REFERENCE_S`` over
their mean: multiplying the run's wall seconds by it gives *reference
seconds*, the time on this host when the loop takes ``REFERENCE_S``.
One factor per run, not per job: a single 15 ms sample lands in a fast
or a slow moment at random, and scaling each job by its own samples
made runs spread more, not less. The loop is the benchmark's own code:
no change to the program can speed it up or slow it down, so a faster
program still reads faster. ``perfbench/BASELINE.md`` gives the spreads
with and without the factor. Runs print the raw wall figures and the
factor beside the scaled figures.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: The calibration loop's time on the reference host when it runs fast
#: (2 vCPUs, CPython 3.11, numpy 2.4), so reference seconds read close
#: to wall seconds there.
REFERENCE_S = 0.0105
#: A child interpreter importing numpy, on the same host when it runs
#: fast: the reference for the import share of set-up (see run.py).
IMPORT_REFERENCE_S = 0.14
#: Timed seconds per calibration sample (a sample takes about 0.01-0.02 s).
SAMPLE_EVERY_S = 0.2


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def fits(self, limit: int) -> bool:
        return self.a * self.b <= limit


def _interpreter_loop() -> int:
    """Method calls, dict lookups, small tuples and a keyed sort: the
    operations the synthesis loops spend their time on."""
    table = {i: _Cell(i % 13, i % 7) for i in range(256)}
    hits = 0
    for r in range(60):
        for i in range(256):
            cell = table[(i * 37 + r) & 255]
            if cell.fits(40 + r % 9):
                hits += 1
            hits += len((cell.a, cell.b, i)) & 1
        sorted(table.values(), key=lambda c: (c.a * 7 + c.b + r) % 31)
    return hits


def _array_loop() -> float:
    """Many small numpy calls, as the batched scorers make."""
    base = np.arange(64, dtype=np.float64)
    total = 0.0
    for r in range(800):
        scaled = base * (r % 5 + 1)
        total += float(np.sum(scaled[scaled > 10]) + np.max(scaled))
    return total


def calibrate() -> float:
    """Wall seconds of one pass of the fixed calibration loop."""
    started = time.perf_counter()
    _interpreter_loop()
    _array_loop()
    return time.perf_counter() - started


class HostSpeed:
    """Calibration samples over one run, and the factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def cover(self, seconds: float) -> None:
        """Calibrate after ``seconds`` of timed work: one sample per
        :data:`SAMPLE_EVERY_S` of it, and at least one."""
        for _ in range(max(1, round(seconds / SAMPLE_EVERY_S))):
            self.samples.append(calibrate())

    def factor(self) -> float:
        """Reference seconds per wall second over the samples so far."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
