"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: a traced run patches the public
entry point of each layer on its class, records calls, busy seconds and
work counts at that boundary, and restores the originals afterwards.
Times are inclusive (a wrapped call that runs inside another wrapped
call counts in both), so shares of one workload's stages are read from
the outermost spans: ``weight_duplication.top_candidates`` (stage 1)
and ``macro_partition.explore`` (stage 3).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple


class Tracer:
    """Thread-safe call counters and busy-time accumulators.

    Counters are keyed by span name; ``seconds[name]`` holds the
    inclusive wall time spent inside the span. ``counts`` holds work
    counts that are not calls (genes scored, feasible proposals,
    simulated cycles).
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.seconds: Dict[str, float] = {}
        self._lock = threading.Lock()

    def snapshot(self) -> Tuple[Counter, Counter, Dict[str, float]]:
        with self._lock:
            return Counter(self.calls), Counter(self.counts), dict(self.seconds)

    def _add(self, name: str, elapsed: float, counts=()) -> None:
        with self._lock:
            self.calls[name] += 1
            if elapsed:
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            for key, value in counts:
                self.counts[key] += value

    def timed(self, name: str, fn: Callable,
              count: Callable = None) -> Callable:
        """Wrap ``fn``: one call, its wall time, and the work counts
        ``count(args, result)`` returns as ``(key, value)`` pairs."""
        add = self._add

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
            add(name, elapsed, count(args, result) if count else ())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable,
                count: Callable = None) -> Callable:
        """Wrap ``fn`` with a call counter only (hot, tiny calls)."""
        add = self._add

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            add(name, 0.0, count(args, result) if count else ())
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _targets(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """(class or module, attribute, wrapper) for every traced boundary.

    The cycle simulator lowers lazily inside the engine's ``run``, so
    its two lowering functions are wrapped where the engine module looks
    them up; ``run.py`` subtracts them from the replay span.
    """
    from repro.core.grid_eval import GridBoundEvaluator
    from repro.core.macro_partition import MacroPartitionExplorer
    from repro.core.weight_duplication import WeightDuplicationFilter
    from repro.serve.store import ResultStore
    from repro.sim.cycle import engine
    from repro.sim.cycle.simulator import CycleSimulator

    wheel = type(engine.get_engine("auto"))
    wdf, mpe = WeightDuplicationFilter, MacroPartitionExplorer
    return [
        (wdf, "top_candidates", tracer.timed(
            "weight_duplication.top_candidates", wdf.top_candidates)),
        (wdf, "batch_energy", tracer.timed(
            "weight_duplication.batch_energy", wdf.batch_energy)),
        (wdf, "neighbor", tracer.counted(
            "weight_duplication.neighbor", wdf.neighbor)),
        (wdf, "is_feasible", tracer.counted(
            "weight_duplication.is_feasible", wdf.is_feasible,
            lambda args, ok: (("weight_duplication.feasible", int(ok)),))),
        (mpe, "explore", tracer.timed(
            "macro_partition.explore", mpe.explore)),
        (mpe, "score_population", tracer.timed(
            "macro_partition.score_population", mpe.score_population,
            lambda args, _r: (("macro_partition.genes_scored",
                               len(args[1])),))),
        (mpe, "score", tracer.timed("macro_partition.score", mpe.score)),
        (GridBoundEvaluator, "bounds_array", tracer.timed(
            "grid_eval.bounds_array", GridBoundEvaluator.bounds_array)),
        (CycleSimulator, "prepare", tracer.timed(
            "sim.cycle.prepare", CycleSimulator.prepare)),
        (engine, "lower_arrays", tracer.timed(
            "sim.cycle.lower", engine.lower_arrays)),
        (engine, "lower_dag", tracer.timed(
            "sim.cycle.lower", engine.lower_dag)),
        (wheel, "run", tracer.timed(
            "sim.cycle.simulate", wheel.run,
            lambda args, result: (("sim.cycle.cycles",
                                   int(result.makespan)),))),
        (ResultStore, "get_bytes", tracer.timed(
            "serve.store_get", ResultStore.get_bytes)),
        (ResultStore, "put", tracer.timed(
            "serve.store_put", ResultStore.put)),
    ]


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""
    targets = _targets(tracer)
    originals = [(owner, attr, vars(owner).get(attr))
                 for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            if original is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
