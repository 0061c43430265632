"""Differential suite: the tensorized task-grid walk vs the per-task walk.

PR 6 flattens the outer (design point x WtDup x ResDAC) queue into one
``(tasks, layers)`` :class:`~repro.core.backend.TaskGrid` and computes
every pruning bound in a single backend call. The claim mirrors the
batch-eval suite's, but stronger: the grid bounds are **bit-identical**
(``==``, not 1e-9-close) to :meth:`_TaskRunner.throughput_bound` called
once per task — pruning rides on exact float comparisons, so anything
less would let the tensorized walk change which tasks run. This suite
pins that claim across the model zoo and a power grid spanning
infeasible, tight and generous regimes, for both backends —
and then end to end: full synthesis must select the identical solution
with ``grid_eval`` on or off, serial or pooled, pruned or not.
"""

from __future__ import annotations

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.backend import backend_status, get_backend
from repro.core.design_space import DesignSpace
from repro.core.executor import ExplorationEngine
from repro.core.grid_eval import GridBoundEvaluator
from repro.core.synthesizer import SynthesisReport
from repro.nn import zoo

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)

#: Every backend (numpy and python).
AVAILABLE_BACKENDS = tuple(
    name for name, ok, _ in backend_status() if ok
)


def _engine_and_tasks(model, config):
    """The real queue the executor would walk for (model, config)."""
    engine = ExplorationEngine(model, config, SynthesisReport())
    points = list(DesignSpace(model, config).outer_points())
    if not points:
        return engine, []
    executor = engine._make_executor()
    try:
        tasks = engine._build_tasks(executor, points, None)
    finally:
        executor.close()
    return engine, tasks


class TestZooBoundsBitIdentity:
    """Every zoo model x power grid: grid bounds ``==`` scalar bounds."""

    @pytest.mark.parametrize("name", zoo.available_models())
    def test_bounds_match_scalar_walk_exactly(self, name):
        model = zoo.by_name(name)
        tasks_seen = 0
        for power in POWER_GRID:
            config = SynthesisConfig.fast(total_power=power, seed=7)
            engine, tasks = _engine_and_tasks(model, config)
            if not tasks:
                continue
            tasks_seen += len(tasks)
            scalar = [
                engine._local_runner.throughput_bound(t) for t in tasks
            ]
            for backend in AVAILABLE_BACKENDS:
                grid = GridBoundEvaluator(
                    model, config, backend=get_backend(backend)
                )
                assert grid.bounds(tasks) == scalar, (
                    f"{name}@{power}W backend={backend}"
                )
        # The grid must actually produce work at some power level.
        assert tasks_seen > 0

    def test_bounds_span_zero_and_positive(self):
        """The power grid exercises both bound regimes (available
        peripheral power exhausted -> 0.0, and real positive bounds),
        so the kernels' early-out branch is covered differentially."""
        model = zoo.by_name("lenet5")
        values = set()
        for power in POWER_GRID:
            config = SynthesisConfig.fast(total_power=power, seed=7)
            _, tasks = _engine_and_tasks(model, config)
            if not tasks:
                continue
            grid = GridBoundEvaluator(model, config)
            for value in grid.bounds(tasks):
                values.add(value == 0.0)
        assert values == {True, False}

    def test_engine_task_bounds_routes_identically(self):
        """ExplorationEngine._task_bounds returns the same floats on
        the grid path and the scalar path (grid_eval toggled)."""
        model = zoo.by_name("alexnet_cifar")
        scalar_cfg = SynthesisConfig.fast(
            total_power=8.0, seed=7, grid_eval=False
        )
        grid_cfg = SynthesisConfig.fast(total_power=8.0, seed=7)
        engine, tasks = _engine_and_tasks(model, scalar_cfg)
        scalar_bounds, scalar_array = engine._task_bounds(tasks)
        assert scalar_array is None
        grid_engine = ExplorationEngine(
            model, grid_cfg, SynthesisReport()
        )
        grid_bounds, grid_array = grid_engine._task_bounds(tasks)
        assert grid_array is not None
        assert grid_bounds == scalar_bounds


class TestFullSynthesisIdentity:
    """grid_eval / backend are execution knobs: results are identical."""

    @pytest.mark.parametrize("name,power", [
        ("lenet5", 2.0), ("alexnet_cifar", 8.0),
    ])
    def test_identical_solution_and_pruning_telemetry(self, name, power):
        model = zoo.by_name(name)
        runs = {}
        reports = {}
        for grid in (True, False):
            synthesizer = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7, grid_eval=grid,
            ))
            runs[grid] = synthesizer.synthesize().to_json()
            reports[grid] = synthesizer.report
        assert runs[True] == runs[False]
        # Not just the winner: the pruning decisions themselves match,
        # because the bounds are bit-identical.
        assert reports[True].pruned_tasks == reports[False].pruned_tasks
        assert reports[True].ea_runs == reports[False].ea_runs
        assert reports[True].cache_hits == reports[False].cache_hits

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_identical_solution_per_backend(self, backend):
        solution = Pimsyn(zoo.by_name("lenet5"), SynthesisConfig.fast(
            total_power=2.0, seed=7, backend=backend,
        )).synthesize()
        baseline = Pimsyn(zoo.by_name("lenet5"), SynthesisConfig.fast(
            total_power=2.0, seed=7, grid_eval=False,
        )).synthesize()
        assert solution.to_json() == baseline.to_json()

    def test_identical_across_jobs_and_grid(self):
        """The 2x2 (jobs, grid_eval) grid returns one solution — the
        vectorized wave masking interacts with pool prefetch exactly
        like the scalar dispatch loop did."""
        outputs = set()
        for jobs in (1, 4):
            for grid in (True, False):
                solution = Pimsyn(zoo.by_name("lenet5"), (
                    SynthesisConfig.fast(
                        total_power=2.0, seed=11, jobs=jobs,
                        grid_eval=grid,
                    )
                )).synthesize()
                outputs.add(solution.to_json())
        assert len(outputs) == 1

    def test_identical_across_pruning_and_grid(self):
        """Pruning on/off x grid on/off: one winner (pruning only ever
        removes provably dominated tasks, on either bounds path)."""
        outputs = set()
        for prune in (True, False):
            for grid in (True, False):
                solution = Pimsyn(zoo.by_name("lenet5"), (
                    SynthesisConfig.fast(
                        total_power=2.0, seed=11,
                        prune_dominated=prune, grid_eval=grid,
                    )
                )).synthesize()
                outputs.add(solution.to_json())
        assert len(outputs) == 1
