"""E10 — simulator-vs-analytical cross-validation.

§V evaluates synthesized accelerators with "a cycle-accurate IR-based
behavior-level simulator"; the DSE itself scores designs analytically.
This bench quantifies the gap between the two on synthesized designs —
the evidence that the analytical model the search optimizes is the
model the simulator confirms.

Four granularities ride in this file:

- the windowed list scheduler's throughput ratio (the original E10);
- the integer-cycle machine's zoo-wide cross-validation, publishing
  the maximum relative deviation and the cycle-sim wall time into the
  bench JSON (``extra_info``), so CI tracks model drift release over
  release;
- the engine matrix: zoo-wide ``cross_validate`` wall time and
  cycles/sec per event-wheel engine (python oracle, numpy flat
  wheel), against the pre-registry baseline (object lowering + object
  wheel, rebuilt per call);
- a fault-rate sweep that lowers once and replays many, demonstrating
  the shared :class:`~repro.sim.cycle.engine.PreparedProgram` context.
"""

from __future__ import annotations

import time

from repro.analysis import format_table
from repro.core import Pimsyn, SynthesisConfig
from repro.core.design_space import DesignSpace
from repro.nn import alexnet_cifar, lenet5, zoo
from repro.sim import SimulationEngine
from repro.sim.cycle import (
    DEFAULT_TOLERANCE,
    available_engines,
    cross_validate,
    resolve_engine_name,
)

CASES = (
    (lenet5, 2.0),
    (alexnet_cifar, 12.0),
)


def run_validation():
    rows = []
    for builder, power in CASES:
        model = builder()
        config = SynthesisConfig.fast(total_power=power, seed=2024)
        solution = Pimsyn(model, config).synthesize()
        engine = SimulationEngine(
            spec=solution.spec,
            allocation=solution.allocation,
            macro_groups=solution.partition.macro_groups,
        )
        metrics = engine.simulate()
        rows.append((
            model.name,
            solution.evaluation.throughput,
            metrics.throughput,
            solution.evaluation.throughput / metrics.throughput,
        ))
    return rows


def test_simulator_validates_analytical_model(benchmark):
    rows = benchmark.pedantic(run_validation, rounds=1, iterations=1)

    print()
    print(format_table(
        ["model", "analytical img/s", "simulated img/s",
         "analytic/sim ratio"],
        [
            (name, round(a, 1), round(s, 1), round(r, 3))
            for name, a, s, r in rows
        ],
        title="E10 - behavior-level simulator vs analytical evaluator",
    ))

    # The models must agree within a small factor: the simulator only
    # adds bank serialization on top of the shared rate models.
    for name, _a, _s, ratio in rows:
        assert 0.4 <= ratio <= 2.5, name


def run_cycle_cross_validation():
    """Cross-validate every zoo model on the cycle machine."""
    rows = []
    cycle_seconds = 0.0
    for name in zoo.available_models():
        model = zoo.by_name(name)
        power = DesignSpace(
            model, SynthesisConfig.fast()
        ).minimum_feasible_power(margin=2.0)
        config = SynthesisConfig.fast(total_power=power, seed=7)
        solution = Pimsyn(model, config).synthesize()
        started = time.perf_counter()
        report = cross_validate(solution).ensure()
        cycle_seconds += time.perf_counter() - started
        rows.append((
            name,
            report.throughput_deviation,
            report.energy_deviation,
            report.cycle_report.total_cycles,
        ))
    return rows, cycle_seconds


def test_cycle_cross_validation_zoo(benchmark):
    rows, cycle_seconds = benchmark.pedantic(
        run_cycle_cross_validation, rounds=1, iterations=1
    )

    print()
    print(format_table(
        ["model", "throughput dev", "energy dev", "window cycles"],
        [
            (name, round(t, 4), round(e, 4), cycles)
            for name, t, e, cycles in rows
        ],
        title="E10b - cycle machine vs analytical evaluator (zoo)",
    ))

    benchmark.extra_info["models_validated"] = len(rows)
    benchmark.extra_info["tolerance"] = DEFAULT_TOLERANCE
    benchmark.extra_info["max_throughput_deviation"] = round(
        max(t for _n, t, _e, _c in rows), 6
    )
    benchmark.extra_info["max_energy_deviation"] = round(
        max(e for _n, _t, e, _c in rows), 6
    )
    benchmark.extra_info["max_deviation"] = round(
        max(max(t, e) for _n, t, e, _c in rows), 6
    )
    benchmark.extra_info["cycle_sim_seconds"] = round(cycle_seconds, 3)

    # ensure() above already enforced the stated tolerance per model;
    # restate the aggregate so the bench JSON is self-certifying.
    assert benchmark.extra_info["max_deviation"] <= DEFAULT_TOLERANCE


# ----------------------------------------------------------------------
# E10c — the event-wheel engines: per-engine zoo wall time
# ----------------------------------------------------------------------
def _zoo_solutions():
    solutions = []
    for name in zoo.available_models():
        model = zoo.by_name(name)
        power = DesignSpace(
            model, SynthesisConfig.fast()
        ).minimum_feasible_power(margin=2.0)
        config = SynthesisConfig.fast(total_power=power, seed=7)
        solutions.append(Pimsyn(model, config).synthesize())
    return solutions


def run_engine_matrix():
    """Zoo-wide ``cross_validate`` per engine vs the uncached oracle.

    The baseline is the shape of the pre-registry code path: the
    object lowering and the object wheel, rebuilt on every call (the
    prepared-context cache is evicted between calls). Each engine row
    then measures the shipped path — lower once per solution, replay
    through the engine's wheel.
    """
    solutions = _zoo_solutions()

    baseline_seconds = 0.0
    total_cycles = 0
    for solution in solutions:
        solution.__dict__.pop("_cycle_prepared_cache", None)
        started = time.perf_counter()
        report = cross_validate(solution, engine="python").ensure()
        baseline_seconds += time.perf_counter() - started
        total_cycles += report.cycle_report.total_cycles

    engines = {}
    for name in available_engines():
        for solution in solutions:  # warm the shared lowering caches
            cross_validate(solution, engine=name)
        started = time.perf_counter()
        for solution in solutions:
            cross_validate(solution, engine=name).ensure()
        seconds = time.perf_counter() - started
        engines[name] = {
            "available": True,  # read by the CI artifact check
            "seconds": round(seconds, 4),
            "cycles_per_second": round(total_cycles / seconds),
        }
    return baseline_seconds, total_cycles, engines


def test_cycle_engine_speedup(benchmark):
    baseline, total_cycles, engines = benchmark.pedantic(
        run_engine_matrix, rounds=1, iterations=1
    )

    best = min(engines, key=lambda name: engines[name]["seconds"])
    speedup = baseline / engines[best]["seconds"]

    print()
    print(format_table(
        ["engine", "zoo seconds", "cycles/sec", "vs baseline"],
        [
            (
                name,
                row["seconds"],
                row["cycles_per_second"],
                round(baseline / row["seconds"], 2),
            )
            for name, row in engines.items()
        ],
        title=(
            "E10c - event-wheel engines, zoo-wide cross_validate "
            f"(baseline: uncached oracle, {baseline:.3f}s)"
        ),
    ))

    benchmark.extra_info["baseline_seconds"] = round(baseline, 4)
    benchmark.extra_info["total_window_cycles"] = total_cycles
    benchmark.extra_info["engines"] = engines
    benchmark.extra_info["best_engine"] = best
    benchmark.extra_info["resolved_auto"] = resolve_engine_name("auto")
    benchmark.extra_info["best_speedup"] = round(speedup, 2)

    # The prepared-context reuse alone must clearly beat rebuilding.
    assert speedup >= 2.0, engines


# ----------------------------------------------------------------------
# E10d — fault-rate sweep on one lowering (lower once, replay many)
# ----------------------------------------------------------------------
FAULT_RATES = (0.0, 0.01, 0.05, 0.1, 0.2)


def run_fault_sweep():
    model = lenet5()
    power = DesignSpace(
        model, SynthesisConfig.fast()
    ).minimum_feasible_power(margin=2.0)
    config = SynthesisConfig.fast(total_power=power, seed=7)
    solution = Pimsyn(model, config).synthesize()

    simulator = solution.cycle_simulator(fault_seed=11)
    started = time.perf_counter()
    prepare_seconds = 0.0
    results = []
    prepared = None
    for rate in FAULT_RATES:
        t0 = time.perf_counter()
        result = simulator.replay(fault_rate=rate)
        if prepared is None:
            prepared = result.prepared
            prepare_seconds = time.perf_counter() - t0
        assert result.prepared is prepared  # one lowering, N replays
        results.append((rate, result))
    sweep_seconds = time.perf_counter() - started
    return results, sweep_seconds, prepare_seconds


def test_fault_sweep_reuses_lowering(benchmark):
    results, sweep_seconds, first_run_seconds = benchmark.pedantic(
        run_fault_sweep, rounds=1, iterations=1
    )

    print()
    print(format_table(
        ["fault rate", "faults injected", "fault stall cycles",
         "window cycles"],
        [
            (
                rate,
                result.machine.faults_injected,
                result.machine.stall_cycles["fault"],
                result.report.total_cycles,
            )
            for rate, result in results
        ],
        title=(
            "E10d - fault sweep on one lowering "
            f"({len(FAULT_RATES)} rates, {sweep_seconds:.3f}s total, "
            f"first run {first_run_seconds:.3f}s)"
        ),
    ))

    faults = [r.machine.faults_injected for _rate, r in results]
    assert faults == sorted(faults)  # monotone in the rate
    assert faults[0] == 0 and faults[-1] > 0

    benchmark.extra_info["rates"] = list(FAULT_RATES)
    benchmark.extra_info["faults_injected"] = faults
    benchmark.extra_info["sweep_seconds"] = round(sweep_seconds, 4)
    benchmark.extra_info["first_run_seconds"] = round(
        first_run_seconds, 4
    )
    # The first replay pays the DAG build + lowering; the remaining
    # four reuse it, so they must not dominate the sweep.
    replays = sweep_seconds - first_run_seconds
    assert replays < 4 * max(first_run_seconds, 1e-9)
