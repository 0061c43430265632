"""The two array-execution backends of the tensorized task-grid walk.

The grid evaluator of :mod:`repro.core.grid_eval` flattens the outer
(design point x WtDup x ResDAC) task walk into ``(tasks, layers)``
arrays and hands them to an :class:`ArrayBackend`, selected by name
through ``SynthesisConfig.backend`` (``--backend`` on the CLI). A
backend implements two kernels: :meth:`ArrayBackend.compute_bounds`
(per-task pruning bounds) and :meth:`ArrayBackend.prune_mask` (the
dominated-task mask of each prune wave).

``numpy``
    The default: vectorized ``(tasks, layers)`` operations, layer
    reductions accumulated in layer order so every value is
    bit-identical to the scalar oracle.
``python``
    Scalar loops over the same arrays, in exactly the scalar oracle's
    operation order — the conformance reference ``numpy`` is held to.

EA population scoring is not a backend kernel: EA populations hold
16 genes, too few for array dispatch to pay off, so
:mod:`repro.core.batch_eval` scores them with one pure-Python lane
kernel whichever backend is selected.

Exactness contract
------------------
Both backends return bit-identical results (``==``, not merely close)
from both kernels: the DSE pruning decisions ride on exact float
comparisons, and the whole point of the tensorized walk is that it
cannot change a solution. ``tests/test_backend_conformance.py`` pins
the contract.

Content-key contract
--------------------
A backend changes *how fast* the task walk runs, never *what* it
returns, so ``backend`` (and the ``grid_eval`` / ``batch_eval``
switches) live in :data:`repro.core.executor.EXECUTION_ONLY_FIELDS`
and are excluded from every content fingerprint — eval memos, serve
job keys and store entries are shared across backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

# ----------------------------------------------------------------------
# The task-grid input contract
# ----------------------------------------------------------------------
@dataclass
class TaskGrid:
    """The tensorized task walk's input: one row per DSE task.

    All 2-D arrays are ``(tasks, layers)`` int64/float64; 1-D arrays are
    per-task or per-layer as noted. Integer arrays hold exact values
    (every product taken inside the kernels stays far below 2**53, so
    int -> float conversions are exact and match the scalar oracle's
    arbitrary-precision arithmetic bit for bit).
    """

    total_blocks: "object"  # (T, L) int64 — ceil(out_positions / WtDup)
    inputs_per_block: "object"  # (T, L) int64 — WtDup * rows
    outputs_per_block: "object"  # (T, L) int64 — WtDup * cols
    group_cap: "object"  # (T, L) int64 — min(WtDup*row_tiles, crossbars)
    crossbars: "object"  # (T, L) int64 — WtDup * set_size
    conversions_per_block_bit: "object"  # (T, L) int64
    bits: "object"  # (T,) int64 — ceil(PrecAct / ResDAC)
    adc_power: "object"  # (T, L) float64 — ADC power at required res.
    vector_ops: "object"  # (L,) float64 — ALU-only workload per layer
    per_crossbar_fixed: "object"  # (T,) float64 — XbSize*(DAC+S&H)
    peripheral_power: "object"  # (T,) float64 — (1-RatioRram)*TotalPower
    crossbar_latency: float
    act_bytes: float
    edram_bandwidth: float
    per_macro_fixed: float  # eDRAM + NoC + register power per macro
    adc_sample_rate: float
    alu_power: float
    alu_frequency: float
    min_macros: int  # ceil(L/2) under rule-b sharing, L otherwise
    macro_sharing: bool  # halves the ADC denominator (rule b)

    @property
    def num_tasks(self) -> int:
        return len(self.bits)

    @property
    def num_layers(self) -> int:
        return len(self.vector_ops)


def _bound_loops(
    total_blocks, inputs_per_block, outputs_per_block, group_cap,
    crossbars, conversions_per_block_bit, bits, adc_power, vector_ops,
    per_crossbar_fixed, peripheral_power, crossbar_latency, act_bytes,
    edram_bandwidth, per_macro_fixed, adc_sample_rate, alu_power,
    alu_frequency, min_macros, macro_sharing, out,
):
    """Scalar-loop bound kernel (the ``python`` engine).

    Replicates :func:`repro.core.evaluator.throughput_upper_bound` one
    task at a time, in the exact operation order of the scalar code.
    """
    num_tasks, num_layers = total_blocks.shape
    for t in range(num_tasks):
        # Rule c's largest permitted macro group bounds eDRAM bandwidth.
        max_group = group_cap[t, 0]
        for l in range(1, num_layers):
            if group_cap[t, l] > max_group:
                max_group = group_cap[t, l]
        if max_group < 1:
            max_group = 1
        bandwidth = edram_bandwidth * max_group

        # Structural floor: exact MVM time, best-case load/store.
        period_floor = 0.0
        for l in range(num_layers):
            mvm = (total_blocks[t, l] * bits[t]) * crossbar_latency
            load = (
                (total_blocks[t, l] * inputs_per_block[t, l]) * act_bytes
            ) / bandwidth
            store = (
                (total_blocks[t, l] * outputs_per_block[t, l]) * act_bytes
            ) / bandwidth
            stage = mvm
            if load > stage:
                stage = load
            if store > stage:
                stage = store
            if stage > period_floor:
                period_floor = stage

        # Fixed-overhead floor (fewest macros any partition can use).
        total_crossbars = 0
        for l in range(num_layers):
            total_crossbars += crossbars[t, l]
        fixed = (
            min_macros * per_macro_fixed
            + total_crossbars * per_crossbar_fixed[t]
        )
        available = peripheral_power[t] - fixed
        if available <= 0:
            out[t] = 0.0
            continue

        # Eq. 6 power floor: holding every delay at D costs denom / D.
        adc_denom = 0.0
        alu_denom = 0.0
        for l in range(num_layers):
            conversions = (
                total_blocks[t, l] * bits[t]
            ) * conversions_per_block_bit[t, l]
            adc_wl = float(conversions)
            alu_wl = float(conversions) + vector_ops[l]
            adc_denom = adc_denom + (
                adc_power[t, l] * adc_wl / adc_sample_rate
            )
            alu_denom = alu_denom + (
                alu_power * alu_wl / alu_frequency
            )
        if macro_sharing:
            adc_denom = adc_denom / 2.0
        power_floor = (adc_denom + alu_denom) / available
        if power_floor > period_floor:
            period_floor = power_floor
        if period_floor <= 0:
            out[t] = math.inf
        else:
            out[t] = 1.0 / period_floor
    return out


# ----------------------------------------------------------------------
# Backend interface + the two engines
# ----------------------------------------------------------------------
class ArrayBackend:
    """One array-execution engine for the tensorized task walk.

    Subclasses implement the prune mask and the fused task-grid bound
    kernel; the registry hands out one shared instance per name.
    """

    #: Registry key; subclasses must override with a non-empty name.
    name: str = ""
    description: str = ""

    # -- op-level primitives (conformance-tested per backend) ----------
    def prune_mask(
        self, bounds, positions, incumbent_fitness: float,
        incumbent_index: int,
    ) -> "object":
        """Dominated-task mask over ``positions`` (task indices).

        True where the task provably cannot beat the incumbent: its
        bound is below the incumbent's fitness, or ties it with a
        larger task index (the executor's exact tie-break rule).
        """
        raise NotImplementedError

    def compute_bounds(self, grid: TaskGrid) -> "object":
        """Per-task throughput upper bounds for a whole task grid.

        Must be bit-identical to calling :func:`repro.core.evaluator.
        throughput_upper_bound` once per task.
        """
        raise NotImplementedError


def _ordered_sum(terms):
    """Left-to-right sum over axis 1 of a ``(T, L)`` array: the scalar
    oracle's ordered Python ``sum``, *not* numpy's pairwise ``np.sum``,
    which can differ in the last ulp."""
    acc = np.zeros(terms.shape[0], dtype=np.float64)
    for l in range(terms.shape[1]):  # layer order == scalar order
        acc = acc + terms[:, l]
    return acc


def _ordered_max(terms):
    acc = terms[:, 0].copy()
    for l in range(1, terms.shape[1]):
        acc = np.maximum(acc, terms[:, l])
    return acc


class NumpyBackend(ArrayBackend):
    """Vectorized ``(tasks, layers)`` evaluation (the default)."""

    name = "numpy"
    description = "vectorized numpy engine (default)"

    # -- op-level primitives -------------------------------------------
    def prune_mask(
        self, bounds, positions, incumbent_fitness, incumbent_index
    ):
        bounds = np.asarray(bounds, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.int64)
        values = bounds[positions]
        return (values < incumbent_fitness) | (
            (values == incumbent_fitness)
            & (positions > incumbent_index)
        )

    # -- fused kernels -------------------------------------------------
    def compute_bounds(self, grid: TaskGrid):
        with np.errstate(all="ignore"):
            total_blocks = np.asarray(grid.total_blocks, dtype=np.int64)
            inputs_per_block = np.asarray(
                grid.inputs_per_block, dtype=np.int64
            )
            outputs_per_block = np.asarray(
                grid.outputs_per_block, dtype=np.int64
            )
            group_cap = np.asarray(grid.group_cap, dtype=np.float64)
            crossbars = np.asarray(grid.crossbars, dtype=np.int64)
            conversions_pbb = np.asarray(
                grid.conversions_per_block_bit, dtype=np.int64
            )
            bits = np.asarray(grid.bits, dtype=np.int64)
            adc_power = np.asarray(grid.adc_power, dtype=np.float64)
            vector_ops = np.asarray(grid.vector_ops, dtype=np.float64)
            per_crossbar_fixed = np.asarray(
                grid.per_crossbar_fixed, dtype=np.float64
            )
            peripheral_power = np.asarray(
                grid.peripheral_power, dtype=np.float64
            )
            # Structural floor. Operation order mirrors the scalar
            # PerformanceEvaluator helpers: (blocks * bits) * latency,
            # ((blocks * per_block) * act_bytes) / bandwidth.
            max_group = np.maximum(1, _ordered_max(group_cap))
            bandwidth = grid.edram_bandwidth * max_group
            mvm = (
                total_blocks * bits[:, None]
            ) * grid.crossbar_latency
            load = (
                (total_blocks * inputs_per_block) * grid.act_bytes
            ) / bandwidth[:, None]
            store = (
                (total_blocks * outputs_per_block) * grid.act_bytes
            ) / bandwidth[:, None]
            stage = np.maximum(np.maximum(mvm, load), store)
            period_floor = _ordered_max(stage)

            # Fixed-overhead floor (integer sums are exact in any order).
            total_crossbars = np.sum(crossbars, axis=1)
            fixed = (
                grid.min_macros * grid.per_macro_fixed
                + total_crossbars * per_crossbar_fixed
            )
            available = peripheral_power - fixed

            # Eq. 6 power floor with the rule-b sharing halving.
            conversions = (
                total_blocks * bits[:, None]
            ) * conversions_pbb
            adc_wl = conversions.astype(np.float64)
            alu_wl = adc_wl + vector_ops[None, :]
            adc_denom = _ordered_sum(
                adc_power * adc_wl / grid.adc_sample_rate
            )
            alu_denom = _ordered_sum(
                grid.alu_power * alu_wl / grid.alu_frequency
            )
            if grid.macro_sharing:
                adc_denom = adc_denom / 2.0
            period = np.maximum(
                period_floor, (adc_denom + alu_denom) / available
            )
            return np.where(
                available <= 0,
                0.0,
                np.where(period <= 0, math.inf, 1.0 / period),
            )


class PythonBackend(ArrayBackend):
    """Scalar loops — the conformance reference."""

    name = "python"
    description = "pure-Python loop engine (reference)"

    def prune_mask(
        self, bounds, positions, incumbent_fitness, incumbent_index
    ):
        values = [float(bounds[int(p)]) for p in positions]
        return [
            value < incumbent_fitness
            or (
                value == incumbent_fitness
                and int(position) > incumbent_index
            )
            for value, position in zip(values, positions)
        ]

    def compute_bounds(self, grid: TaskGrid):
        out = np.zeros(grid.num_tasks, dtype=np.float64)
        return _bound_loops(
            grid.total_blocks, grid.inputs_per_block,
            grid.outputs_per_block, grid.group_cap, grid.crossbars,
            grid.conversions_per_block_bit, grid.bits, grid.adc_power,
            grid.vector_ops, grid.per_crossbar_fixed,
            grid.peripheral_power, grid.crossbar_latency,
            grid.act_bytes, grid.edram_bandwidth, grid.per_macro_fixed,
            grid.adc_sample_rate, grid.alu_power, grid.alu_frequency,
            grid.min_macros, grid.macro_sharing, out,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: The backend every config selects unless told otherwise.
DEFAULT_BACKEND = "numpy"

_REGISTRY: Dict[str, ArrayBackend] = {
    backend.name: backend for backend in (NumpyBackend(), PythonBackend())
}

#: Every selectable backend name, default first.
BUILTIN_BACKENDS: Tuple[str, ...] = tuple(_REGISTRY)


def get_backend(name: str = DEFAULT_BACKEND) -> ArrayBackend:
    """Look up a backend by name (instances pass through).

    Unknown names raise :class:`~repro.errors.ConfigurationError`
    naming the valid ones, so configs fail fast at construction, not
    mid-walk.
    """
    if isinstance(name, ArrayBackend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: "
            f"{available_backends()}"
        ) from None


def available_backends() -> List[str]:
    """Every backend name, default first."""
    return list(BUILTIN_BACKENDS)


def backend_status() -> List[Tuple[str, bool, str]]:
    """(name, available, description) for every backend."""
    return [
        (name, True, backend.description)
        for name, backend in _REGISTRY.items()
    ]
