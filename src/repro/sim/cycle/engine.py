"""The two execution engines of the cycle simulator's event wheel.

- ``python`` — the object :class:`~repro.sim.cycle.machine.
  CycleMachine`, kept as the oracle the other engine is pinned
  against;
- ``numpy`` — the structure-of-arrays lowering of
  :mod:`repro.sim.cycle.kernel` with vectorized splitmix64 fault
  pre-draws, driving :func:`~repro.sim.cycle.kernel.wheel_heapq`: the
  C ``heapq`` over flat list tables (the wheel itself is inherently
  sequential — each pop depends on the unit frontiers the previous
  commit left — so the vectorization lives in the lowering and the
  fault streams, and the per-event cost drops to a few integer list
  reads). ``auto``, the default, resolves to ``numpy``.

Both engines return a :class:`~repro.sim.cycle.machine.MachineResult`
that is ``==``-identical field for field — start and finish cycles,
retire order, per-cause stall attribution, per-layer busy accounting
and fault draws. Unknown names raise
:class:`~repro.errors.ConfigurationError` naming the valid ones, so
``SynthesisConfig`` and ``repro simulate --engine`` fail fast.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.ir.dag import IRDag
from repro.sim.cycle.clock import DEFAULT_RESOLUTION, CycleClock
from repro.sim.cycle.kernel import (
    KLASS_NAMES,
    STALL_KINDS,
    LoweredProgram,
    draw_attempts,
    lower_arrays,
    wheel_heapq,
)
from repro.sim.cycle.machine import CycleMachine, MachineResult
from repro.sim.cycle.uops import MicroProgram, lower_dag
from repro.sim.latency import IRLatencyModel


class PreparedProgram:
    """One DAG's lowering context, shared across engines and replays.

    Materializes the object :class:`MicroProgram` (oracle path) and
    the :class:`LoweredProgram` tables (numpy path) lazily and at
    most once each, so a fault-rate sweep lowers once and replays
    many, and a single run never pays for the representation it does
    not use. Both lowerings derive the same clock from the same
    durations, and uid layout is the shared ``3i / 3i+1 / 3i+2``
    node-stage contract.
    """

    def __init__(
        self,
        dag: IRDag,
        latency_model: IRLatencyModel,
        clock: Optional[CycleClock] = None,
        resolution: int = DEFAULT_RESOLUTION,
    ) -> None:
        self.dag = dag
        self.latency_model = latency_model
        self._clock = clock
        self._resolution = resolution
        self._program: Optional[MicroProgram] = None
        self._lowered: Optional[LoweredProgram] = None

    @property
    def program(self) -> MicroProgram:
        if self._program is None:
            self._program = lower_dag(
                self.dag,
                self.latency_model,
                clock=self._clock,
                resolution=self._resolution,
            )
        return self._program

    @property
    def lowered(self) -> LoweredProgram:
        if self._lowered is None:
            self._lowered = lower_arrays(
                self.dag,
                self.latency_model,
                clock=self._clock,
                resolution=self._resolution,
            )
        return self._lowered

    @property
    def clock(self) -> CycleClock:
        if self._program is not None:
            return self._program.clock
        return self.lowered.clock

    @property
    def nodes(self):
        if self._program is not None:
            return self._program.nodes
        return self.lowered.nodes

    def __len__(self) -> int:
        if self._program is not None:
            return len(self._program)
        return self.lowered.n

    def exec_cycles(self, node_index: int) -> int:
        """Execute-stage cycles of the ``node_index``-th node."""
        if self._program is not None:
            return self._program.ops[3 * node_index + 1].cycles
        return self.lowered.exec_cycles(node_index)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class CycleEngine:
    """Base class: a named way to run one prepared program."""

    #: Registry name (``--engine`` value).
    name: str = ""
    #: One-line description for status tables.
    description: str = ""

    def run(
        self,
        prepared: PreparedProgram,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> MachineResult:
        raise NotImplementedError


class PythonEngine(CycleEngine):
    """The object event wheel — the oracle."""

    name = "python"
    description = "object event wheel (pure-python oracle)"

    def run(
        self,
        prepared: PreparedProgram,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> MachineResult:
        machine = CycleMachine(
            prepared.program,
            fault_rate=fault_rate,
            fault_seed=fault_seed,
        )
        return machine.run()


def _assemble_result(
    lowered: LoweredProgram,
    attempts: List[int],
    start: List[int],
    finish: List[int],
    retire: List[int],
    busy_flat: List[int],
    unit_busy: List[int],
    unit_touch: List[int],
    stalls: List[int],
    counters: List[int],
    code: int,
) -> MachineResult:
    """Kernel outputs -> the oracle's :class:`MachineResult` shape."""
    executed = counters[0]
    if code == 1:
        raise SimulationError(
            "successor executed before its producer - "
            "lowered program is not a DAG"
        )
    if code == 2:
        raise SimulationError(
            f"executed {executed} of {lowered.n} micro-ops - the "
            "lowered program has a cycle or unreachable micro-ops"
        )
    num_classes = len(KLASS_NAMES)
    busy: Dict[Tuple[int, str], int] = {}
    for layer in range(lowered.num_layers):
        row = layer * num_classes
        for klass in range(num_classes):
            total = busy_flat[row + klass]
            if total:
                busy[(layer, KLASS_NAMES[klass])] = total
    # Aggregate per kind in unit first-touch order — the same insertion
    # order the object pool's create-on-demand dict produces.
    touched = sorted(
        (unit_touch[u], u)
        for u in range(lowered.num_units)
        if unit_touch[u] > 0
    )
    busy_by_kind: Dict[str, int] = {}
    slots_by_kind: Dict[str, int] = {}
    for _, unit in touched:
        kind = lowered.unit_kinds[unit]
        busy_by_kind[kind] = busy_by_kind.get(kind, 0) + unit_busy[unit]
        slots_by_kind[kind] = (
            slots_by_kind.get(kind, 0) + lowered.unit_capacity[unit]
        )
    return MachineResult(
        start=start,
        finish=finish,
        makespan=counters[1],
        executed=executed,
        stall_cycles=dict(zip(STALL_KINDS, stalls)),
        busy_by_layer_class=busy,
        faults_injected=counters[2],
        attempts=list(attempts),
        retire_order=list(retire[:executed]),
        busy_by_kind=busy_by_kind,
        slots_by_kind=slots_by_kind,
    )


class NumpyEngine(CycleEngine):
    """SoA lowering + the C-``heapq`` flat wheel over list tables."""

    name = "numpy"
    description = (
        "structure-of-arrays wheel with vectorized fault pre-draws"
    )

    def run(
        self,
        prepared: PreparedProgram,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> MachineResult:
        lowered = prepared.lowered
        attempts = draw_attempts(lowered, fault_rate, fault_seed)
        outputs = wheel_heapq(lowered, attempts)
        return _assemble_result(lowered, attempts, *outputs)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: The engine every simulator selects unless told otherwise; resolves
#: to ``numpy`` (both engines are ``==``-exact, so only wall time moves).
DEFAULT_ENGINE = "auto"

_REGISTRY: Dict[str, CycleEngine] = {
    engine.name: engine for engine in (PythonEngine(), NumpyEngine())
}

#: Every concrete engine name, oracle first.
BUILTIN_ENGINES: Tuple[str, ...] = tuple(_REGISTRY)


def resolve_engine_name(name: str = DEFAULT_ENGINE) -> str:
    """Collapse ``auto`` to the concrete engine it selects."""
    return "numpy" if name == "auto" else name


def get_engine(name: str = DEFAULT_ENGINE) -> CycleEngine:
    """Look up an engine by name (``auto`` resolves first; instances
    pass through).

    Unknown names raise :class:`~repro.errors.ConfigurationError`
    naming the valid ones — configs fail fast at construction, not
    mid-replay.
    """
    if isinstance(name, CycleEngine):
        return name
    name = resolve_engine_name(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown cycle engine {name!r}; available: "
            f"{['auto'] + available_engines()}"
        ) from None


def available_engines() -> List[str]:
    """Every concrete engine name, oracle first."""
    return list(BUILTIN_ENGINES)


def engine_status() -> List[Tuple[str, bool, str]]:
    """(name, available, description) for every engine."""
    return [
        (name, True, engine.description)
        for name, engine in _REGISTRY.items()
    ]
