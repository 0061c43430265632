"""Zoo-wide cross-validation of the analytical model.

Every number the DSE optimizes flows from one closed-form latency
algebra; nothing else in the repo checks it. :func:`cross_validate`
replays a finished solution on the cycle simulator and compares, on a
common steady-state basis:

- **throughput** — the analytical ``1 / period`` against the cycle
  machine's occupancy roofline (per-layer busy cycles on the executed
  schedule, scaled to the full image);
- **energy per image** — the analytical ``power x period`` against the
  cycle account's bottom-up component pricing times its own period.

The two paths share only the per-IR rate tables; structure (stage
algebra vs executed DAG occupancy) and power (budget split vs
component inventory) are computed independently, so drift in either
model shows up as a deviation here. :data:`DEFAULT_TOLERANCE` is the
stated agreement bound, calibrated on the full model zoo at its
feasibility-floor power budgets (measured worst case: 3.3% throughput
and 12.2% energy, both on alexnet, whose DAG omits the pooling/ReLU
vector ops the analytical ALU term carries; other models sit at or
below 7%, leaving headroom for technology profiles off the default).

Faulty replays (``fault_rate > 0``) are deliberately rejected: the
analytical model has no fault story, so a comparison would be
meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.sim.cycle.report import CycleSimReport
from repro.sim.cycle.simulator import CycleSimulator

#: Stated relative tolerance for analytical-vs-cycle throughput and
#: energy agreement, zoo-calibrated (see module docstring).
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class CrossValidationReport:
    """Outcome of one analytical-vs-cycle comparison."""

    model_name: str
    tolerance: float
    analytical_throughput: float
    cycle_throughput: float
    throughput_deviation: float
    analytical_energy: float
    cycle_energy: float
    energy_deviation: float
    cycle_report: CycleSimReport

    @property
    def max_deviation(self) -> float:
        return max(self.throughput_deviation, self.energy_deviation)

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance

    def ensure(self) -> "CrossValidationReport":
        """Raise with an actionable message unless within tolerance."""
        if not self.ok:
            raise SimulationError(
                f"cycle simulation of {self.model_name} deviates from "
                f"the analytical model beyond tolerance "
                f"{self.tolerance:.3f}: throughput "
                f"{self.analytical_throughput:.3f} vs "
                f"{self.cycle_throughput:.3f} img/s "
                f"(dev {self.throughput_deviation:.3f}), energy/image "
                f"{self.analytical_energy:.3e} vs "
                f"{self.cycle_energy:.3e} J "
                f"(dev {self.energy_deviation:.3f}). One of the two "
                f"models has drifted — diff sim/latency.py against "
                f"core/evaluator.py, or rerun with a looser --tol to "
                f"inspect the report."
            )
        return self

    def to_payload(self) -> Dict[str, object]:
        return {
            "model": self.model_name,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "throughput": {
                "analytical": self.analytical_throughput,
                "cycle": self.cycle_throughput,
                "deviation": self.throughput_deviation,
            },
            "energy_per_image": {
                "analytical": self.analytical_energy,
                "cycle": self.cycle_energy,
                "deviation": self.energy_deviation,
            },
            "cycle": self.cycle_report.to_payload(),
        }


def _relative_deviation(reference: float, value: float) -> float:
    if reference <= 0:
        raise SimulationError(
            f"analytical reference must be positive, got {reference}"
        )
    return abs(value - reference) / reference


def cross_validate(
    solution,
    tol: float = DEFAULT_TOLERANCE,
    cycle_time: Optional[float] = None,
    resolution: Optional[int] = None,
    engine: Optional[str] = None,
) -> CrossValidationReport:
    """Replay ``solution`` cycle-accurately and compare both models.

    ``solution`` is a :class:`~repro.core.solution.SynthesisSolution`.
    Returns the comparison report; call
    :meth:`CrossValidationReport.ensure` to turn disagreement into a
    :class:`~repro.errors.SimulationError`. ``engine`` names a cycle
    engine (default ``auto`` = ``numpy``) — both are ``==``-exact
    against each other, so the choice only moves wall time.
    """
    if tol <= 0:
        raise SimulationError(f"tolerance must be positive, got {tol}")
    kwargs = {}
    if cycle_time is not None:
        kwargs["cycle_time"] = cycle_time
    if resolution is not None:
        kwargs["resolution"] = resolution
    if engine is not None:
        kwargs["engine"] = engine
    simulator = CycleSimulator.for_solution(solution, **kwargs)
    if simulator.fault_rate != 0.0:
        raise SimulationError(
            "cross-validation requires a fault-free replay "
            "(fault_rate=0); the analytical model has no fault "
            "semantics to compare against"
        )
    report = simulator.simulate()

    evaluation = solution.evaluation
    analytical_throughput = evaluation.throughput
    analytical_energy = evaluation.power * evaluation.period

    return CrossValidationReport(
        model_name=solution.model_name,
        tolerance=tol,
        analytical_throughput=analytical_throughput,
        cycle_throughput=report.steady_throughput,
        throughput_deviation=_relative_deviation(
            analytical_throughput, report.steady_throughput
        ),
        analytical_energy=analytical_energy,
        cycle_energy=report.steady_energy_per_image,
        energy_deviation=_relative_deviation(
            analytical_energy, report.steady_energy_per_image
        ),
        cycle_report=report,
    )
