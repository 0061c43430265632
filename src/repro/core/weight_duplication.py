"""Stage 1 — weight duplication via the SA-based filter (§IV-A).

The constrained problem (Eq. 2)::

    maximize   Performance(WtDup)
    s.t.       sum_i WtDup_i * set_i <= #crossbar

is pruned with simulated annealing over the surrogate energy (Eq. 4)::

    E = stdev_i(WO_i * HO_i / WtDup_i)
        + alpha * stdev_i(AccessVolume_i)
    AccessVolume_i = WtDup_i * (WK_i^2 * CI_i + CO_i)

The first term balances per-layer computation (equal block counts means a
balanced inter-layer pipeline); the second penalizes skewed data-access
demand. The filter returns the ``top_k`` lowest-energy *distinct*
duplication vectors, which Alg. 1 then traverses exactly (line 7).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.errors import ConfigurationError, InfeasibleError
from repro.hardware.crossbar import crossbar_set_size
from repro.nn.model import CNNModel
from repro.optim.annealing import AnnealingSchedule, SimulatedAnnealer

WtDup = Tuple[int, ...]


@dataclass
class WeightDuplicationFilter:
    """SA-based WtDup candidate filter for one outer design point."""

    model: CNNModel
    xb_size: int
    res_rram: int
    num_crossbars: int
    config: SynthesisConfig

    def __post_init__(self) -> None:
        layers = self.model.weighted_layers
        self.set_sizes: List[int] = [
            crossbar_set_size(
                layer, self.xb_size, self.res_rram,
                self.model.weight_precision,
            )
            for layer in layers
        ]
        self.out_positions: List[int] = []
        self.volume_units: List[int] = []
        for layer in layers:
            assert layer.output_shape is not None
            _, ho, wo = layer.output_shape
            self.out_positions.append(ho * wo)
            rows = layer.weight_rows  # type: ignore[attr-defined]
            cols = getattr(layer, "out_channels", None)
            if cols is None:
                cols = layer.out_features  # type: ignore[attr-defined]
            self.volume_units.append(rows + cols)
        floor = sum(self.set_sizes)
        if floor > self.num_crossbars:
            raise InfeasibleError(
                f"{self.model.name}: needs {floor} crossbars at WtDup=1 "
                f"but the budget is {self.num_crossbars}"
            )
        # WtDup_i never exceeds the layer's output count: more copies than
        # output positions cannot be used within one image.
        self.dup_caps: List[int] = list(self.out_positions)

    # ------------------------------------------------------------------
    # Eq. 2 feasibility
    # ------------------------------------------------------------------
    def _check_length(self, wt_dup: Sequence[int]) -> None:
        if len(wt_dup) != len(self.set_sizes):
            raise ConfigurationError(
                f"{self.model.name}: WtDup has {len(wt_dup)} entries, "
                f"expected {len(self.set_sizes)} (one per weighted layer)"
            )

    def crossbars_used(self, wt_dup: Sequence[int]) -> int:
        self._check_length(wt_dup)
        return sum(
            dup * size for dup, size in zip(wt_dup, self.set_sizes)
        )

    def is_feasible(self, wt_dup: Sequence[int]) -> bool:
        self._check_length(wt_dup)
        if any(d < 1 for d in wt_dup):
            return False
        if any(d > cap for d, cap in zip(wt_dup, self.dup_caps)):
            return False
        return self.crossbars_used(wt_dup) <= self.num_crossbars

    # ------------------------------------------------------------------
    # Eq. 4 energy
    # ------------------------------------------------------------------
    def energy(self, wt_dup: Sequence[int]) -> float:
        return self._energies((wt_dup,))[0]

    def batch_energy(self, states: Sequence[Sequence[int]]) -> List[float]:
        """Eq. 4 for a whole proposal round (one value per state)."""
        return self._energies(states)

    def _energies(self, states: Sequence[Sequence[int]]) -> List[float]:
        """The one Eq. 4 implementation behind :meth:`energy` and
        :meth:`batch_energy`.

        Both stdev terms run :func:`repro.utils.mathutils.stdev`'s
        operations in its order (left-to-right ``sum``, ``sum / n``,
        ``(x - mu) ** 2``, ``sqrt(sum / n)``) with the volumes kept as
        Python ints, so every value is bit-identical to ``stdev``.
        """
        positions = self.out_positions
        units = self.volume_units
        alpha = self.config.sa_alpha
        count = len(positions)
        values = []
        for state in states:
            steps = [p / d for p, d in zip(positions, state)]
            mu = sum(steps) / count
            step_spread = math.sqrt(
                sum((x - mu) ** 2 for x in steps) / count
            )
            volumes = [d * u for d, u in zip(state, units)]
            mu = sum(volumes) / count
            volume_spread = math.sqrt(
                sum((x - mu) ** 2 for x in volumes) / count
            )
            values.append(step_spread + alpha * volume_spread)
        return values

    # ------------------------------------------------------------------
    # Initial state: greedy balanced fill
    # ------------------------------------------------------------------
    def initial_state(self) -> WtDup:
        """All-ones, then repeatedly duplicate the layer with the most
        remaining steps while the budget allows — a cheap approximation
        of the balanced pipeline the SA walk refines."""
        dup = [1] * len(self.set_sizes)
        remaining = self.num_crossbars - self.crossbars_used(dup)
        improved = True
        while improved:
            improved = False
            order = sorted(
                range(len(dup)),
                key=lambda i: self.out_positions[i] / dup[i],
                reverse=True,
            )
            for index in order:
                cost = self.set_sizes[index]
                if cost <= remaining and dup[index] < self.dup_caps[index]:
                    dup[index] += 1
                    remaining -= cost
                    improved = True
                    break
        return tuple(dup)

    # ------------------------------------------------------------------
    # SA neighborhood
    # ------------------------------------------------------------------
    def neighbor(self, state: WtDup, rng: random.Random) -> WtDup:
        """One feasible random move: grow, shrink, or shift duplication.

        Retries a few times to find a feasible move; falls back to the
        unchanged state when the budget is completely tight.

        Each retry costs O(1): the state's crossbar slack and its
        out-of-bounds layers are found once, and a move is feasible iff
        the one or two layers it touches stay in ``[1, cap]``, its
        ``set_sizes`` delta fits the slack, and it touches every
        out-of-bounds layer — exactly :meth:`is_feasible` on the moved
        state, so the walk and its RNG draws are unchanged.
        """
        self._check_length(state)
        sizes = self.set_sizes
        caps = self.dup_caps
        slack = self.num_crossbars
        out_of_bounds = []
        for index, (dup, size, cap) in enumerate(zip(state, sizes, caps)):
            slack -= dup * size
            if dup < 1 or dup > cap:
                out_of_bounds.append(index)
        n_layers = len(state)
        for _ in range(16):
            move = rng.randrange(3)
            if move == 2:  # shift: shrink one, grow another
                src = rng.randrange(n_layers)
                dst = rng.randrange(n_layers)
                if src == dst:
                    continue
                if (
                    1 <= state[src] - 1 <= caps[src]
                    and 1 <= state[dst] + 1 <= caps[dst]
                    and sizes[dst] - sizes[src] <= slack
                    and (not out_of_bounds
                         or all(i in (src, dst) for i in out_of_bounds))
                ):
                    candidate = list(state)
                    candidate[src] -= 1
                    candidate[dst] += 1
                    return tuple(candidate)
            else:  # grow (move 0) or shrink (move 1) one layer
                index = rng.randrange(n_layers)
                step = 1 if move == 0 else -1
                dup = state[index] + step
                if (
                    1 <= dup <= caps[index]
                    and step * sizes[index] <= slack
                    and (not out_of_bounds
                         or all(i == index for i in out_of_bounds))
                ):
                    candidate = list(state)
                    candidate[index] = dup
                    return tuple(candidate)
        return state

    # ------------------------------------------------------------------
    # Entry point (Alg. 1 line 6)
    # ------------------------------------------------------------------
    def top_candidates(self, rng: random.Random) -> List[WtDup]:
        """Run the SA filter; return the best distinct WtDup vectors."""
        schedule = AnnealingSchedule(
            initial_temperature=self.config.sa_initial_temperature,
            min_temperature=self.config.sa_min_temperature,
            cooling_rate=self.config.sa_cooling_rate,
            steps_per_temp=self.config.sa_steps_per_temp,
        )
        annealer = SimulatedAnnealer(
            energy=self.energy,
            neighbor=self.neighbor,
            state_key=lambda state: state,
            rng=rng,
            schedule=schedule,
            batch_energy=self.batch_energy,
            proposal_batch=self.config.sa_proposal_batch,
        )
        ranked = annealer.run(
            self.initial_state(), top_k=self.config.num_wtdup_candidates
        )
        return [state for state, _energy in ranked]
