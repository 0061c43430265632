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
from operator import itemgetter, mul
from typing import Dict, List, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.errors import ConfigurationError, InfeasibleError
from repro.hardware.crossbar import crossbar_set_size
from repro.nn.model import CNNModel

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
        """The one Eq. 4 implementation behind :meth:`energy`,
        :meth:`batch_energy` and the memo misses of
        :meth:`top_candidates`.

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
        state. :meth:`top_candidates` inlines this move; this method is
        the oracle it is tested against.
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
        """Run the SA filter; return the best distinct WtDup vectors.

        One fused loop equal to
        :class:`repro.optim.annealing.SimulatedAnnealer` driving
        :meth:`neighbor`, :meth:`energy` and :meth:`batch_energy` from
        :meth:`initial_state` (the oracle the differential tests
        compose): the same ``rng`` calls in the same order, the same
        archive and eviction rule, the same ranked list. Only the
        Python work per proposal differs:

        - Eq. 4 values are memoized per walk, keyed by state (the walk
          revisits states constantly); a miss runs :meth:`_energies`.
        - Every proposal of a round starts from the round's entry
          state, so its crossbar slack and out-of-bounds layers are
          found once per round, and each retry is :meth:`neighbor`'s
          O(1) touched-layer test.
        - ``rng.randrange(n)`` is written out inline as the loop CPython
          runs for it (``_randbelow_with_getrandbits``): draw
          ``n.bit_length()`` bits until the value is below ``n``. Same
          values, same ``rng`` state; the tests pin the loop to
          ``randrange`` for ``n`` in 1..64.
        """
        config = self.config
        schedule = config.annealing_schedule()
        top_k = config.num_wtdup_candidates
        proposal_batch = config.sa_proposal_batch
        sizes = self.set_sizes
        caps = self.dup_caps
        budget = self.num_crossbars
        n_layers = len(sizes)
        bits = n_layers.bit_length()
        getrandbits = rng.getrandbits
        uniform = rng.random
        exp = math.exp
        eq4 = self._energies
        memo: Dict[WtDup, float] = {}

        current = self.initial_state()
        current_energy = memo[current] = eq4((current,))[0]
        archive = {current: current_energy}
        archive_cap = 4 * top_k + 64
        for temperature in schedule.temperatures():
            remaining = schedule.steps_per_temp
            while remaining > 0:
                round_size = min(proposal_batch, remaining)
                remaining -= round_size
                state = current
                slack = budget - sum(map(mul, state, sizes))
                out_of_bounds = [
                    i for i, dup in enumerate(state)
                    if not 1 <= dup <= caps[i]
                ]
                proposals = []
                for _ in range(round_size):
                    proposal = state
                    for _ in range(16):
                        move = getrandbits(2)
                        while move >= 3:
                            move = getrandbits(2)
                        if move == 2:  # shift: shrink one, grow another
                            src = getrandbits(bits)
                            while src >= n_layers:
                                src = getrandbits(bits)
                            dst = getrandbits(bits)
                            while dst >= n_layers:
                                dst = getrandbits(bits)
                            if src == dst:
                                continue
                            if (
                                1 <= state[src] - 1 <= caps[src]
                                and 1 <= state[dst] + 1 <= caps[dst]
                                and sizes[dst] - sizes[src] <= slack
                                and (not out_of_bounds
                                     or all(i in (src, dst)
                                            for i in out_of_bounds))
                            ):
                                moved = list(state)
                                moved[src] -= 1
                                moved[dst] += 1
                                proposal = tuple(moved)
                                break
                        else:  # grow (move 0) or shrink (move 1)
                            index = getrandbits(bits)
                            while index >= n_layers:
                                index = getrandbits(bits)
                            step = 1 if move == 0 else -1
                            dup = state[index] + step
                            if (
                                1 <= dup <= caps[index]
                                and step * sizes[index] <= slack
                                and (not out_of_bounds
                                     or all(i == index
                                            for i in out_of_bounds))
                            ):
                                moved = list(state)
                                moved[index] = dup
                                proposal = tuple(moved)
                                break
                    proposals.append(proposal)
                for candidate in proposals:
                    candidate_energy = memo.get(candidate)
                    if candidate_energy is None:
                        candidate_energy = eq4((candidate,))[0]
                        memo[candidate] = candidate_energy
                    delta = candidate_energy - current_energy
                    if delta <= 0 or uniform() < exp(-delta / temperature):
                        current = candidate
                        current_energy = candidate_energy
                        # A state's energy never changes, so only an
                        # unseen (or evicted) state updates the archive.
                        if current not in archive:
                            archive[current] = current_energy
                            # Keep the archive bounded: drop the worst
                            # states once it is far larger than needed.
                            if len(archive) > archive_cap:
                                archive = dict(sorted(
                                    archive.items(), key=itemgetter(1),
                                )[: 2 * top_k])
        ranked = sorted(archive.items(), key=itemgetter(1))
        return [state for state, _energy in ranked[:top_k]]
