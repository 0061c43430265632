"""Population evaluator for the DSE hot path: one lane kernel.

The EA of :mod:`repro.optim.evolution` and the DSE executor score one
gene at a time through :meth:`repro.core.macro_partition.
MacroPartitionExplorer.score` — a chain of per-layer loops over
materialized objects (gene decode into macro-id tuples, Eq. 5/6
component allocation, the §IV-B pipeline timing model, a fresh
``MeshNoC`` per gene).

:class:`BatchPerformanceEvaluator` scores a whole population in one
call: geometries, workloads and every other gene-independent quantity
are precomputed once per (spec, budget, ResDAC) into a
:class:`PopulationContext` of plain Python lists, floats and ints, and
the per-gene work — group sizing, fixed overhead, the Eq. 6 balanced
delay, the ADC-sharing post-pass, stage times, the fine-grained
pipeline latency and the power account — runs as one pure-Python lane
kernel (:func:`_score_lanes`) that walks each gene with float/int
arithmetic and no intermediate objects. EA populations are small (16
genes), so a lane loop beats array dispatch: numpy would pay more in
per-call overhead than it saves in arithmetic.

Exactness contract
------------------
The kernel is a drop-in replacement for the scalar oracle, not an
approximation: every formula is evaluated with the *same operation
order* as the scalar code (``allocate_components`` /
``PerformanceEvaluator.evaluate``), and IEEE-754 float64 arithmetic is
deterministic, so lane metrics are bit-identical to the scalar ones
wherever the scalar path is defined. Cross-layer reductions the scalar
code performs as ordered Python sums are accumulated in layer order.
``tests/test_batch_eval_differential.py`` pins the contract with
``==`` across the entire model zoo and on the populations real
``explore()`` runs score; full synthesis selects the identical solution
with ``SynthesisConfig.batch_eval`` on or off.

Genes that the scalar path rejects with :class:`InfeasibleError`
(fixed overhead exceeding the peripheral budget, a collapsed
identical-macro budget) simply score ``0.0`` — the same fitness the
explorer assigns them. The kernel skips the stage model for those
lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.component_alloc import (
    fixed_overhead_power,
    layer_workloads,
)
from repro.core.evaluator import PerformanceEvaluator
from repro.errors import ConfigurationError
from repro.hardware.crossbar import required_adc_resolution
from repro.hardware.power import PowerBudget
from repro.ir.builder import DataflowBuilder, DataflowSpec
from repro.nn.workload import model_macs

Gene = Tuple[int, ...]

_ENCODING_BASE = 1000  # keep in sync with repro.core.macro_partition

#: Field order of one scored lane (a kernel row) and of
#: :class:`BatchEvaluation`.
SCORE_FIELDS = (
    "feasible", "fitness", "period", "latency", "throughput", "tops",
    "power", "tops_per_watt", "energy_per_image", "edp",
    "bottleneck_layer", "num_macros",
)

#: The row of every infeasible lane: metrics 0.0, no bottleneck layer.
_INFEASIBLE_ROW = (
    False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1, 0,
)


@dataclass
class BatchEvaluation:
    """Population-wide metric arrays (one entry per gene, in order).

    ``feasible`` marks genes the scalar path evaluates successfully;
    every metric of an infeasible gene is ``0.0`` (``bottleneck_layer``
    -1, ``num_macros`` 0), matching the fitness the explorer assigns
    when :class:`repro.errors.InfeasibleError` is raised. Field meanings
    mirror :class:`repro.core.evaluator.EvaluationResult`.
    """

    feasible: "object"  # (P,) bool ndarray
    fitness: "object"  # (P,) float64 ndarray — EA fitness (img/s)
    period: "object"
    latency: "object"
    throughput: "object"
    tops: "object"
    power: "object"
    tops_per_watt: "object"
    energy_per_image: "object"
    edp: "object"
    bottleneck_layer: "object"  # (P,) int64 ndarray
    num_macros: "object"  # (P,) int64 ndarray

    def __len__(self) -> int:
        return int(self.fitness.shape[0])


@dataclass
class PopulationContext:
    """Gene-independent inputs of the lane kernel, as plain Python
    values (built once per evaluator).

    Per-layer lists have one entry per weighted layer. The inter-layer
    structure comes from ``spec.model.interlayer_edges()`` in its own
    order: ``comm_edges`` are its ``(producer, consumer)`` pairs (the
    §IV-B activation-transfer accumulation order), ``lat_inputs[c]``
    lists consumer ``c``'s ``(producer, fraction)`` inputs (the
    fine-grained pipeline forward pass).
    """

    mvm: List[float]  # exact MVM time per layer
    load_num: List[float]  # (total_blocks * inputs_per_block) * act_bytes
    store_num: List[float]  # (total_blocks * outputs_per_block) * act_bytes
    total_blocks: List[int]
    #: (layer, merge rounds, outputs_per_block * act_bytes) for every
    #: row-tiled layer (``row_tiles > 1``), in layer order.
    merges: List[Tuple[int, int, float]]
    out_bytes: List[float]  # out_positions * cols * act_bytes
    adc_wl: List[float]  # Eq. 5 ADC workload
    alu_wl: List[float]  # Eq. 5 ALU workload
    adc_powers: List[float]  # ADC power at each layer's resolution
    comm_edges: List[Tuple[int, int]]
    lat_inputs: List[List[Tuple[int, float]]]
    denom: float  # Eq. 6 balanced-delay denominator
    per_macro_fixed: float
    crossbar_fixed: float
    peripheral_power: float
    adc_rate: float
    alu_rate: float
    alu_power: float
    adc_power_unit: float  # identical-macro ADC unit power (§V-C2)
    edram_bandwidth: float
    noc_port_bandwidth: float
    noc_hop_latency: float
    rram_power: float
    macs2: float  # 2 * model MACs
    overlap_window: int
    enable_macro_sharing: bool
    identical_macros: bool

    @property
    def num_layers(self) -> int:
        return len(self.mvm)


def _score_lanes(
    ctx: PopulationContext, genes: Sequence[Gene]
) -> List[tuple]:
    """Score every gene; one :data:`SCORE_FIELDS` row per gene.

    Decodes and validates each gene like ``decode_gene`` /
    ``MacroPartition.from_gene`` (malformed genes raise
    :class:`ConfigurationError`), then walks it through the scalar
    oracle's allocation and timing math in the oracle's operation
    order. Infeasible lanes get :data:`_INFEASIBLE_ROW` without
    touching the stage model.

    Every divisor of a feasible lane is a positive hardware constant
    (validated by the technology layer), a product of such constants
    with group sizes >= 1, or a lane value the feasibility tests
    bound away from zero — so the kernel never divides by zero where
    the scalar oracle does not.
    """
    n = ctx.num_layers
    mvm = ctx.mvm
    load_num = ctx.load_num
    store_num = ctx.store_num
    total_blocks = ctx.total_blocks
    merges = ctx.merges
    out_bytes = ctx.out_bytes
    adc_wl = ctx.adc_wl
    alu_wl = ctx.alu_wl
    adc_powers = ctx.adc_powers
    comm_edges = ctx.comm_edges
    lat_inputs = ctx.lat_inputs
    denom = ctx.denom
    per_macro_fixed = ctx.per_macro_fixed
    crossbar_fixed = ctx.crossbar_fixed
    peripheral_power = ctx.peripheral_power
    adc_rate = ctx.adc_rate
    alu_rate = ctx.alu_rate
    alu_power = ctx.alu_power
    adc_power_unit = ctx.adc_power_unit
    edram_bandwidth = ctx.edram_bandwidth
    noc_bw = ctx.noc_port_bandwidth
    hop_latency = ctx.noc_hop_latency
    rram_power = ctx.rram_power
    macs2 = ctx.macs2
    window = max(1, ctx.overlap_window)
    sharing = ctx.enable_macro_sharing
    identical = ctx.identical_macros
    layers = range(n)
    # Gene-independent infeasibility: the scalar path raises for every
    # gene (no workload to allocate for, or an identical-macro unit
    # price of zero, which collapses the per-macro budget to 0/0).
    if identical:
        dead = adc_power_unit == 0.0 or alu_power == 0.0
    else:
        dead = denom <= 0.0

    rows: List[tuple] = []
    for gene in genes:
        if len(gene) != n:
            raise ConfigurationError(
                f"population shape ({len(genes)}, {len(gene)}) does not "
                f"match {n} layers"
            )
        # -- decode: contiguous owner groups in layer order -------------
        owner_of = [0] * n
        start = [0] * n
        size = [0] * n
        pairs = []  # (sharer i, owner j), ascending i
        total = 0
        for layer, value in enumerate(gene):
            owner = value // _ENCODING_BASE
            count = value - owner * _ENCODING_BASE
            if count < 1:
                raise ConfigurationError("batch decode: #macros < 1")
            if owner == layer:
                start[layer] = total
                size[layer] = count
                total += count
            elif owner > layer:
                raise ConfigurationError(
                    "batch decode: owner > layer index"
                )
            elif owner < 0 or owner_of[owner] != owner:
                raise ConfigurationError(
                    "batch decode: layer shares with a non-owner"
                )
            else:
                start[layer] = start[owner]
                size[layer] = size[owner]
                pairs.append((layer, owner))
            owner_of[layer] = owner

        # -- Eq. 6 allocation + rule-b sharing --------------------------
        fixed = total * per_macro_fixed + crossbar_fixed
        available = peripheral_power - fixed
        if dead or not available > 0.0:
            rows.append(_INFEASIBLE_ROW)
            continue
        if identical:
            adc_demand = max([wl / g for wl, g in zip(adc_wl, size)])
            alu_demand = max([wl / g for wl, g in zip(alu_wl, size)])
            adc_share_weight = adc_power_unit * adc_demand / adc_rate
            alu_share_weight = alu_power * alu_demand / alu_rate
            weight_sum = adc_share_weight + alu_share_weight
            if not weight_sum > 0.0:
                rows.append(_INFEASIBLE_ROW)
                continue
            adc_power_total = available * adc_share_weight / weight_sum
            alu_power_total = available * alu_share_weight / weight_sum
            per_macro_adc = adc_power_total / (total * adc_power_unit)
            per_macro_alu = alu_power_total / (total * alu_power)
            if not (per_macro_adc > 0.0 and per_macro_alu > 0.0):
                rows.append(_INFEASIBLE_ROW)
                continue
            adc_delay = [
                wl / (adc_rate * (per_macro_adc * g))
                for wl, g in zip(adc_wl, size)
            ]
            alu_delay = [
                wl / (alu_rate * (per_macro_alu * g))
                for wl, g in zip(alu_wl, size)
            ]
            adc_alu_power = adc_power_total + alu_power_total
        else:
            balanced = denom / available
            t_adc = adc_rate * balanced
            t_alu = alu_rate * balanced
            adc_alloc = [wl / t_adc for wl in adc_wl]
            alu_alloc = [wl / t_alu for wl in alu_wl]
            # Sharing post-pass, per sharer in ascending layer order —
            # the pair order MacroPartition.from_gene hands the oracle.
            partner = {}
            savings = 0.0
            if sharing:
                for i, j in pairs:
                    a_i = adc_alloc[i]
                    a_j = adc_alloc[j]
                    p_i = adc_powers[i]
                    p_j = adc_powers[j]
                    bank = a_j if a_j > a_i else a_i
                    unit = p_j if p_j > p_i else p_i
                    separate = p_j * a_j + p_i * a_i
                    merged = unit * bank
                    if merged < separate:
                        savings = savings + (separate - merged)
                        partner[i] = j
                        partner[j] = i
            if savings > 0.0 and savings < available:
                scale = available / (available - savings)
            else:
                scale = 1.0
            alu_delay = [
                wl / (alu_rate * (a * scale))
                for wl, a in zip(alu_wl, alu_alloc)
            ]
            adc_delay = []
            adc_used = 0.0
            for layer in layers:
                a_l = adc_alloc[layer]
                pj = partner.get(layer)
                if pj is None:
                    effective = a_l * scale
                    adc_used = adc_used + (adc_powers[layer] * a_l) * scale
                else:
                    a_p = adc_alloc[pj]
                    bank = (a_l if a_l > a_p else a_p) * scale
                    overlap = 1.0 - abs(layer - pj) / window
                    if overlap < 0.0:
                        overlap = 0.0
                    effective = bank / (1.0 + overlap)
                    # Shared banks are counted once, at the pair's
                    # first (owner-side) index.
                    if layer < pj:
                        p_l = adc_powers[layer]
                        p_p = adc_powers[pj]
                        adc_used = adc_used + (
                            p_l if p_l > p_p else p_p
                        ) * bank
                adc_delay.append(adc_wl[layer] / (adc_rate * effective))
            alu_used = 0.0
            for a in alu_alloc:
                alu_used = alu_used + (alu_power * a) * scale
            adc_alu_power = adc_used + alu_used

        # -- §IV-B stage times ------------------------------------------
        cols = int(math.ceil(math.sqrt(float(total))))
        comm = [0.0] * n
        # Partial-sum merge for row-tiled layers spanning macros.
        for layer, rounds, per_round_num in merges:
            group = size[layer]
            if group > 1:
                s = start[layer]
                hops = abs(s // cols - (s + 1) // cols) + abs(
                    s % cols - (s + 1) % cols
                )
                if hops < 1:
                    hops = 1
                per_block = rounds * (
                    per_round_num / group / noc_bw + hops * hop_latency
                )
                comm[layer] = total_blocks[layer] * per_block
        # Activation transfers, per inter-layer edge in model order.
        for producer, consumer in comm_edges:
            if owner_of[producer] == owner_of[consumer]:
                continue
            gp = size[producer]
            gc = size[consumer]
            s0 = start[producer]
            s1 = s0 + gp - 1
            d0 = start[consumer]
            d1 = d0 + gc - 1
            r_s0, c_s0 = s0 // cols, s0 % cols
            r_s1, c_s1 = s1 // cols, s1 % cols
            r_d0, c_d0 = d0 // cols, d0 % cols
            r_d1, c_d1 = d1 // cols, d1 % cols
            hops = min(
                abs(r_s0 - r_d0) + abs(c_s0 - c_d0),
                abs(r_s1 - r_d0) + abs(c_s1 - c_d0),
                abs(r_s0 - r_d1) + abs(c_s0 - c_d1),
                abs(r_s1 - r_d1) + abs(c_s1 - c_d1),
            )
            ports = gp if gp < gc else gc
            comm[producer] = comm[producer] + (
                out_bytes[producer] / (noc_bw * ports)
                + (total_blocks[producer] * hops) * hop_latency
            )
        # Stage maxima; the bottleneck is the first slowest layer.
        stage = [
            max(
                mvm[layer], adc_delay[layer], alu_delay[layer],
                load_num[layer] / (edram_bandwidth * size[layer]),
                store_num[layer] / (edram_bandwidth * size[layer]),
                comm[layer],
            )
            for layer in layers
        ]
        period = max(stage)
        bottleneck = stage.index(period)
        # Fine-grained pipeline latency (forward pass).
        starts = [0.0] * n
        latency = 0.0
        for layer in layers:
            begin = 0.0
            for producer, fraction in lat_inputs[layer]:
                ready = starts[producer] + stage[producer] * fraction
                if ready > begin:
                    begin = ready
            starts[layer] = begin
            end = begin + stage[layer]
            if layer == 0 or end > latency:
                latency = end

        # -- power account + derived metrics ----------------------------
        power = rram_power + (fixed + adc_alu_power)
        throughput = 1.0 / period
        tops = macs2 / period / 1e12
        energy = power * latency
        rows.append((
            True, throughput, period, latency, throughput, tops, power,
            tops / power if power > 0.0 else 0.0, energy,
            energy * latency, bottleneck, total,
        ))
    return rows


class BatchPerformanceEvaluator:
    """Scores whole gene populations for one (spec, budget, ResDAC).

    Parameters mirror the knobs :meth:`MacroPartitionExplorer.score`
    reads from :class:`repro.core.config.SynthesisConfig`:

    enable_macro_sharing:
        Apply rule-b sharing pairs (the scalar path passes ``()`` as
        ``sharing_pairs`` when disabled).
    identical_macros:
        Use the §V-C2 identical-macro allocation (the scalar
        ``identical_macros=not config.specialized_macros``).
    """

    def __init__(
        self,
        spec: DataflowSpec,
        budget: PowerBudget,
        res_dac: int,
        enable_macro_sharing: bool = True,
        identical_macros: bool = False,
        overlap_window: int = 4,
    ) -> None:
        self.spec = spec
        self.budget = budget
        self.res_dac = res_dac
        self.enable_macro_sharing = enable_macro_sharing
        self.identical_macros = identical_macros
        self.overlap_window = overlap_window
        self._precompute()

    # ------------------------------------------------------------------
    # Gene-independent context (computed once per evaluator)
    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        spec = self.spec
        params = spec.params
        budget = self.budget
        geos = spec.geometries
        n = len(geos)
        self.num_layers = n

        # The scalar oracle's own helpers supply every per-layer scalar,
        # so a model change propagates here automatically.
        oracle = PerformanceEvaluator(spec, budget)
        act_bytes = oracle._bytes_per_activation()
        # load/store numerators exactly as _memory_times composes them:
        # ((total_blocks * inputs_per_block) * act_bytes) / bandwidth.
        merges = [
            (geo.index, math.ceil(math.log2(geo.row_tiles)),
             geo.outputs_per_block * act_bytes)
            for geo in geos if geo.row_tiles > 1
        ]

        # Eq. 5 workloads and the Eq. 6 denominator (all gene-free).
        adc_wl, alu_wl = layer_workloads(geos, spec.model, spec.bits)
        xb_size = budget.xb_size
        adc_lo, adc_hi = params.adc_resolution_range
        adc_resolutions = [
            required_adc_resolution(
                min(xb_size, geo.rows), budget.res_rram, self.res_dac,
                min_resolution=adc_lo, max_resolution=adc_hi,
            )
            for geo in geos
        ]
        adc_powers = [
            params.adc_power_of(r) for r in adc_resolutions
        ]
        adc_rate = params.adc_sample_rate
        alu_rate = params.alu_frequency
        # Ordered Python sums, identical to allocate_components.
        denom = sum(
            p * wl / adc_rate for p, wl in zip(adc_powers, adc_wl)
        ) + sum(
            params.alu_power * wl / alu_rate for wl in alu_wl
        )

        # Fixed-overhead constants, composed exactly as
        # fixed_overhead_power does: fixed == total_macros * per_macro
        # + total_crossbars * per_crossbar. The assert pins this against
        # the real function, so a power-model change there cannot
        # silently diverge from the kernel's copy.
        per_macro_fixed = (
            params.edram_power + params.noc_power
            + params.register_power_per_macro
        )
        per_crossbar = xb_size * (
            params.dac_power_of(self.res_dac) + params.sample_hold_power
        )
        total_crossbars = sum(geo.crossbars for geo in geos)
        crossbar_fixed = total_crossbars * per_crossbar
        assert fixed_overhead_power(
            geos, [[0]] * n, params, xb_size, self.res_dac
        ) == 1 * per_macro_fixed + crossbar_fixed

        # Communication / pipeline structure in the exact iteration
        # order of spec.model.interlayer_edges().
        edges = spec.model.interlayer_edges()
        builder = DataflowBuilder(spec)
        lat_inputs: List[List[Tuple[int, float]]] = [[] for _ in geos]
        for producer, consumer in edges:
            first_needed = builder.producer_block_for(
                geos[producer], geos[consumer], 0
            )
            lat_inputs[consumer].append((
                producer,
                (first_needed + 1) / geos[producer].total_blocks,
            ))

        self._ctx = PopulationContext(
            mvm=[oracle._mvm_time(geo) for geo in geos],
            load_num=[
                geo.total_blocks * geo.inputs_per_block * act_bytes
                for geo in geos
            ],
            store_num=[
                geo.total_blocks * geo.outputs_per_block * act_bytes
                for geo in geos
            ],
            total_blocks=[geo.total_blocks for geo in geos],
            merges=merges,
            out_bytes=[
                geo.out_positions * geo.cols * act_bytes for geo in geos
            ],
            adc_wl=adc_wl,
            alu_wl=alu_wl,
            adc_powers=adc_powers,
            comm_edges=list(edges),
            lat_inputs=lat_inputs,
            denom=denom,
            per_macro_fixed=per_macro_fixed,
            crossbar_fixed=crossbar_fixed,
            peripheral_power=budget.peripheral_power,
            adc_rate=adc_rate,
            alu_rate=alu_rate,
            alu_power=params.alu_power,
            # Identical macros carry the worst-case ADC resolution.
            adc_power_unit=params.adc_power_of(max(adc_resolutions)),
            edram_bandwidth=params.edram_bandwidth,
            noc_port_bandwidth=params.noc_port_bandwidth,
            noc_hop_latency=params.noc_hop_latency,
            rram_power=total_crossbars * params.crossbar_power_of(xb_size),
            macs2=2.0 * model_macs(spec.model),
            overlap_window=self.overlap_window,
            enable_macro_sharing=self.enable_macro_sharing,
            identical_macros=self.identical_macros,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def score_rows(self, genes: Sequence[Gene]) -> List[tuple]:
        """One :data:`SCORE_FIELDS` row per gene (plain Python values).

        Genes that ``decode_gene`` / ``MacroPartition.from_gene`` would
        reject raise :class:`ConfigurationError`.
        """
        return _score_lanes(self._ctx, genes)

    def evaluate_population(
        self, genes: Sequence[Gene]
    ) -> BatchEvaluation:
        """Score every gene into numpy arrays; metrics are 0.0 where
        infeasible. For cold callers (tests, benches): the EA reads
        :meth:`fitness_of` / :meth:`score_rows` instead."""
        import numpy as np

        rows = self.score_rows(genes)
        columns = list(zip(*rows)) or [()] * len(SCORE_FIELDS)
        dtypes = {
            "feasible": np.bool_,
            "bottleneck_layer": np.int64,
            "num_macros": np.int64,
        }
        return BatchEvaluation(**{
            name: np.array(column, dtype=dtypes.get(name, np.float64))
            for name, column in zip(SCORE_FIELDS, columns)
        })

    def fitness_of(self, genes: Sequence[Gene]) -> List[float]:
        """EA-facing adapter: population fitness as plain floats."""
        return [row[1] for row in self.score_rows(genes)]
