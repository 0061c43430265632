"""The two array-execution backends of the tensorized DSE paths.

The grid evaluator of :mod:`repro.core.grid_eval` flattens the outer
(design point x WtDup x ResDAC) task walk into ``(tasks, layers)``
arrays, and :mod:`repro.core.batch_eval` does the same for the hottest
kernel in the system — the ``(population, layers)`` EA scoring. Both
hand their arrays to an :class:`ArrayBackend`, selected by name through
``SynthesisConfig.backend`` (``--backend`` on the CLI):

``numpy``
    The default: vectorized ``(tasks, layers)`` / ``(population,
    layers)`` operations, layer reductions accumulated in layer order
    so every value is bit-identical to the scalar oracle.
``python``
    Scalar loops over the same arrays, in exactly the scalar oracle's
    operation order — the conformance reference ``numpy`` is held to.

Exactness contract
------------------
Both backends return bit-identical results (``==``, not merely close)
for the op-level primitives (``prune_mask`` and the integer
``decode_population`` / ``mesh_hops``)
and the fused kernels (:meth:`ArrayBackend.compute_bounds`,
:meth:`ArrayBackend.score_population`): the DSE pruning decisions and
EA tournaments ride on exact float comparisons, and the whole point of
the tensorized walk is that it cannot change a solution.
``tests/test_backend_conformance.py`` pins the contract.

Content-key contract
--------------------
A backend changes *how fast* the task walk and the EA inner loop run,
never *what* they return, so ``backend`` (and the ``grid_eval`` /
``batch_eval`` switches) live in
:data:`repro.core.executor.EXECUTION_ONLY_FIELDS` and are excluded from
every content fingerprint — eval memos, serve job keys and store
entries are shared across backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Gene encoding base — keep in sync with repro.core.macro_partition.
_ENCODING_BASE = 1000


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


# ----------------------------------------------------------------------
# The population-scoring input/output contract (batch_eval seam)
# ----------------------------------------------------------------------
@dataclass
class PopulationContext:
    """Gene-independent context for fused population scoring.

    Built once per (spec, budget, ResDAC) by
    :class:`repro.core.batch_eval.BatchPerformanceEvaluator` — all
    per-layer arrays are host numpy (float64/int64) regardless of the
    backend that consumes them, exactly like :class:`TaskGrid`. The
    inter-layer edge structure arrives as two CSR walks so the loop
    kernel never touches Python containers:

    * ``comm_offsets`` / ``comm_consumer`` — producer-major, in
      ``spec.model.interlayer_edges()`` order: the §IV-B activation
      transfer accumulation order.
    * ``lat_offsets`` / ``lat_producer`` / ``lat_fraction`` —
      consumer-major: the fine-grained pipeline forward pass.
    """

    # Per-layer geometry / workload arrays (L,).
    mvm: "object"  # float64 — exact MVM time per layer
    load_num: "object"  # float64 — load-bytes numerator
    store_num: "object"  # float64 — store-bytes numerator
    total_blocks: "object"  # int64
    row_tiles: "object"  # int64
    merge_rounds: "object"  # int64 — ceil(log2(row_tiles)) when > 1
    per_round_num: "object"  # float64 — outputs_per_block * act_bytes
    out_bytes: "object"  # float64 — out_positions * cols * act_bytes
    adc_wl: "object"  # float64 — Eq. 5 ADC workload
    alu_wl: "object"  # float64 — Eq. 5 ALU workload
    adc_powers: "object"  # float64 — ADC power at required resolution
    # Inter-layer edges (CSR, host int64/float64).
    comm_offsets: "object"  # (L+1,) int64
    comm_consumer: "object"  # (E,) int64
    lat_offsets: "object"  # (L+1,) int64
    lat_producer: "object"  # (E,) int64
    lat_fraction: "object"  # (E,) float64
    # Scalars.
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


@dataclass
class PopulationScores:
    """Fused-kernel output: one host-numpy entry per gene, in order.

    Infeasible lanes are fully masked *inside* the kernel (metrics 0.0,
    ``bottleneck_layer`` -1, ``num_macros`` 0) so every field is
    defined and ``==``-comparable across backends — loop engines skip
    infeasible lanes entirely rather than propagating NaN.
    """

    feasible: "object"  # (P,) bool
    fitness: "object"  # (P,) float64 — EA fitness (img/s)
    period: "object"
    latency: "object"
    throughput: "object"
    tops: "object"
    power: "object"
    tops_per_watt: "object"
    energy_per_image: "object"
    edp: "object"
    bottleneck_layer: "object"  # (P,) int64 (-1 when infeasible)
    num_macros: "object"  # (P,) int64 (0 when infeasible)


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


def _score_loops(
    genes,
    mvm, load_num, store_num, total_blocks, row_tiles, merge_rounds,
    per_round_num, out_bytes, adc_wl, alu_wl, adc_powers,
    comm_offsets, comm_consumer, lat_offsets, lat_producer,
    lat_fraction,
    denom, per_macro_fixed, crossbar_fixed, peripheral_power,
    adc_rate, alu_rate, alu_power, adc_power_unit,
    edram_bandwidth, noc_port_bandwidth, noc_hop_latency,
    rram_power, macs2, overlap_window,
    enable_macro_sharing, identical_macros,
    feasible_out, fitness_out, period_out, latency_out,
    throughput_out, tops_out, power_out, tops_per_watt_out,
    energy_out, edp_out, bottleneck_out, num_macros_out,
):
    """Scalar-loop population kernel (the ``python`` engine).

    Replicates the vectorized batch-eval math one gene at a time, in
    the exact per-lane operation order of the numpy engine (which in
    turn mirrors the scalar oracle), so outputs are bit-identical for
    every lane the oracle evaluates. Validation is the caller's job —
    this kernel assumes well-formed genes.
    """
    pop, n = genes.shape
    owners = np.empty(n, np.int64)
    counts = np.empty(n, np.int64)
    sbo = np.empty(n, np.int64)  # group start, by owner layer
    group_start = np.empty(n, np.int64)
    group_len = np.empty(n, np.int64)
    partner = np.empty(n, np.int64)
    adc_alloc = np.empty(n, np.float64)
    alu_alloc = np.empty(n, np.float64)
    adc_delay = np.empty(n, np.float64)
    alu_delay = np.empty(n, np.float64)
    load_arr = np.empty(n, np.float64)
    store_arr = np.empty(n, np.float64)
    comm = np.empty(n, np.float64)
    stage = np.empty(n, np.float64)
    starts = np.empty(n, np.float64)
    ow = overlap_window
    if ow < 1:
        ow = 1
    for p in range(pop):
        # -- decode: contiguous owner groups in layer order ------------
        total_macros = 0
        acc = 0
        for l in range(n):
            owner = genes[p, l] // _ENCODING_BASE
            owners[l] = owner
            counts[l] = genes[p, l] - owner * _ENCODING_BASE
        for l in range(n):
            sbo[l] = acc
            if owners[l] == l:
                acc += counts[l]
                total_macros += counts[l]
        for l in range(n):
            o = owners[l]
            group_start[l] = sbo[o]
            group_len[l] = counts[o]

        # -- Eq. 6 allocation + rule-b sharing -------------------------
        fixed = float(total_macros) * per_macro_fixed + crossbar_fixed
        available = peripheral_power - fixed
        feas = available > 0.0
        adc_alu_power = 0.0
        if identical_macros:
            if feas:
                adc_demand = adc_wl[0] / group_len[0]
                alu_demand = alu_wl[0] / group_len[0]
                for l in range(1, n):
                    v = adc_wl[l] / group_len[l]
                    if v > adc_demand:
                        adc_demand = v
                    v = alu_wl[l] / group_len[l]
                    if v > alu_demand:
                        alu_demand = v
                adc_share_weight = adc_power_unit * adc_demand / adc_rate
                alu_share_weight = alu_power * alu_demand / alu_rate
                weight_sum = adc_share_weight + alu_share_weight
                if weight_sum > 0.0:
                    adc_power_total = (
                        available * adc_share_weight / weight_sum
                    )
                    alu_power_total = (
                        available * alu_share_weight / weight_sum
                    )
                    per_macro_adc = adc_power_total / (
                        float(total_macros) * adc_power_unit
                    )
                    per_macro_alu = alu_power_total / (
                        float(total_macros) * alu_power
                    )
                    if per_macro_adc > 0.0 and per_macro_alu > 0.0:
                        for l in range(n):
                            bank = per_macro_adc * group_len[l]
                            lanes = per_macro_alu * group_len[l]
                            adc_delay[l] = adc_wl[l] / (adc_rate * bank)
                            alu_delay[l] = alu_wl[l] / (alu_rate * lanes)
                        adc_alu_power = adc_power_total + alu_power_total
                    else:
                        feas = False
                else:
                    feas = False
        else:
            if denom <= 0.0:
                feas = False
            if feas:
                balanced = denom / available
                t_adc = adc_rate * balanced
                t_alu = alu_rate * balanced
                for l in range(n):
                    adc_alloc[l] = adc_wl[l] / t_adc
                    alu_alloc[l] = alu_wl[l] / t_alu
                    partner[l] = -1
                # Sharing post-pass (rule b): per sharer layer i, in
                # ascending i order — the exact pair order the scalar
                # code receives from MacroPartition.from_gene.
                savings = 0.0
                if enable_macro_sharing:
                    for i in range(n):
                        if owners[i] == i:
                            continue
                        j = owners[i]
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
                for l in range(n):
                    pj = partner[l]
                    if pj >= 0:
                        a_l = adc_alloc[l]
                        a_p = adc_alloc[pj]
                        bank2 = (a_l if a_l > a_p else a_p) * scale
                        dist = l - pj
                        if dist < 0:
                            dist = -dist
                        overlap = 1.0 - dist / ow
                        if overlap < 0.0:
                            overlap = 0.0
                        eff_adc = bank2 / (1.0 + overlap)
                    else:
                        eff_adc = adc_alloc[l] * scale
                    eff_alu = alu_alloc[l] * scale
                    adc_delay[l] = adc_wl[l] / (adc_rate * eff_adc)
                    alu_delay[l] = alu_wl[l] / (alu_rate * eff_alu)
                # Power drawn: shared banks counted once, at the pair's
                # first (owner-side) index; ordered accumulation.
                adc_used = 0.0
                for l in range(n):
                    pj = partner[l]
                    if pj >= 0:
                        if l < pj:
                            a_l = adc_alloc[l]
                            a_p = adc_alloc[pj]
                            bank2 = (a_l if a_l > a_p else a_p) * scale
                            pw_l = adc_powers[l]
                            pw_p = adc_powers[pj]
                            pw = pw_l if pw_l > pw_p else pw_p
                            adc_used = adc_used + pw * bank2
                    else:
                        adc_used = adc_used + (
                            adc_powers[l] * adc_alloc[l]
                        ) * scale
                alu_used = 0.0
                for l in range(n):
                    alu_used = alu_used + (
                        alu_power * alu_alloc[l]
                    ) * scale
                adc_alu_power = adc_used + alu_used

        if feas:
            # -- §IV-B stage times -------------------------------------
            tm = total_macros
            if tm < 1:
                tm = 1
            cols = int(math.ceil(math.sqrt(float(tm))))
            if cols < 1:
                cols = 1
            for l in range(n):
                bw = edram_bandwidth * group_len[l]
                load_arr[l] = load_num[l] / bw
                store_arr[l] = store_num[l] / bw
                commv = 0.0
                # Partial-sum merge for row-tiled layers spanning macros.
                if row_tiles[l] > 1 and group_len[l] > 1:
                    s = group_start[l]
                    neighbor = abs(s // cols - (s + 1) // cols) + abs(
                        s % cols - (s + 1) % cols
                    )
                    if neighbor < 1:
                        neighbor = 1
                    prb = per_round_num[l] / group_len[l]
                    per_block = merge_rounds[l] * (
                        prb / noc_port_bandwidth
                        + neighbor * noc_hop_latency
                    )
                    commv = commv + total_blocks[l] * per_block
                comm[l] = commv
            # Activation transfers, per inter-layer edge in model order.
            for producer in range(n):
                for e in range(
                    comm_offsets[producer], comm_offsets[producer + 1]
                ):
                    consumer = comm_consumer[e]
                    if owners[producer] == owners[consumer]:
                        continue
                    s0 = group_start[producer]
                    s1 = s0 + group_len[producer] - 1
                    d0 = group_start[consumer]
                    d1 = d0 + group_len[consumer] - 1
                    h1 = abs(s0 // cols - d0 // cols) + abs(
                        s0 % cols - d0 % cols
                    )
                    h2 = abs(s1 // cols - d0 // cols) + abs(
                        s1 % cols - d0 % cols
                    )
                    h3 = abs(s0 // cols - d1 // cols) + abs(
                        s0 % cols - d1 % cols
                    )
                    h4 = abs(s1 // cols - d1 // cols) + abs(
                        s1 % cols - d1 % cols
                    )
                    ha = h1 if h1 < h2 else h2
                    hb = h3 if h3 < h4 else h4
                    hmin = ha if ha < hb else hb
                    gp = group_len[producer]
                    gc = group_len[consumer]
                    ports = gp if gp < gc else gc
                    serialization = out_bytes[producer] / (
                        noc_port_bandwidth * ports
                    )
                    head = (
                        total_blocks[producer] * hmin
                    ) * noc_hop_latency
                    comm[producer] = comm[producer] + (
                        serialization + head
                    )
            # Stage maxima; argmax keeps the first occurrence like
            # np.argmax.
            per = 0.0
            bot = 0
            for l in range(n):
                st = mvm[l]
                if adc_delay[l] > st:
                    st = adc_delay[l]
                if alu_delay[l] > st:
                    st = alu_delay[l]
                if load_arr[l] > st:
                    st = load_arr[l]
                if store_arr[l] > st:
                    st = store_arr[l]
                if comm[l] > st:
                    st = comm[l]
                stage[l] = st
                if l == 0 or st > per:
                    per = st
                    bot = l
            # Fine-grained pipeline latency (forward pass).
            lat = 0.0
            for idx in range(n):
                s = 0.0
                for e in range(lat_offsets[idx], lat_offsets[idx + 1]):
                    prod = lat_producer[e]
                    cand = starts[prod] + stage[prod] * lat_fraction[e]
                    if cand > s:
                        s = cand
                starts[idx] = s
                end = s + stage[idx]
                if idx == 0 or end > lat:
                    lat = end
            # -- power account + derived metrics -----------------------
            power = rram_power + (fixed + adc_alu_power)
            throughput = 1.0 / per
            tops = macs2 / per / 1e12
            if power > 0.0:
                tpw = tops / power
            else:
                tpw = 0.0
            energy = power * lat
            edp = energy * lat
            feasible_out[p] = True
            fitness_out[p] = throughput
            period_out[p] = per
            latency_out[p] = lat
            throughput_out[p] = throughput
            tops_out[p] = tops
            power_out[p] = power
            tops_per_watt_out[p] = tpw
            energy_out[p] = energy
            edp_out[p] = edp
            bottleneck_out[p] = bot
            num_macros_out[p] = total_macros
        else:
            feasible_out[p] = False
            fitness_out[p] = 0.0
            period_out[p] = 0.0
            latency_out[p] = 0.0
            throughput_out[p] = 0.0
            tops_out[p] = 0.0
            power_out[p] = 0.0
            tops_per_watt_out[p] = 0.0
            energy_out[p] = 0.0
            edp_out[p] = 0.0
            bottleneck_out[p] = -1
            num_macros_out[p] = 0




# ----------------------------------------------------------------------
# Backend interface + the two engines
# ----------------------------------------------------------------------
class ArrayBackend:
    """One array-execution engine for the tensorized DSE paths.

    Subclasses implement the op-level primitives and the fused kernels
    (task-grid bounds, population scoring); the registry hands out one
    shared instance per name.
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

    def decode_population(self, genes) -> Tuple[
        "object", "object", "object", "object", "object"
    ]:
        """Decode a ``(P, L)`` gene array into macro-group arrays.

        Returns ``(owners, is_owner, total_macros, group_start,
        group_len)``. Validation is the caller's concern; this
        primitive assumes well-formed genes.
        """
        raise NotImplementedError

    def mesh_hops(self, a, b, cols) -> "object":
        """Elementwise MeshNoC hop count: Manhattan distance between
        macro ids ``a`` and ``b`` on a row-major mesh with ``cols``
        columns."""
        raise NotImplementedError

    def compute_bounds(self, grid: TaskGrid) -> "object":
        """Per-task throughput upper bounds for a whole task grid.

        Must be bit-identical to calling :func:`repro.core.evaluator.
        throughput_upper_bound` once per task.
        """
        raise NotImplementedError

    def score_population(
        self, ctx: PopulationContext, genes
    ) -> PopulationScores:
        """Fused batch-eval kernel: score a whole gene population.

        Must match the scalar oracle per lane, bit for bit. Outputs are
        numpy arrays with infeasible lanes masked.
        """
        raise NotImplementedError


def _hops(a, b, cols):
    return np.abs(a // cols - b // cols) + np.abs(a % cols - b % cols)


def _decode(genes):
    """(owners, is_owner, total_macros, group_start, group_len):
    contiguous owner groups in layer order, exactly as
    ``MacroPartition.from_gene`` assigns them."""
    n = genes.shape[1]
    owners, counts = np.divmod(genes, _ENCODING_BASE)
    layer_idx = np.arange(n, dtype=np.int64)
    is_owner = owners == layer_idx[None, :]
    sizes = np.where(is_owner, counts, 0)
    group_starts_by_owner = np.cumsum(sizes, axis=1) - sizes
    total_macros = np.sum(sizes, axis=1)
    group_start = np.take_along_axis(group_starts_by_owner, owners, axis=1)
    group_len = np.take_along_axis(counts, owners, axis=1)
    return owners, is_owner, total_macros, group_start, group_len


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

    def decode_population(self, genes):
        return _decode(np.asarray(genes, dtype=np.int64))

    def mesh_hops(self, a, b, cols):
        return _hops(
            np.asarray(a, dtype=np.int64),
            np.asarray(b, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
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

    def score_population(self, ctx: PopulationContext, genes):
        """Vectorized batch-eval kernel — the scalar oracle's math over
        ``(population, layers)`` arrays.

        Control flow (edge CSR walks, per-layer loops) reads the context
        arrays; only the elementwise math is vectorized over genes.
        """
        genes = np.asarray(genes, dtype=np.int64)
        pop, n = genes.shape
        with np.errstate(all="ignore"):
            owners, is_owner, total_macros, group_start, group_len = (
                _decode(genes)
            )
            adc_wl = np.asarray(ctx.adc_wl, dtype=np.float64)
            alu_wl = np.asarray(ctx.alu_wl, dtype=np.float64)
            adc_powers = np.asarray(ctx.adc_powers, dtype=np.float64)
            mvm = np.asarray(ctx.mvm, dtype=np.float64)
            load_num = np.asarray(ctx.load_num, dtype=np.float64)
            store_num = np.asarray(ctx.store_num, dtype=np.float64)

            # -- Eq. 6 allocation + rule-b sharing ---------------------
            fixed = (
                total_macros.astype(np.float64) * ctx.per_macro_fixed
                + ctx.crossbar_fixed
            )
            available = ctx.peripheral_power - fixed
            feasible = available > 0.0
            if ctx.identical_macros:
                macro_count = group_len  # every group has >= 1 macro
                adc_demand = np.max(adc_wl[None, :] / macro_count, axis=1)
                alu_demand = np.max(alu_wl[None, :] / macro_count, axis=1)
                adc_share_weight = (
                    ctx.adc_power_unit * adc_demand / ctx.adc_rate
                )
                alu_share_weight = (
                    ctx.alu_power * alu_demand / ctx.alu_rate
                )
                weight_sum = adc_share_weight + alu_share_weight
                feasible = feasible & (weight_sum > 0.0)
                adc_power_total = (
                    available * adc_share_weight / weight_sum
                )
                alu_power_total = (
                    available * alu_share_weight / weight_sum
                )
                per_macro_adc = adc_power_total / (
                    total_macros * ctx.adc_power_unit
                )
                per_macro_alu = alu_power_total / (
                    total_macros * ctx.alu_power
                )
                feasible = feasible & (per_macro_adc > 0.0) & (
                    per_macro_alu > 0.0
                )
                bank = per_macro_adc[:, None] * macro_count
                lanes = per_macro_alu[:, None] * macro_count
                adc_delay = adc_wl[None, :] / (ctx.adc_rate * bank)
                alu_delay = alu_wl[None, :] / (ctx.alu_rate * lanes)
                adc_alu_power = adc_power_total + alu_power_total
            else:
                if ctx.denom <= 0:
                    # Gene-independent: the scalar path raises for
                    # every gene.
                    feasible = np.zeros(pop, dtype=np.bool_)
                balanced_delay = ctx.denom / available
                adc_alloc = adc_wl[None, :] / (
                    ctx.adc_rate * balanced_delay
                )[:, None]
                alu_alloc = alu_wl[None, :] / (
                    ctx.alu_rate * balanced_delay
                )[:, None]

                # Sharing post-pass (rule b): per sharer layer i, in
                # ascending i order — the exact pair order the scalar
                # code receives from MacroPartition.from_gene.
                savings = np.zeros(pop, dtype=np.float64)
                partner = np.full((pop, n), -1, dtype=np.int64)
                rows = np.arange(pop, dtype=np.int64)
                if ctx.enable_macro_sharing:
                    for i in range(n):
                        sharer = ~is_owner[:, i]
                        if not np.any(sharer):
                            continue
                        j = owners[:, i]
                        a_i = adc_alloc[:, i]
                        a_j = adc_alloc[rows, j]
                        p_i = adc_powers[i]
                        p_j = adc_powers[j]
                        bank = np.maximum(a_j, a_i)
                        unit = np.maximum(p_j, p_i)
                        separate = p_j * a_j + p_i * a_i
                        merged = unit * bank
                        include = sharer & (merged < separate)
                        savings = np.where(
                            include, savings + (separate - merged),
                            savings,
                        )
                        partner[:, i] = np.where(
                            include, j, partner[:, i]
                        )
                        prev = partner[rows, j]
                        partner[rows, j] = np.where(include, i, prev)

                apply_scale = (savings > 0.0) & (savings < available)
                scale = np.where(
                    apply_scale,
                    available / np.where(
                        apply_scale, available - savings, 1.0
                    ),
                    1.0,
                )

                has_partner = partner >= 0
                partner_idx = np.where(has_partner, partner, 0)
                partner_alloc = np.take_along_axis(
                    adc_alloc, partner_idx, axis=1
                )
                bank = (
                    np.maximum(adc_alloc, partner_alloc)
                    * scale[:, None]
                )
                layer_idx = np.arange(n, dtype=np.int64)
                distance = np.abs(layer_idx[None, :] - partner_idx)
                overlap = np.maximum(
                    0.0,
                    1.0 - distance / max(1, ctx.overlap_window),
                )
                effective_adc = np.where(
                    has_partner,
                    bank / (1.0 + overlap),
                    adc_alloc * scale[:, None],
                )
                effective_alu = alu_alloc * scale[:, None]
                adc_delay = adc_wl[None, :] / (
                    ctx.adc_rate * effective_adc
                )
                alu_delay = alu_wl[None, :] / (
                    ctx.alu_rate * effective_alu
                )

                # Power drawn: shared banks counted once, at the pair's
                # first (owner-side) index; ordered accumulation
                # matches the scalar loop.
                adc_power_used = np.zeros(pop, dtype=np.float64)
                for l in range(n):
                    hp = has_partner[:, l]
                    pidx = partner_idx[:, l]
                    term_solo = (
                        adc_powers[l] * adc_alloc[:, l]
                    ) * scale
                    bank_l = np.maximum(
                        adc_alloc[:, l], adc_alloc[rows, pidx]
                    ) * scale
                    term_pair = np.maximum(
                        adc_powers[l], adc_powers[pidx]
                    ) * bank_l
                    count_here = ~hp | (pidx > l)
                    term = np.where(hp, term_pair, term_solo)
                    adc_power_used = np.where(
                        count_here, adc_power_used + term,
                        adc_power_used,
                    )
                alu_power_used = np.zeros(pop, dtype=np.float64)
                for l in range(n):
                    alu_power_used = alu_power_used + (
                        ctx.alu_power * alu_alloc[:, l]
                    ) * scale
                adc_alu_power = adc_power_used + alu_power_used

            # -- §IV-B stage times -------------------------------------
            bandwidth = ctx.edram_bandwidth * group_len
            load = load_num[None, :] / bandwidth
            store = store_num[None, :] / bandwidth
            comm = np.zeros((pop, n), dtype=np.float64)
            cols = np.maximum(
                1,
                np.ceil(np.sqrt(np.maximum(1, total_macros))).astype(
                    np.int64
                ),
            )
            # Partial-sum merge for row-tiled layers spanning macros.
            for l in range(n):
                if int(ctx.row_tiles[l]) <= 1:
                    continue
                multi = group_len[:, l] > 1
                if not np.any(multi):
                    continue
                start = group_start[:, l]
                neighbor = _hops(start, start + 1, cols)
                per_round_bytes = (
                    float(ctx.per_round_num[l]) / group_len[:, l]
                )
                per_block = int(ctx.merge_rounds[l]) * (
                    per_round_bytes / ctx.noc_port_bandwidth
                    + np.maximum(1, neighbor) * ctx.noc_hop_latency
                )
                merge_time = int(ctx.total_blocks[l]) * per_block
                comm[:, l] = np.where(
                    multi, comm[:, l] + merge_time, comm[:, l]
                )
            # Activation transfers, per inter-layer edge in model order.
            for producer in range(n):
                lo = int(ctx.comm_offsets[producer])
                hi = int(ctx.comm_offsets[producer + 1])
                for e in range(lo, hi):
                    consumer = int(ctx.comm_consumer[e])
                    same = owners[:, producer] == owners[:, consumer]
                    s0 = group_start[:, producer]
                    s1 = s0 + group_len[:, producer] - 1
                    d0 = group_start[:, consumer]
                    d1 = d0 + group_len[:, consumer] - 1
                    hops = np.minimum(
                        np.minimum(
                            _hops(s0, d0, cols), _hops(s1, d0, cols)
                        ),
                        np.minimum(
                            _hops(s0, d1, cols), _hops(s1, d1, cols)
                        ),
                    )
                    ports = np.minimum(
                        group_len[:, producer], group_len[:, consumer]
                    )
                    serialization = float(ctx.out_bytes[producer]) / (
                        ctx.noc_port_bandwidth * ports
                    )
                    head = (
                        int(ctx.total_blocks[producer]) * hops
                    ) * ctx.noc_hop_latency
                    comm[:, producer] = np.where(
                        same,
                        comm[:, producer],
                        comm[:, producer] + (serialization + head),
                    )

            stage_total = np.maximum(mvm[None, :], adc_delay)
            stage_total = np.maximum(stage_total, alu_delay)
            stage_total = np.maximum(stage_total, load)
            stage_total = np.maximum(stage_total, store)
            stage_total = np.maximum(stage_total, comm)

            period = np.max(stage_total, axis=1)
            bottleneck = np.argmax(stage_total, axis=1)

            # Fine-grained pipeline latency (vectorized forward pass).
            starts = np.zeros((pop, n), dtype=np.float64)
            ends = np.zeros((pop, n), dtype=np.float64)
            for idx in range(n):
                start = np.zeros(pop, dtype=np.float64)
                lo = int(ctx.lat_offsets[idx])
                hi = int(ctx.lat_offsets[idx + 1])
                for e in range(lo, hi):
                    producer = int(ctx.lat_producer[e])
                    fraction = float(ctx.lat_fraction[e])
                    start = np.maximum(
                        start,
                        starts[:, producer]
                        + stage_total[:, producer] * fraction,
                    )
                starts[:, idx] = start
                ends[:, idx] = start + stage_total[:, idx]
            latency = (
                np.max(ends, axis=1) if n
                else np.zeros(pop, dtype=np.float64)
            )

            # -- power account + derived metrics -----------------------
            power = ctx.rram_power + (fixed + adc_alu_power)
            throughput = 1.0 / period
            tops = ctx.macs2 / period / 1e12
            tops_per_watt = np.where(power > 0, tops / power, 0.0)
            energy = power * latency
            edp = energy * latency

            def _mask(values):
                return np.where(feasible, values, 0.0)

            return PopulationScores(
                feasible=feasible,
                fitness=_mask(throughput),
                period=_mask(period),
                latency=_mask(latency),
                throughput=_mask(throughput),
                tops=_mask(tops),
                power=_mask(power),
                tops_per_watt=_mask(tops_per_watt),
                energy_per_image=_mask(energy),
                edp=_mask(edp),
                bottleneck_layer=np.where(feasible, bottleneck, -1),
                num_macros=np.where(feasible, total_macros, 0),
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

    def decode_population(self, genes):
        genes = np.asarray(genes, dtype=np.int64)
        pop, n = genes.shape
        owners = np.zeros((pop, n), dtype=np.int64)
        is_owner = np.zeros((pop, n), dtype=bool)
        total_macros = np.zeros(pop, dtype=np.int64)
        group_start = np.zeros((pop, n), dtype=np.int64)
        group_len = np.zeros((pop, n), dtype=np.int64)
        for p in range(pop):
            counts = []
            starts = []
            acc = 0
            total = 0
            for l in range(n):
                owner = int(genes[p, l]) // _ENCODING_BASE
                count = int(genes[p, l]) - owner * _ENCODING_BASE
                owners[p, l] = owner
                is_owner[p, l] = owner == l
                counts.append(count)
                starts.append(acc)
                if owner == l:
                    acc += count
                    total += count
            total_macros[p] = total
            for l in range(n):
                owner = int(owners[p, l])
                group_start[p, l] = starts[owner]
                group_len[p, l] = counts[owner]
        return owners, is_owner, total_macros, group_start, group_len

    def mesh_hops(self, a, b, cols):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        cols_arr = np.broadcast_to(
            np.asarray(cols, dtype=np.int64), a.shape
        )
        out = np.zeros(a.shape, dtype=np.int64)
        flat_a = a.ravel()
        flat_b = b.ravel()
        flat_c = cols_arr.ravel()
        flat_out = out.ravel()
        for i in range(flat_a.shape[0]):
            av = int(flat_a[i])
            bv = int(flat_b[i])
            cv = int(flat_c[i])
            flat_out[i] = abs(av // cv - bv // cv) + abs(
                av % cv - bv % cv
            )
        return out

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

    def score_population(self, ctx: PopulationContext, genes):
        genes = np.asarray(genes, dtype=np.int64)
        pop = genes.shape[0]
        feasible = np.zeros(pop, dtype=bool)
        fitness = np.zeros(pop, dtype=np.float64)
        period = np.zeros(pop, dtype=np.float64)
        latency = np.zeros(pop, dtype=np.float64)
        throughput = np.zeros(pop, dtype=np.float64)
        tops = np.zeros(pop, dtype=np.float64)
        power = np.zeros(pop, dtype=np.float64)
        tops_per_watt = np.zeros(pop, dtype=np.float64)
        energy = np.zeros(pop, dtype=np.float64)
        edp = np.zeros(pop, dtype=np.float64)
        bottleneck = np.zeros(pop, dtype=np.int64)
        num_macros = np.zeros(pop, dtype=np.int64)
        # errstate: the kernel's per-lane numpy-scalar arithmetic may
        # produce inf/nan exactly where the vectorized engine does;
        # suppress the matching warnings the same way.
        with np.errstate(all="ignore"):
            _score_loops(
                genes,
                ctx.mvm, ctx.load_num, ctx.store_num, ctx.total_blocks,
                ctx.row_tiles, ctx.merge_rounds, ctx.per_round_num,
                ctx.out_bytes, ctx.adc_wl, ctx.alu_wl, ctx.adc_powers,
                ctx.comm_offsets, ctx.comm_consumer, ctx.lat_offsets,
                ctx.lat_producer, ctx.lat_fraction,
                ctx.denom, ctx.per_macro_fixed, ctx.crossbar_fixed,
                ctx.peripheral_power, ctx.adc_rate, ctx.alu_rate,
                ctx.alu_power, ctx.adc_power_unit,
                ctx.edram_bandwidth, ctx.noc_port_bandwidth,
                ctx.noc_hop_latency, ctx.rram_power, ctx.macs2,
                int(ctx.overlap_window),
                bool(ctx.enable_macro_sharing),
                bool(ctx.identical_macros),
                feasible, fitness, period, latency, throughput, tops,
                power, tops_per_watt, energy, edp, bottleneck,
                num_macros,
            )
        return PopulationScores(
            feasible=feasible, fitness=fitness, period=period,
            latency=latency, throughput=throughput, tops=tops,
            power=power, tops_per_watt=tops_per_watt,
            energy_per_image=energy, edp=edp,
            bottleneck_layer=bottleneck, num_macros=num_macros,
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
