"""Differential suite: the batched evaluator vs the scalar oracle.

The lane kernel of :mod:`repro.core.batch_eval` claims bit-level
fidelity to the scalar evaluation chain (``MacroPartition.from_gene``
-> ``allocate_components`` -> ``PerformanceEvaluator.evaluate``). This
suite pins that claim with ``==`` across the entire model zoo and a
grid of power budgets (spanning infeasible, tight and generous
regimes), for both macro-sharing settings and both
macro-specialization modes, and on the very populations real
``explore()`` runs score — and then end to end: full synthesis must
select the *identical* solution with ``SynthesisConfig.batch_eval`` on
or off.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.dataflow import make_spec
from repro.core.evaluator import PerformanceEvaluator
from repro.core.macro_partition import MacroPartitionExplorer
from repro.hardware.power import PowerBudget
from repro.nn import zoo

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)
METRIC_FIELDS = (
    "period", "latency", "throughput", "tops", "power",
    "tops_per_watt", "energy_per_image", "edp",
)


def _explorer(model, power, sharing=True, specialized=True,
              res_dac=1, seed=1):
    """A stage-3 explorer over a ones-WtDup spec for ``model``."""
    config = SynthesisConfig.fast(total_power=power)
    config.enable_macro_sharing = sharing
    config.specialized_macros = specialized
    n = model.num_weighted_layers
    spec = make_spec(
        model, [1] * n, xb_size=128, res_rram=2, res_dac=res_dac,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=power, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=4096,
    )
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=res_dac, config=config,
        rng=random.Random(seed),
    )


def _population(explorer, size=24, seed=2):
    """Seed genes plus a random mutation walk (all rule-valid)."""
    genes = explorer.initial_population(min(size, 8))
    rng = random.Random(seed)
    while len(genes) < size:
        parent = rng.choice(genes)
        operator = rng.choice(
            [explorer.mutate_num, explorer.mutate_share]
        )
        genes.append(operator(parent, rng))
    return genes


def _assert_equal(scalar, batched, label):
    assert batched == scalar, \
        f"{label}: scalar={scalar!r} batched={batched!r}"


class TestZooDifferential:
    """Every zoo model x power grid: metrics are bit-identical."""

    @pytest.mark.parametrize("name", zoo.available_models())
    def test_all_metrics_match_scalar_oracle(self, name):
        model = zoo.by_name(name)
        feasible_seen = 0
        infeasible_seen = 0
        for power in POWER_GRID:
            explorer = _explorer(model, power)
            genes = _population(explorer)
            batch = explorer.batch_evaluator.evaluate_population(genes)
            for k, gene in enumerate(genes):
                fitness, allocation, result = explorer.score(gene)
                _assert_equal(
                    fitness, float(batch.fitness[k]),
                    f"{name}@{power}W gene {k} fitness",
                )
                if allocation is None:
                    infeasible_seen += 1
                    assert not bool(batch.feasible[k])
                    continue
                feasible_seen += 1
                assert bool(batch.feasible[k])
                for field in METRIC_FIELDS:
                    _assert_equal(
                        getattr(result, field),
                        float(getattr(batch, field)[k]),
                        f"{name}@{power}W gene {k} {field}",
                    )
                assert result.bottleneck_layer == int(
                    batch.bottleneck_layer[k]
                )
        # The grid must actually exercise both regimes.
        assert feasible_seen > 0
        assert infeasible_seen > 0

    @pytest.mark.parametrize("sharing,specialized", [
        (True, False), (False, True), (False, False),
    ])
    def test_mode_flags_match_scalar_oracle(self, sharing, specialized):
        """Identical-macro and no-sharing variants stay differential."""
        for name in ("lenet5", "vgg13", "resnet18_cifar"):
            model = zoo.by_name(name)
            explorer = _explorer(
                model, 8.0, sharing=sharing, specialized=specialized
            )
            genes = _population(explorer)
            batched = explorer.score_population(genes)
            for gene, value in zip(genes, batched):
                _assert_equal(
                    explorer.score(gene)[0], value,
                    f"{name} sharing={sharing} "
                    f"specialized={specialized}",
                )

    def test_score_population_scalar_fallback(self):
        """batch_eval=False degrades score_population to the scalar
        loop with identical values (the --scalar-eval path)."""
        explorer = _explorer(zoo.by_name("lenet5"), 2.0)
        genes = _population(explorer, size=8)
        batched = explorer.score_population(genes)
        explorer.batch_eval = False
        assert explorer.score_population(genes) == batched

    def test_res_dac_variants(self):
        """ResDAC changes bit-serial depth; both engines must track."""
        model = zoo.by_name("alexnet_cifar")
        for res_dac in (1, 2, 4):
            explorer = _explorer(model, 8.0, res_dac=res_dac)
            genes = _population(explorer, size=12)
            batched = explorer.score_population(genes)
            for gene, value in zip(genes, batched):
                _assert_equal(
                    explorer.score(gene)[0], value,
                    f"res_dac={res_dac}",
                )


class TestExplorePopulations:
    """The populations real ``explore()`` runs score — a ``[2] * n``
    WtDup spec under the paper-default EA, so the populations carry
    rule-b sharing pairs and infeasible lanes — equal ``score()``
    field for field."""

    @pytest.mark.parametrize("name", ("alexnet_cifar", "resnet18_cifar"))
    def test_explore_populations_match_scalar_oracle(self, name):
        from repro.core.macro_partition import MacroPartition

        model = zoo.by_name(name)
        config = SynthesisConfig(total_power=16.0)
        n = model.num_weighted_layers
        spec = make_spec(
            model, [2] * n, xb_size=128, res_rram=2, res_dac=1,
            params=config.params,
            max_blocks_per_layer=config.max_blocks_per_layer,
        )
        budget = PowerBudget(
            total_power=16.0, ratio_rram=0.3, xb_size=128, res_rram=2,
            num_crossbars=8192,
        )
        populations = []
        for seed in (1, 2, 3):
            explorer = MacroPartitionExplorer(
                spec=spec, budget=budget, res_dac=1, config=config,
                rng=random.Random(seed),
            )
            score_population = explorer.score_population
            explorer.score_population = lambda genes, _score=(
                score_population
            ): populations.append(list(genes)) or _score(genes)
            explorer.explore()
        assert populations
        shared = infeasible = 0
        for genes in populations:
            batch = explorer.batch_evaluator.evaluate_population(genes)
            for k, gene in enumerate(genes):
                partition = MacroPartition.from_gene(gene)
                shared += bool(partition.sharing_pairs)
                fitness, allocation, result = explorer.score(gene)
                assert float(batch.fitness[k]) == fitness
                assert bool(batch.feasible[k]) == (allocation is not None)
                if result is None:
                    infeasible += 1
                    continue
                for field in METRIC_FIELDS:
                    _assert_equal(
                        getattr(result, field),
                        float(getattr(batch, field)[k]),
                        f"{name} gene {gene} {field}",
                    )
                assert int(batch.bottleneck_layer[k]) == \
                    result.bottleneck_layer
                assert int(batch.num_macros[k]) == partition.num_macros
        assert shared > 0
        assert infeasible > 0


class TestLaneKernelContract:
    """What the EA-facing scoring path must (not) do, beyond matching
    the oracle: no numpy work, the oracle's validation messages, and
    no ZeroDivisionError where an infeasible lane is the answer."""

    def test_ea_scoring_runs_no_numpy_code(self):
        import os
        import sys

        import numpy

        explorer = _explorer(zoo.by_name("resnet18_cifar"), 50.0)
        genes = _population(explorer)
        evaluator = explorer.batch_evaluator  # context built up front
        numpy_dir = os.path.dirname(numpy.__file__)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                if frame.f_code.co_filename.startswith(numpy_dir):
                    calls.append(frame.f_code.co_name)
            elif event == "c_call":
                module = getattr(arg, "__module__", None) or ""
                if module.split(".")[0] == "numpy":
                    calls.append(arg.__name__)

        def numpy_calls(run):
            del calls[:]
            sys.setprofile(profile)
            try:
                result = run()
            finally:
                sys.setprofile(None)
            return result, list(calls)

        fitness, seen = numpy_calls(
            lambda: explorer.score_population(genes)
        )
        assert seen == []
        assert all(type(value) is float for value in fitness)
        assert any(value > 0.0 for value in fitness)
        vectors, seen = numpy_calls(
            lambda: explorer.score_population_objectives(
                genes, ("throughput", "power", "num_macros")
            )
        )
        assert seen == []
        assert len(vectors) == len(genes)
        # The detector is live: the array-packing cold path trips it.
        _batch, seen = numpy_calls(
            lambda: evaluator.evaluate_population(genes)
        )
        assert seen

    @pytest.mark.parametrize("gene,message", [
        ((1001, 2002, 1), "owner > layer index"),
        ((1, 1, 1001), "shares with a non-owner"),
        ((1, -999, 1), "shares with a non-owner"),
    ])
    def test_malformed_gene_messages(self, gene, message):
        from repro.errors import ConfigurationError
        from repro.nn import lenet5

        explorer = _explorer(lenet5(), 2.0)
        n = explorer.spec.num_layers
        gene = gene + (1,) * (n - len(gene))
        with pytest.raises(ConfigurationError, match=message):
            explorer.score_population([gene])

    def test_zero_alu_power_never_divides_by_zero(self):
        """With a free ALU, identical-macro lanes collapse to 0/0 — the
        oracle raises ZeroDivisionError, the kernel returns infeasible
        rows — while specialized lanes stay defined and still match
        ``score()``."""
        from repro.core.batch_eval import BatchPerformanceEvaluator
        from repro.hardware.params import HardwareParams

        explorer = _explorer(zoo.by_name("alexnet_cifar"), 8.0)
        genes = _population(explorer)
        params = HardwareParams(alu_power=0.0)
        spec = make_spec(
            explorer.spec.model, list(explorer.spec.wt_dup),
            xb_size=128, res_rram=2, res_dac=1, params=params,
            max_blocks_per_layer=explorer.config.max_blocks_per_layer,
        )
        identical = BatchPerformanceEvaluator(
            spec, explorer.budget, 1, identical_macros=True,
        )
        assert identical.fitness_of(genes) == [0.0] * len(genes)
        explorer.spec = spec
        explorer.evaluator = PerformanceEvaluator(spec, explorer.budget)
        specialized = BatchPerformanceEvaluator(spec, explorer.budget, 1)
        fitness = specialized.fitness_of(genes)
        assert any(value > 0.0 for value in fitness)
        assert fitness == [explorer.score(gene)[0] for gene in genes]


class TestFullSynthesisIdentity:
    """batch_eval on/off is an execution knob: results are identical."""

    @pytest.mark.parametrize("name,power", [
        ("lenet5", 2.0), ("alexnet_cifar", 8.0),
    ])
    def test_identical_solution_and_telemetry(self, name, power):
        model = zoo.by_name(name)
        runs = {}
        reports = {}
        for batch in (True, False):
            synthesizer = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7, batch_eval=batch,
            ))
            runs[batch] = synthesizer.synthesize().to_json()
            reports[batch] = synthesizer.report
        assert runs[True] == runs[False]
        # Even the search telemetry matches: the batched engine walks
        # the same RNG stream and consults the same memo.
        assert (
            reports[True].ea_evaluations == reports[False].ea_evaluations
        )
        assert reports[True].cache_hits == reports[False].cache_hits
        assert reports[True].ea_runs == reports[False].ea_runs

    def test_identical_across_jobs_and_batch(self):
        """The 2x2 (jobs, batch_eval) grid returns one solution."""
        outputs = set()
        for jobs in (1, 2):
            for batch in (True, False):
                solution = Pimsyn(zoo.by_name("lenet5"), (
                    SynthesisConfig.fast(
                        total_power=2.0, seed=11, jobs=jobs,
                        batch_eval=batch,
                    )
                )).synthesize()
                outputs.add(solution.to_json())
        assert len(outputs) == 1


class TestTechnologyDifferential:
    """Scalar-vs-batched identity must hold for *every* technology
    profile, not just the default reram constants (the batched engine
    consumes profile tables — ADC curves, resolution ranges, crossbar
    latency — so each built-in profile exercises different table
    entries)."""

    @pytest.mark.parametrize(
        "tech", ("reram", "reram-lp", "sram-pim")
    )
    def test_population_metrics_match_scalar_oracle(self, tech):
        model = zoo.by_name("vgg13")
        for power in (2.0, 8.0):
            config = SynthesisConfig.fast(total_power=power, tech=tech)
            res_rram = config.res_rram_choices[0]
            n = model.num_weighted_layers
            spec = make_spec(
                model, [1] * n, xb_size=128, res_rram=res_rram,
                res_dac=1, params=config.params,
                max_blocks_per_layer=config.max_blocks_per_layer,
            )
            budget = PowerBudget(
                total_power=power, ratio_rram=0.3, xb_size=128,
                res_rram=res_rram, num_crossbars=4096,
            )
            explorer = MacroPartitionExplorer(
                spec=spec, budget=budget, res_dac=1, config=config,
                rng=random.Random(3),
            )
            genes = _population(explorer, size=16)
            batch = explorer.batch_evaluator.evaluate_population(genes)
            for k, gene in enumerate(genes):
                fitness, allocation, result = explorer.score(gene)
                _assert_equal(
                    fitness, float(batch.fitness[k]),
                    f"{tech}@{power}W gene {k} fitness",
                )
                if allocation is None:
                    continue
                for field in METRIC_FIELDS:
                    _assert_equal(
                        getattr(result, field),
                        float(getattr(batch, field)[k]),
                        f"{tech}@{power}W gene {k} {field}",
                    )

    @pytest.mark.parametrize("tech", ("reram-lp", "sram-pim"))
    def test_full_synthesis_identity_per_technology(self, tech):
        """batch_eval stays an execution-only knob off-reram too, and
        non-default technologies synthesize end to end."""
        from repro.core.design_space import DesignSpace

        model = zoo.by_name("lenet5")
        probe = SynthesisConfig.fast(tech=tech)
        power = DesignSpace(model, probe).minimum_feasible_power(
            margin=2.0
        )
        runs = {}
        for batch in (True, False):
            solution = Pimsyn(model, SynthesisConfig.fast(
                total_power=power, seed=7, tech=tech,
                batch_eval=batch,
            )).synthesize()
            runs[batch] = solution.to_json()
            assert solution.evaluation.throughput > 0
        assert runs[True] == runs[False]
