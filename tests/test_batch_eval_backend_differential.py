"""Differential suite: ``backend`` is execution-only, end to end.

``backend`` selects how the outer task-grid walk is bounded (vectorized
numpy or pure-python loops), never what anything scores; EA population
scoring runs on one lane kernel whichever backend is configured. This
suite pins that in four layers:

1. Population-level: every zoo model x the power grid, the
   :class:`BatchEvaluation` of a rule-valid population, scored by an
   explorer configured with each backend, is ``==`` to the scalar
   oracle (``MacroPartitionExplorer.score``) gene for gene.
2. Full synthesis: the (backend x jobs x batch_eval) matrix returns one
   winning solution with identical telemetry (EA runs, pruning
   decisions, cache hits).
3. Content keys: the PR 5 fingerprints are byte-unchanged, and neither
   ``backend`` nor ``batch_eval`` perturbs a config fingerprint or a
   serve job key (execution-only fields).
4. Goldens: the committed pareto-front golden is reproduced by every
   backend, byte-identically across backends.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.backend import backend_status
from repro.core.dataflow import make_spec
from repro.core.executor import config_fingerprint, params_fingerprint
from repro.core.macro_partition import (
    MacroPartition,
    MacroPartitionExplorer,
)
from repro.hardware.params import HardwareParams
from repro.hardware.power import PowerBudget
from repro.nn import lenet5, zoo
from repro.serve.job import job_content_key

POWER_GRID = (0.5, 2.0, 8.0, 50.0, 200.0)

#: Every backend; all are held to ``==``.
AVAILABLE_BACKENDS = tuple(
    name for name, ok, _ in backend_status() if ok
)

FLOAT_FIELDS = (
    "fitness", "period", "latency", "throughput", "tops", "power",
    "tops_per_watt", "energy_per_image", "edp",
)

#: PR 5 pins (recorded on the pre-profile tree). The seam's hard
#: promise: routing batch_eval through the backend registry never
#: moves a default-technology content key.
PINNED_PARAMS_FP = "3dd4e2a54ef76d2a"
PINNED_CONFIG_FP_FAST_2W = "101f9fe6705bffb0"
PINNED_JOB_KEY_LENET5_FAST_2W = "0adb10f6bd13ed88e923b60108964df7"


def _explorer(model, power, seed=1, backend="numpy"):
    """A stage-3 explorer over a ones-WtDup spec for ``model``."""
    config = SynthesisConfig.fast(total_power=power, backend=backend)
    n = model.num_weighted_layers
    spec = make_spec(
        model, [1] * n, xb_size=128, res_rram=2, res_dac=1,
        params=config.params,
        max_blocks_per_layer=config.max_blocks_per_layer,
    )
    budget = PowerBudget(
        total_power=power, ratio_rram=0.3, xb_size=128, res_rram=2,
        num_crossbars=4096,
    )
    return MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
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


def _assert_matches_scalar_oracle(explorer, genes, label):
    batch = explorer.batch_evaluator.evaluate_population(genes)
    for k, gene in enumerate(genes):
        fitness, allocation, result = explorer.score(gene)
        assert float(batch.fitness[k]) == fitness, f"{label}:{k}"
        assert bool(batch.feasible[k]) == (allocation is not None)
        if result is None:
            assert int(batch.bottleneck_layer[k]) == -1
            assert int(batch.num_macros[k]) == 0
            continue
        assert int(batch.bottleneck_layer[k]) == result.bottleneck_layer
        assert int(batch.num_macros[k]) == \
            MacroPartition.from_gene(gene).num_macros
        for field in FLOAT_FIELDS[1:]:
            assert float(getattr(batch, field)[k]) == \
                getattr(result, field), f"{label}:{k}:{field}"


class TestZooPopulationIdentity:
    """Every zoo model x power grid: the population lane kernel, under
    each configured backend, equals the scalar oracle gene for gene
    (``==`` on every field)."""

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_population_scores_match_scalar_oracle(self, backend):
        for name in zoo.available_models():
            model = zoo.by_name(name)
            for power in POWER_GRID:
                explorer = _explorer(model, power, backend=backend)
                _assert_matches_scalar_oracle(
                    explorer, _population(explorer),
                    f"{backend}:{name}@{power}W",
                )

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_empty_and_malformed_populations(self, backend):
        from repro.errors import ConfigurationError

        explorer = _explorer(zoo.by_name("lenet5"), 2.0, backend=backend)
        evaluator = explorer.batch_evaluator
        assert len(evaluator.evaluate_population([])) == 0
        with pytest.raises(ConfigurationError, match="shape"):
            evaluator.evaluate_population([(1001,)])
        n = explorer.spec.model.num_weighted_layers
        bad = [tuple([0 * 1000 + 0] + [1] * (n - 1))]  # zero macros
        with pytest.raises(ConfigurationError, match="#macros"):
            evaluator.evaluate_population(bad)


class TestFullSynthesisIdentity:
    """backend x jobs x batch_eval: one winner, one telemetry stream."""

    def test_backend_jobs_batch_matrix_lenet5(self):
        outputs = set()
        for backend in AVAILABLE_BACKENDS:
            for jobs in (1, 4):
                for batch in (True, False):
                    solution = Pimsyn(zoo.by_name("lenet5"), (
                        SynthesisConfig.fast(
                            total_power=2.0, seed=7, jobs=jobs,
                            backend=backend, batch_eval=batch,
                        )
                    )).synthesize()
                    outputs.add(solution.to_json())
        assert len(outputs) == 1

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_identical_telemetry_per_backend(self, backend):
        reports = {}
        runs = {}
        for key, cfg_backend in (("baseline", "numpy"),
                                 ("candidate", backend)):
            synthesizer = Pimsyn(zoo.by_name("lenet5"), (
                SynthesisConfig.fast(
                    total_power=2.0, seed=11, backend=cfg_backend,
                )
            ))
            runs[key] = synthesizer.synthesize().to_json()
            reports[key] = synthesizer.report
        assert runs["candidate"] == runs["baseline"]
        assert reports["candidate"].ea_runs == reports["baseline"].ea_runs
        assert reports["candidate"].pruned_tasks == \
            reports["baseline"].pruned_tasks
        assert reports["candidate"].cache_hits == \
            reports["baseline"].cache_hits

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_alexnet_identity_per_backend(self, backend):
        solution = Pimsyn(zoo.by_name("alexnet_cifar"), (
            SynthesisConfig.fast(
                total_power=8.0, seed=7, backend=backend,
            )
        )).synthesize()
        baseline = Pimsyn(zoo.by_name("alexnet_cifar"), (
            SynthesisConfig.fast(
                total_power=8.0, seed=7, batch_eval=False,
            )
        )).synthesize()
        assert solution.to_json() == baseline.to_json()


class TestContentKeyPins:
    """backend / batch_eval are execution-only: PR 5 pins never move."""

    def test_pr5_fingerprints_byte_unchanged(self):
        assert params_fingerprint(HardwareParams()) == PINNED_PARAMS_FP
        fast = SynthesisConfig.fast(total_power=2.0)
        assert config_fingerprint(fast) == PINNED_CONFIG_FP_FAST_2W
        assert job_content_key(lenet5(), fast) == \
            PINNED_JOB_KEY_LENET5_FAST_2W

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_backend_choice_never_moves_a_key(self, backend):
        config = SynthesisConfig.fast(
            total_power=2.0, backend=backend,
        )
        assert config_fingerprint(config) == PINNED_CONFIG_FP_FAST_2W
        assert job_content_key(lenet5(), config) == \
            PINNED_JOB_KEY_LENET5_FAST_2W

    def test_batch_eval_toggle_never_moves_a_key(self):
        for batch in (True, False):
            config = SynthesisConfig.fast(
                total_power=2.0, batch_eval=batch,
            )
            assert config_fingerprint(config) == \
                PINNED_CONFIG_FP_FAST_2W


class TestGoldensPerBackend:
    """The committed pareto-front golden reproduces on every backend,
    byte-identically across backends."""

    @pytest.fixture(scope="class")
    def golden_payload(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "golden",
            "pareto_front_vgg8.json",
        )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_pareto_golden_reproduced(self, backend, golden_payload):
        from repro.core.design_space import DesignSpace

        model = zoo.by_name(golden_payload["model"])
        config = SynthesisConfig.fast(
            total_power=golden_payload["total_power"],
            seed=golden_payload["seed"], backend=backend,
        )
        config.pareto = True
        front = Pimsyn(model, config).synthesize_pareto()
        recomputed = json.loads(json.dumps(front.to_payload()["points"]))
        assert recomputed == golden_payload["points"]
        assert len(front) == golden_payload["front_size"]
