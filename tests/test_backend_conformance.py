"""Per-backend conformance for the array-execution registry.

Both backends (``numpy`` and ``python``) must return bit-identical
values from the prune mask and the fused task-grid bound kernel — the
``python`` loop engine is the reference, since it executes the scalar
oracle's operation order literally. The EA population lane kernel,
which no backend owns, is held to the scalar oracle here too. Every
output is compared with ``==``.

The registry's lookup behavior is pinned too: unknown names raise
ConfigurationError naming the backends that do exist.
"""

from __future__ import annotations

import random

import pytest

from repro.core.backend import (
    BUILTIN_BACKENDS,
    DEFAULT_BACKEND,
    NumpyBackend,
    PythonBackend,
    available_backends,
    backend_status,
    get_backend,
)
from repro.core.config import SynthesisConfig
from repro.errors import ConfigurationError


def _reference() -> PythonBackend:
    return get_backend("python")


@pytest.fixture(scope="module")
def lenet_grid():
    """A real TaskGrid (lenet5's fast queue) for kernel conformance."""
    from repro.core.design_space import DesignSpace
    from repro.core.executor import ExplorationEngine
    from repro.core.grid_eval import GridBoundEvaluator
    from repro.core.synthesizer import SynthesisReport
    from repro.nn import zoo

    model = zoo.by_name("lenet5")
    config = SynthesisConfig.fast(total_power=2.0, seed=7)
    engine = ExplorationEngine(model, config, SynthesisReport())
    points = list(DesignSpace(model, config).outer_points())
    executor = engine._make_executor()
    try:
        tasks = engine._build_tasks(executor, points, None)
    finally:
        executor.close()
    assert tasks
    evaluator = GridBoundEvaluator(model, config)
    scalar = [engine._local_runner.throughput_bound(t) for t in tasks]
    return evaluator.build_grid(tasks), scalar


class TestPrimitiveConformance:
    """prune_mask: exact across backends."""

    @pytest.mark.parametrize("name", available_backends())
    def test_prune_mask_semantics(self, name):
        backend = get_backend(name)
        bounds = [3.0, 2.0, 2.0, 1.0, 2.0]
        positions = [0, 1, 2, 3, 4]
        # Incumbent: fitness 2.0 at task index 2. Pruned: strictly
        # worse bounds, or ties held by *larger* task indices.
        mask = [bool(v) for v in backend.prune_mask(
            bounds, positions, 2.0, 2
        )]
        assert mask == [False, False, False, True, True]

    @pytest.mark.parametrize("name", available_backends())
    def test_prune_mask_subset_positions(self, name):
        """positions indexes into the full bounds array (the executor
        passes the un-walked tail of its order), not a dense slice."""
        backend = get_backend(name)
        bounds = [5.0, 1.0, 4.0, 2.0]
        mask = [bool(v) for v in backend.prune_mask(
            bounds, [3, 0], 2.0, 1
        )]
        assert mask == [True, False]


class TestKernelConformance:
    """compute_bounds: bit-identical to the scalar oracle, per backend."""

    @pytest.mark.parametrize("name", available_backends())
    def test_compute_bounds_matches_scalar_oracle(
        self, name, lenet_grid
    ):
        backend = get_backend(name)
        grid, scalar = lenet_grid
        values = [float(v) for v in backend.compute_bounds(grid)]
        assert values == scalar

    @pytest.mark.parametrize("name", available_backends())
    def test_compute_bounds_cross_backend_identity(
        self, name, lenet_grid
    ):
        backend = get_backend(name)
        grid, _ = lenet_grid
        reference = [
            float(v) for v in _reference().compute_bounds(grid)
        ]
        assert [float(v) for v in backend.compute_bounds(grid)] == \
            reference


def _lane_population(name, power):
    """A real stage-3 explorer + rule-valid gene population for
    ``name`` at ``power`` watts, plus the scalar oracle's ``score`` of
    every gene."""
    from repro.core.dataflow import make_spec
    from repro.core.macro_partition import MacroPartitionExplorer
    from repro.hardware.power import PowerBudget
    from repro.nn import zoo

    model = zoo.by_name(name)
    config = SynthesisConfig.fast(total_power=power)
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
    explorer = MacroPartitionExplorer(
        spec=spec, budget=budget, res_dac=1, config=config,
        rng=random.Random(11),
    )
    genes = explorer.initial_population(8)
    rng = random.Random(13)
    while len(genes) < 32:
        parent = rng.choice(genes)
        operator = rng.choice(
            [explorer.mutate_num, explorer.mutate_share]
        )
        genes.append(operator(parent, rng))
    return explorer, genes, [explorer.score(gene) for gene in genes]


#: (model, watts) populations the lane-kernel conformance tier scores:
#: a 4-layer chain and a 21-layer residual net (skip edges, row-tiled
#: merges), each at a budget that leaves some lanes infeasible.
LANE_CASES = {"lenet5": 0.5, "resnet18_cifar": 12.0}

#: Integer / flag score fields.
EXACT_SCORE_FIELDS = ("feasible", "bottleneck_layer", "num_macros")
#: Float kernel outputs.
FLOAT_SCORE_FIELDS = (
    "fitness", "period", "latency", "throughput", "tops", "power",
    "tops_per_watt", "energy_per_image", "edp",
)


@pytest.fixture(scope="module", params=sorted(LANE_CASES))
def lane_population(request):
    explorer, genes, oracle = _lane_population(
        request.param, LANE_CASES[request.param]
    )
    return explorer.batch_evaluator.evaluate_population(genes), oracle


class TestScorePopulationConformance:
    """The population lane kernel against the scalar oracle
    (``MacroPartitionExplorer.score``): ``==`` on every field."""

    def test_exact_fields_bit_identical(self, lane_population):
        batch, oracle = lane_population
        for k, (_fitness, allocation, result) in enumerate(oracle):
            assert bool(batch.feasible[k]) == (allocation is not None)
            if result is None:
                assert int(batch.bottleneck_layer[k]) == -1
                assert int(batch.num_macros[k]) == 0
            else:
                assert int(batch.bottleneck_layer[k]) == \
                    result.bottleneck_layer

    def test_float_fields_within_contract(self, lane_population):
        batch, oracle = lane_population
        for k, (fitness, _allocation, result) in enumerate(oracle):
            assert float(batch.fitness[k]) == fitness
            if result is None:
                continue
            for field in FLOAT_SCORE_FIELDS[1:]:
                assert float(getattr(batch, field)[k]) == \
                    getattr(result, field), field

    def test_population_has_feasible_and_infeasible_lanes(
        self, lane_population
    ):
        """The fixture exercises both kernel paths; infeasible lanes
        must come back fully masked."""
        import numpy as np

        batch, _ = lane_population
        feasible = np.asarray(batch.feasible)
        assert feasible.any()
        masked = ~feasible
        assert masked.any()
        for field in FLOAT_SCORE_FIELDS:
            vals = np.asarray(getattr(batch, field))
            assert np.all(vals[masked] == 0.0), field
        assert np.all(np.asarray(batch.bottleneck_layer)[masked] == -1)
        assert np.all(np.asarray(batch.num_macros)[masked] == 0)


class TestRegistry:
    """Lookup validation."""

    def test_builtins_listed_first(self):
        names = available_backends()
        assert tuple(names[:len(BUILTIN_BACKENDS)]) == BUILTIN_BACKENDS
        assert DEFAULT_BACKEND in names

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(
            ConfigurationError, match="unknown backend"
        ) as info:
            get_backend("cuda")
        # the message names what *is* available
        assert "['numpy', 'python']" in str(info.value)

    @pytest.mark.parametrize("name", ["numba", "cupy", "torch"])
    def test_removed_backend_is_unknown(self, name):
        with pytest.raises(
            ConfigurationError, match="unknown backend"
        ) as info:
            get_backend(name)
        assert "['numpy', 'python']" in str(info.value)

    def test_registry_is_numpy_and_python(self):
        assert available_backends() == ["numpy", "python"]
        assert BUILTIN_BACKENDS == ("numpy", "python")

    @pytest.mark.parametrize("name", BUILTIN_BACKENDS)
    def test_status_row_is_available(self, name):
        rows = {row[0]: row[1:] for row in backend_status()}
        ok, note = rows[name]
        assert ok is True
        assert note == get_backend(name).description

    def test_instance_passthrough(self):
        backend = get_backend("python")
        assert get_backend(backend) is backend


class TestConfigIntegration:
    """SynthesisConfig validates its backend at construction."""

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SynthesisConfig.fast(total_power=2.0, backend="cuda")

    @pytest.mark.parametrize("name", ["numba", "cupy", "torch"])
    def test_removed_backend_fails_fast(self, name):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SynthesisConfig.fast(total_power=2.0, backend=name)

    def test_non_string_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            SynthesisConfig.fast(total_power=2.0, backend=3)

    def test_default_backend_resolves(self):
        config = SynthesisConfig.fast(total_power=2.0)
        assert get_backend(config.backend).name == DEFAULT_BACKEND


class TestCli:
    """`repro backends` lists the registry; --check gates exit status."""

    def test_backends_listing(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_BACKENDS:
            assert name in out

    def test_backends_check_available(self, capsys):
        from repro.cli import main

        assert main(["backends", "--check", "numpy"]) == 0
        assert "available" in capsys.readouterr().out

    def test_backends_check_unknown_fails(self, capsys):
        from repro.cli import main

        assert main(["backends", "--check", "cuda"]) == 1
        assert "unknown backend" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["numba", "cupy", "torch"])
    def test_backends_check_removed_fails(self, capsys, name):
        from repro.cli import main

        assert main(["backends", "--check", name]) == 1
        assert "unknown backend" in capsys.readouterr().err

    @pytest.mark.parametrize("name", BUILTIN_BACKENDS)
    def test_backends_check_builtin_passes(self, capsys, name):
        from repro.cli import main

        assert main(["backends", "--check", name]) == 0
        out = capsys.readouterr().out
        assert "available" in out
        assert "conformance probe passed" in out

    def test_probe_catches_a_one_ulp_bound_divergence(self):
        """The probe compares every task's bound with ``==``: a
        backend off by one ulp on a single task fails it."""
        import math

        import numpy as np

        from repro.cli import _backend_probe
        from repro.errors import PimsynError

        class OffByOneUlp(NumpyBackend):
            name = "off-by-one-ulp"

            def compute_bounds(self, grid):
                bounds = np.array(super().compute_bounds(grid))
                positive = np.flatnonzero(bounds > 0)
                bounds[positive[-1]] = math.nextafter(
                    bounds[positive[-1]], math.inf
                )
                return bounds

        with pytest.raises(PimsynError, match="bound-kernel"):
            _backend_probe(OffByOneUlp())
