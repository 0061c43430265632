"""The fused stage-1 SA walk against the scalar oracle it replaces.

``WeightDuplicationFilter.top_candidates`` runs one fused loop. Its
oracle is ``SimulatedAnnealer`` driving the filter's own ``energy``,
``batch_energy`` and ``neighbor`` from ``initial_state``. Both must
return the same candidate list and leave the RNG in the same state.
The fused loop also writes ``rng.randrange(n)`` out as CPython's
rejection loop on ``getrandbits``; that loop is pinned to ``randrange``
here, so an interpreter that changes ``randrange`` fails this test
instead of silently moving every solution.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SynthesisConfig
from repro.core.weight_duplication import WeightDuplicationFilter
from repro.nn import zoo
from repro.optim.annealing import SimulatedAnnealer


def _oracle_candidates(filt, rng, top_k=None):
    """The pre-fusion ``top_candidates``: the annealer over the
    filter's scalar methods."""
    config = filt.config
    annealer = SimulatedAnnealer(
        energy=filt.energy,
        neighbor=filt.neighbor,
        state_key=lambda state: state,
        rng=rng,
        schedule=config.annealing_schedule(),
        batch_energy=filt.batch_energy,
        proposal_batch=config.sa_proposal_batch,
    )
    ranked = annealer.run(
        filt.initial_state(),
        top_k=config.num_wtdup_candidates if top_k is None else top_k,
    )
    return [state for state, _energy in ranked]


def _floor(model, xb_size, res_rram):
    return sum(WeightDuplicationFilter(
        model=model, xb_size=xb_size, res_rram=res_rram,
        num_crossbars=10 ** 9, config=SynthesisConfig(),
    ).set_sizes)


def _filter(model, xb_size, res_rram, num_crossbars, **knobs):
    return WeightDuplicationFilter(
        model=model, xb_size=xb_size, res_rram=res_rram,
        num_crossbars=num_crossbars,
        config=SynthesisConfig(total_power=5.0, **knobs),
    )


def _assert_walks_equal(filt, seed):
    fused_rng, oracle_rng = random.Random(seed), random.Random(seed)
    fused = filt.top_candidates(fused_rng)
    assert fused == _oracle_candidates(filt, oracle_rng)
    assert fused_rng.getstate() == oracle_rng.getstate()
    return fused


class TestFusedWalkDifferential:
    @settings(
        max_examples=120, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_annealer_oracle(self, tiny_model, lenet,
                                     one_layer_model, resnet_cifar, data):
        model = data.draw(st.sampled_from(
            [tiny_model, lenet, one_layer_model, resnet_cifar]
        ), label="model")
        xb_size, res_rram = data.draw(
            st.sampled_from([(128, 2), (64, 1), (256, 4)]),
            label="xb_size, res_rram",
        )
        floor = _floor(model, xb_size, res_rram)
        # At the floor most moves fail and the neighbor falls back to
        # the unchanged state; at 4x the walk roams.
        num_crossbars = data.draw(st.one_of(
            st.sampled_from([floor, floor + 1, 4 * floor]),
            st.integers(floor, 4 * floor),
        ), label="num_crossbars")
        # Step counts that are not a multiple of the round size leave a
        # partial last round at every temperature.
        proposal_batch = data.draw(
            st.sampled_from([1, 3, 8]), label="sa_proposal_batch"
        )
        steps = data.draw(
            st.sampled_from([1, 5, 7, 20, 40]), label="sa_steps_per_temp"
        )
        filt = _filter(
            model, xb_size, res_rram, num_crossbars,
            sa_proposal_batch=proposal_batch,
            sa_steps_per_temp=steps,
            sa_cooling_rate=data.draw(
                st.sampled_from([0.8, 0.9]), label="sa_cooling_rate"
            ),
            sa_alpha=data.draw(
                st.sampled_from([0.0, 0.5, 2.0]), label="sa_alpha"
            ),
            num_wtdup_candidates=data.draw(
                st.sampled_from([1, 3, 30]), label="num_wtdup_candidates"
            ),
        )
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        _assert_walks_equal(filt, seed)

    @pytest.mark.parametrize("top_k, proposal_batch", [
        (1, 1), (1, 3), (1, 8), (3, 1), (3, 3), (3, 8), (30, 8),
    ])
    def test_walk_that_evicts(self, resnet_cifar, top_k, proposal_batch):
        """A ``top_k`` archive holds at most ``4 * top_k + 64`` states;
        these walks accept more distinct states than that, so they evict
        down to the best ``2 * top_k`` (for ``top_k=1``, repeatedly)."""
        filt = _filter(
            resnet_cifar, 128, 2, 2 * _floor(resnet_cifar, 128, 2),
            num_wtdup_candidates=top_k, sa_proposal_batch=proposal_batch,
        )
        unbounded = _oracle_candidates(filt, random.Random(5), top_k=10 ** 6)
        assert len(unbounded) > 4 * top_k + 64
        assert len(_assert_walks_equal(filt, 5)) == top_k

    def test_floor_budget_uses_the_unchanged_state_fallback(self, lenet):
        filt = _filter(lenet, 128, 2, _floor(lenet, 128, 2))
        unchanged = []
        neighbor = filt.neighbor

        def counting_neighbor(state, rng):
            moved = neighbor(state, rng)
            unchanged.append(moved == state)
            return moved

        filt.neighbor = counting_neighbor
        _assert_walks_equal(filt, 3)
        assert any(unchanged)

    @pytest.mark.parametrize("name", ["alexnet_cifar", "vgg13"])
    def test_paper_config_zoo_models(self, name):
        model = zoo.by_name(name)
        floor = _floor(model, 128, 2)
        for num_crossbars in (floor, 2 * floor):
            _assert_walks_equal(_filter(model, 128, 2, num_crossbars), 11)


def _randbelow(rng, n):
    """The draw ``top_candidates`` inlines for ``rng.randrange(n)``."""
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


@pytest.mark.parametrize("seed", [0, 1, 2024, 2 ** 32 - 1, 2 ** 64 + 7])
def test_inline_draw_is_cpython_randrange(seed):
    for n in range(1, 65):
        inline, reference = random.Random(seed), random.Random(seed)
        drawn = [_randbelow(inline, n) for _ in range(64)]
        assert drawn == [reference.randrange(n) for _ in range(64)], n
        assert inline.getstate() == reference.getstate(), n
