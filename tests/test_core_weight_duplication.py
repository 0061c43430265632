"""Unit tests for the stage-1 SA weight-duplication filter."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SynthesisConfig
from repro.core.weight_duplication import WeightDuplicationFilter
from repro.errors import ConfigurationError, InfeasibleError
from repro.nn import zoo
from repro.utils.mathutils import stdev


def _filter(model, num_crossbars=2000, **overrides):
    config = SynthesisConfig.fast(total_power=5.0, **overrides)
    return WeightDuplicationFilter(
        model=model, xb_size=128, res_rram=2,
        num_crossbars=num_crossbars, config=config,
    )


def _eq4_reference(filt, state):
    steps = [p / d for p, d in zip(filt.out_positions, state)]
    volumes = [d * u for d, u in zip(state, filt.volume_units)]
    return stdev(steps) + filt.config.sa_alpha * stdev(volumes)


class TestFeasibility:
    def test_infeasible_budget_raises(self, tiny_model):
        with pytest.raises(InfeasibleError):
            _filter(tiny_model, num_crossbars=3)

    def test_crossbars_used_formula(self, tiny_model):
        filt = _filter(tiny_model)
        dup = (2, 3, 1)
        expected = sum(
            d * s for d, s in zip(dup, filt.set_sizes)
        )
        assert filt.crossbars_used(dup) == expected

    def test_is_feasible_checks_budget(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=50)
        assert filt.is_feasible((1, 1, 1))
        assert not filt.is_feasible((10000, 1, 1))

    def test_is_feasible_rejects_nonpositive(self, tiny_model):
        filt = _filter(tiny_model)
        assert not filt.is_feasible((0, 1, 1))

    def test_is_feasible_caps_at_output_positions(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=10 ** 9)
        # fc1 has 1 output position: duplication beyond 1 is useless.
        assert not filt.is_feasible((1, 1, 2))


class TestMalformedWtDup:
    """A WtDup of the wrong length is a typed error, not a silent
    zip truncation."""

    @pytest.mark.parametrize("dup", [(1, 1), (1, 1, 1, 1)])
    def test_crossbars_used(self, tiny_model, dup):
        with pytest.raises(ConfigurationError) as info:
            _filter(tiny_model).crossbars_used(dup)
        assert f"has {len(dup)} entries, expected 3" in str(info.value)

    def test_is_feasible(self, tiny_model):
        with pytest.raises(ConfigurationError, match="expected 3"):
            _filter(tiny_model).is_feasible((0, 1))

    def test_neighbor(self, tiny_model):
        with pytest.raises(ConfigurationError, match="expected 3"):
            _filter(tiny_model).neighbor((1, 1), random.Random(0))


class TestEnergyFunction:
    def test_eq4_value(self, tiny_model):
        filt = _filter(tiny_model)
        dup = (1, 1, 1)
        steps = [p / d for p, d in zip(filt.out_positions, dup)]
        volumes = [
            d * u for d, u in zip(dup, filt.volume_units)
        ]
        expected = stdev(steps) + filt.config.sa_alpha * stdev(volumes)
        assert filt.energy(dup) == pytest.approx(expected)

    def test_batch_matches_stdev_exactly(self, tiny_model):
        filt = _filter(tiny_model)
        states = [(1, 1, 1), (4, 1, 1), (3, 2, 1), (256, 64, 1)]
        assert filt.batch_energy(states) == [
            _eq4_reference(filt, state) for state in states
        ]
        assert [filt.energy(s) for s in states] == \
            filt.batch_energy(states)

    def test_balanced_beats_skewed(self, tiny_model):
        filt = _filter(tiny_model)
        # c1: 256 positions, c2: 64, fc: 1. Balancing steps lowers E.
        skewed = filt.energy((1, 1, 1))
        balanced = filt.energy((4, 1, 1))
        assert balanced < skewed


class TestInitialState:
    def test_feasible(self, tiny_model):
        filt = _filter(tiny_model)
        assert filt.is_feasible(filt.initial_state())

    def test_fills_budget_greedily(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=500)
        state = filt.initial_state()
        # the remaining budget cannot fit another copy of any
        # still-improvable layer
        remaining = filt.num_crossbars - filt.crossbars_used(state)
        for index, size in enumerate(filt.set_sizes):
            if state[index] < filt.dup_caps[index]:
                assert size > remaining

    def test_tight_budget_gives_all_ones(self, tiny_model):
        filt = _filter(tiny_model, num_crossbars=sum(
            _filter(tiny_model).set_sizes
        ))
        assert filt.initial_state() == (1, 1, 1)


class TestNeighbor:
    def test_neighbors_stay_feasible(self, tiny_model):
        filt = _filter(tiny_model)
        rng = random.Random(0)
        state = filt.initial_state()
        for _ in range(200):
            state = filt.neighbor(state, rng)
            assert filt.is_feasible(state)

    def test_frozen_when_no_move_possible(self, lenet):
        config = SynthesisConfig.fast(total_power=5.0)
        filt = WeightDuplicationFilter(
            model=lenet, xb_size=128, res_rram=2,
            num_crossbars=sum(
                WeightDuplicationFilter(
                    model=lenet, xb_size=128, res_rram=2,
                    num_crossbars=10 ** 6, config=config,
                ).set_sizes
            ),
            config=config,
        )
        state = (1,) * lenet.num_weighted_layers
        rng = random.Random(0)
        # With zero headroom the only feasible moves keep the state.
        assert filt.neighbor(state, rng) == state


def _rescan_neighbor(filt, state, rng):
    """The reference move: a full ``is_feasible`` rescan per retry."""
    n_layers = len(state)
    for _ in range(16):
        move = rng.randrange(3)
        candidate = list(state)
        if move == 0:
            index = rng.randrange(n_layers)
            candidate[index] += 1
        elif move == 1:
            index = rng.randrange(n_layers)
            candidate[index] -= 1
        else:
            src = rng.randrange(n_layers)
            dst = rng.randrange(n_layers)
            if src == dst:
                continue
            candidate[src] -= 1
            candidate[dst] += 1
        if filt.is_feasible(candidate):
            return tuple(candidate)
    return state


class TestNeighborDifferential:
    """The O(1) slack test against the rescan loop it replaced: same
    state out, same RNG state after, for feasible and infeasible
    inputs alike."""

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_rescan_loop(self, tiny_model, lenet, one_layer_model,
                                 data):
        model = data.draw(st.sampled_from(
            [tiny_model, lenet, one_layer_model]
        ), label="model")
        xb_size, res_rram = data.draw(
            st.sampled_from([(128, 2), (64, 1), (256, 4)]),
            label="xb_size, res_rram",
        )
        config = SynthesisConfig.fast(total_power=5.0)
        floor = sum(WeightDuplicationFilter(
            model=model, xb_size=xb_size, res_rram=res_rram,
            num_crossbars=10 ** 9, config=config,
        ).set_sizes)
        headroom = data.draw(st.one_of(
            st.integers(0, 8), st.integers(0, 4 * floor),
        ), label="headroom")
        filt = WeightDuplicationFilter(
            model=model, xb_size=xb_size, res_rram=res_rram,
            num_crossbars=floor + headroom, config=config,
        )
        # Start from the greedy fill (little slack) or all ones (all
        # the headroom), then overwrite a few entries: 0s, values over
        # a cap, and large in-cap values that overrun the budget.
        if data.draw(st.booleans(), label="greedy start"):
            state = list(filt.initial_state())
        else:
            state = [1] * len(filt.set_sizes)
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            index = data.draw(st.integers(0, len(state) - 1))
            cap = filt.dup_caps[index]
            state[index] = data.draw(st.one_of(
                st.integers(-1, 0),
                st.integers(cap + 1, cap + 3),
                st.integers(1, cap),
                st.integers(state[index] - 2, state[index] + 2),
            ))
        state = tuple(state)
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng_new, rng_ref = random.Random(seed), random.Random(seed)
        for _ in range(8):
            expected = _rescan_neighbor(filt, state, rng_ref)
            assert filt.neighbor(state, rng_new) == expected
            assert rng_new.getstate() == rng_ref.getstate()
            state = expected


class TestTopCandidates:
    def test_returns_requested_count(self, tiny_model):
        filt = _filter(tiny_model, num_wtdup_candidates=5)
        candidates = filt.top_candidates(random.Random(1))
        assert 1 <= len(candidates) <= 5

    def test_candidates_distinct_and_feasible(self, tiny_model):
        filt = _filter(tiny_model, num_wtdup_candidates=8)
        candidates = filt.top_candidates(random.Random(1))
        assert len(set(candidates)) == len(candidates)
        for c in candidates:
            assert filt.is_feasible(c)

    def test_sorted_by_energy(self, tiny_model):
        filt = _filter(tiny_model, num_wtdup_candidates=8)
        candidates = filt.top_candidates(random.Random(1))
        energies = [filt.energy(c) for c in candidates]
        assert energies == sorted(energies)

    def test_deterministic_under_seed(self, tiny_model):
        filt = _filter(tiny_model)
        a = filt.top_candidates(random.Random(9))
        b = _filter(tiny_model).top_candidates(random.Random(9))
        assert a == b

    def test_sa_beats_all_ones_energy(self, vgg13_model):
        filt = _filter(vgg13_model, num_crossbars=100000)
        best = filt.top_candidates(random.Random(2))[0]
        assert filt.energy(best) < filt.energy(
            tuple([1] * vgg13_model.num_weighted_layers)
        )


# top_candidates on the paper config (SynthesisConfig defaults), pinned
# as literal integer tuples: (model, xb_size, res_rram, num_crossbars,
# seed) -> ranked WtDup candidates.
PINNED_CANDIDATES = {
    ("lenet5", 128, 2, 288, 3):
        [(12, 2, 1, 1, 1), (13, 2, 1, 1, 1), (11, 2, 1, 1, 1),
         (14, 2, 1, 1, 1), (15, 2, 1, 1, 1), (16, 2, 1, 1, 1),
         (17, 2, 1, 1, 1), (17, 3, 1, 1, 1), (18, 2, 1, 1, 1),
         (18, 3, 1, 1, 1), (19, 3, 1, 1, 1), (20, 3, 1, 1, 1),
         (20, 2, 1, 1, 1), (21, 3, 1, 1, 1), (22, 3, 1, 1, 1),
         (23, 3, 1, 1, 1), (24, 3, 1, 1, 1)],
    ("lenet5", 64, 1, 1152, 11):
        [(12, 2, 1, 1, 1), (13, 2, 1, 1, 1), (11, 2, 1, 1, 1),
         (14, 2, 1, 1, 1), (15, 2, 1, 1, 1), (16, 2, 1, 1, 1),
         (17, 2, 1, 1, 1), (17, 3, 1, 1, 1), (18, 2, 1, 1, 1),
         (18, 3, 1, 1, 1), (19, 3, 1, 1, 1), (20, 3, 1, 1, 1),
         (21, 3, 1, 1, 1), (22, 3, 1, 1, 1), (23, 3, 1, 1, 1),
         (24, 3, 1, 1, 1), (25, 3, 1, 1, 1), (26, 3, 1, 1, 1),
         (27, 3, 1, 1, 1), (28, 3, 1, 1, 1), (29, 3, 1, 1, 1),
         (30, 3, 1, 1, 1), (31, 3, 1, 1, 1), (31, 4, 1, 1, 1),
         (32, 3, 1, 1, 1), (32, 4, 1, 1, 1), (33, 4, 1, 1, 1),
         (34, 3, 1, 1, 1), (34, 4, 1, 1, 1), (35, 3, 1, 1, 1)],
    ("resnet18_cifar", 128, 2, 8376, 5):
        [(34, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (33, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (32, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (31, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (31, 5, 5, 5, 5, 4, 15, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (30, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (29, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (28, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (27, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (26, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (25, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (24, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (23, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (22, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (21, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (20, 5, 5, 5, 5, 4, 16, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (20, 5, 5, 5, 5, 4, 15, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (20, 5, 5, 5, 5, 4, 14, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (20, 5, 5, 5, 5, 4, 13, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (20, 5, 5, 5, 5, 4, 12, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (21, 5, 5, 5, 5, 4, 11, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (19, 5, 5, 5, 5, 4, 12, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (20, 5, 5, 5, 5, 4, 11, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (18, 5, 5, 5, 5, 4, 12, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (18, 5, 5, 5, 5, 4, 11, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (17, 5, 5, 5, 5, 4, 11, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (17, 5, 5, 5, 5, 4, 10, 2, 2, 2, 2, 8, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (17, 5, 5, 5, 5, 4, 10, 2, 2, 2, 2, 7, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (16, 5, 5, 5, 5, 4, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1, 4, 1, 1, 1, 1),
         (16, 5, 5, 5, 5, 4, 10, 2, 2, 2, 2, 7, 1, 1, 1, 1, 4, 1, 1, 1, 1)],
    ("resnet18_cifar", 256, 4, 2340, 13):
        [(48, 7, 7, 7, 7, 6, 23, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (47, 7, 7, 7, 7, 6, 23, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (46, 7, 7, 7, 7, 6, 23, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (46, 7, 7, 7, 7, 6, 22, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (45, 7, 7, 7, 7, 6, 22, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (44, 7, 7, 7, 7, 6, 22, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (43, 7, 7, 7, 7, 6, 22, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (42, 7, 7, 7, 7, 6, 23, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (42, 7, 7, 7, 7, 6, 22, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (41, 7, 7, 7, 7, 6, 22, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (41, 7, 7, 7, 7, 6, 21, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (41, 7, 7, 7, 7, 6, 20, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (41, 7, 7, 7, 7, 6, 19, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (40, 7, 7, 7, 7, 6, 19, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (39, 7, 7, 7, 7, 6, 19, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (38, 7, 7, 7, 7, 6, 19, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (37, 7, 7, 7, 7, 6, 19, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (37, 7, 7, 7, 7, 6, 18, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (37, 7, 7, 7, 7, 6, 17, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (36, 7, 7, 7, 7, 6, 17, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (35, 7, 7, 7, 7, 6, 17, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (36, 7, 7, 7, 7, 6, 16, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (36, 7, 7, 7, 7, 6, 16, 3, 3, 3, 3, 11, 2, 2, 2, 2, 5, 1, 1, 1, 1),
         (35, 7, 7, 7, 7, 6, 16, 3, 3, 3, 3, 11, 2, 2, 2, 2, 5, 1, 1, 1, 1),
         (35, 7, 7, 7, 7, 6, 15, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (35, 7, 7, 7, 7, 6, 14, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (36, 7, 7, 7, 7, 6, 13, 3, 3, 3, 3, 11, 2, 2, 2, 2, 5, 1, 1, 1, 1),
         (35, 7, 7, 7, 7, 6, 13, 3, 3, 3, 3, 11, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (35, 7, 7, 7, 7, 6, 13, 3, 3, 3, 3, 12, 2, 2, 2, 2, 6, 1, 1, 1, 1),
         (35, 7, 7, 7, 7, 6, 12, 3, 3, 3, 3, 12, 2, 2, 2, 2, 6, 1, 1, 1, 1)],
}


@pytest.mark.parametrize(
    "case", sorted(PINNED_CANDIDATES),
    ids=lambda case: "-".join(map(str, case)),
)
def test_top_candidates_pinned(case):
    name, xb_size, res_rram, num_crossbars, seed = case
    filt = WeightDuplicationFilter(
        model=zoo.by_name(name), xb_size=xb_size, res_rram=res_rram,
        num_crossbars=num_crossbars,
        config=SynthesisConfig(total_power=5.0),
    )
    candidates = filt.top_candidates(random.Random(seed))
    assert candidates == PINNED_CANDIDATES[case]
    assert filt.batch_energy(candidates) == [
        _eq4_reference(filt, state) for state in candidates
    ]
