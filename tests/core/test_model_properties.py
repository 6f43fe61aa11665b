"""Model-level invariants, property-tested on random scenarios."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArrayEvaluator,
    LinearUtility,
    Scenario,
    SqrtUtility,
    ThresholdUtility,
    evaluate_placement,
    flow_between,
)
from repro.graphs import manhattan_grid

UTILITIES = [ThresholdUtility, LinearUtility, SqrtUtility]


def random_instance(seed: int):
    rng = random.Random(seed)
    net = manhattan_grid(5, 5, 1.0)
    nodes = list(net.nodes())
    shop = rng.choice(nodes)
    flows = [
        flow_between(
            net, *rng.sample(nodes, 2),
            volume=rng.randint(1, 50),
            attractiveness=rng.choice([0.2, 0.5, 1.0]),
        )
        for _ in range(rng.randint(1, 6))
    ]
    utility = rng.choice(UTILITIES)(rng.choice([2.0, 4.0, 8.0]))
    return Scenario(net, flows, shop, utility), rng


class TestEvaluationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_attracted_bounded_by_ceiling(self, seed):
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), rng.randint(0, 6))
        placement = evaluate_placement(scenario, raps)
        ceiling = sum(f.volume * f.attractiveness for f in scenario.flows)
        assert 0.0 <= placement.attracted <= ceiling + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_order_invariance(self, seed):
        """A placement's value cannot depend on site order."""
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), 4)
        shuffled = list(raps)
        rng.shuffle(shuffled)
        a = evaluate_placement(scenario, raps).attracted
        b = evaluate_placement(scenario, shuffled).attracted
        assert a == pytest.approx(b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_incremental_equals_batch_any_order(self, seed):
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), rng.randint(1, 5))
        evaluator = ArrayEvaluator(scenario)
        for rap in raps:
            evaluator.place(rap)
        batch = evaluate_placement(scenario, raps)
        assert evaluator.attracted == pytest.approx(batch.attracted)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_per_flow_outcomes_sum_to_total(self, seed):
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), 3)
        placement = evaluate_placement(scenario, raps)
        assert sum(o.customers for o in placement.outcomes) == pytest.approx(
            placement.attracted
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_serving_rap_is_on_flow_path(self, seed):
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), 4)
        placement = evaluate_placement(scenario, raps)
        for flow, outcome in zip(scenario.flows, placement.outcomes):
            if outcome.serving_rap is not None:
                assert outcome.serving_rap in flow.path

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_serving_rap_attains_min_detour(self, seed):
        """Theorem 1 semantics: the serving RAP has the smallest detour
        among placed RAPs on the flow's path."""
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), 4)
        placement = evaluate_placement(scenario, raps)
        calculator = scenario.detour_calculator
        for flow, outcome in zip(scenario.flows, placement.outcomes):
            on_path = [r for r in raps if r in flow.path]
            if not on_path:
                assert outcome.serving_rap is None
                continue
            detours = [calculator.detour(r, flow) for r in on_path]
            assert outcome.detour == pytest.approx(min(detours))


class TestUtilitySwapConsistency:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_with_utility_matches_fresh_scenario(self, seed):
        """Scenario.with_utility must give identical results to building
        a fresh scenario with that utility."""
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), 3)
        new_utility = LinearUtility(6.0)
        cloned = scenario.with_utility(new_utility)
        fresh = Scenario(
            scenario.network, scenario.flows, scenario.shop, new_utility
        )
        assert evaluate_placement(cloned, raps).attracted == pytest.approx(
            evaluate_placement(fresh, raps).attracted
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_pointwise_utility_dominance_transfers(self, seed):
        """threshold >= linear >= sqrt utilities pointwise implies the
        same ordering of any fixed placement's value."""
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), 3)
        threshold_value = evaluate_placement(
            scenario.with_utility(ThresholdUtility(5.0)), raps
        ).attracted
        linear_value = evaluate_placement(
            scenario.with_utility(LinearUtility(5.0)), raps
        ).attracted
        sqrt_value = evaluate_placement(
            scenario.with_utility(SqrtUtility(5.0)), raps
        ).attracted
        assert threshold_value >= linear_value - 1e-9
        assert linear_value >= sqrt_value - 1e-9
