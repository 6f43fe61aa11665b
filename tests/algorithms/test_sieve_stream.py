"""Sieve-streaming placement: quality vs offline CELF, online updates.

Pins the acceptance bar: on seeded arrival streams at paper scale
(a 10x10 grid city, 60 random flows — the Fig. 10 instance class),
the best sieve achieves at least 90% of offline CELF utility, driven by
the array kernel or by the per-entry reference evaluator, for every
seeded shuffle of the arrival order.  The
(1/2 - eps) worst-case guarantee is Theorem 6 of Badanidiyuru et al.
(KDD 2014); coverage objectives in practice sit far above it.
"""

import random

import pytest

from repro.algorithms import (
    LazyGreedy,
    SieveStreamState,
    SieveStreaming,
    algorithm_by_name,
    sieve_stream,
)
from repro.core import LinearUtility, Scenario, flow_between
from repro.core.kernel import evaluate_placement_many
from repro.errors import PlacementError
from repro.graphs import manhattan_grid

from ..core.eval_reference import IncrementalEvaluator

#: What drives the sieves: "python" swaps in the per-entry reference
#: evaluator, "numpy" runs the production array kernel.
EVALUATORS = ("python", "numpy")


def use_evaluator(monkeypatch, evaluator: str) -> None:
    if evaluator == "python":
        monkeypatch.setattr(
            sieve_stream, "ArrayEvaluator", IncrementalEvaluator
        )

K = 5


def paper_scale_scenario(seed=0) -> Scenario:
    """A seeded instance of the paper's synthetic evaluation class."""
    rng = random.Random(seed)
    network = manhattan_grid(10, 10, block=400.0)
    nodes = list(network.nodes())
    flows = [
        flow_between(
            network, *rng.sample(nodes, 2),
            volume=rng.randint(100, 1000), attractiveness=1.0,
            label=f"pattern-{i:03d}",
        )
        for i in range(60)
    ]
    return Scenario(network, flows, nodes[len(nodes) // 2],
                    LinearUtility(4_000.0))


class TestRegistration:
    def test_registered_by_name(self):
        assert isinstance(algorithm_by_name("sieve-stream"), SieveStreaming)

    def test_invalid_parameters_rejected(self):
        scenario = paper_scale_scenario()
        with pytest.raises(PlacementError):
            SieveStreamState(scenario, k=0)
        with pytest.raises(PlacementError):
            SieveStreamState(scenario, k=2, epsilon=1.5)


class TestQualityVsCelf:
    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_sieve_reaches_90_percent_of_celf(self, monkeypatch, evaluator):
        scenario = paper_scale_scenario(seed=3)
        celf = LazyGreedy().place(scenario, K).attracted
        assert celf > 0
        sites = list(scenario.candidate_sites)
        use_evaluator(monkeypatch, evaluator)
        for stream_seed in range(5):
            random.Random(stream_seed).shuffle(sites)
            state = SieveStreamState(scenario, K)
            state.offer_many(sites)
            ratio = state.best_value() / celf
            assert ratio >= 0.9, (
                f"stream seed {stream_seed}: sieve reached only "
                f"{ratio:.3f} of CELF ({state.best_value():.1f} vs "
                f"{celf:.1f})"
            )
            assert len(state.best_sites()) <= K

    def test_select_streams_candidates_in_order(self):
        scenario = paper_scale_scenario(seed=1)
        algorithm = SieveStreaming()
        placement = algorithm.place(scenario, K)
        state = SieveStreamState(scenario, K)
        state.offer_many(scenario.candidate_sites)
        assert placement.raps == tuple(state.best_sites())
        assert algorithm.offers == len(scenario.candidate_sites)
        assert algorithm.admissions == state.admissions

    def test_backends_agree_exactly(self, monkeypatch):
        """The kernel-driven sieve equals the reference-driven one."""
        scenario = paper_scale_scenario(seed=2)
        values = []
        for evaluator in ("numpy", "python"):
            use_evaluator(monkeypatch, evaluator)
            state = SieveStreamState(scenario, K)
            state.offer_many(scenario.candidate_sites)
            values.append((state.best_value(), state.best_sites()))
        assert values[0] == values[1]

    def test_best_value_matches_reevaluation(self):
        scenario = paper_scale_scenario(seed=4)
        state = SieveStreamState(scenario, K)
        state.offer_many(scenario.candidate_sites)
        sites = state.best_sites()
        assert state.best_value() == pytest.approx(
            evaluate_placement_many(scenario, [sites])[0], rel=1e-12
        )


class TestOnlineArrive:
    def test_arrive_migrates_onto_patched_volumes(self):
        scenario = paper_scale_scenario(seed=5)
        state = SieveStreamState(scenario, K)
        state.offer_many(scenario.candidate_sites)

        # Quadruple the volume of three flows and migrate online.
        from dataclasses import replace

        flows = list(scenario.flows)
        changed = [0, 7, 19]
        for index in changed:
            flows[index] = replace(
                flows[index], volume=4.0 * flows[index].volume
            )
        patched = scenario.with_flows(flows)
        reoffered = state.arrive(patched, changed)
        assert reoffered >= 0
        # Values now measure against the *patched* scenario.
        assert state.best_value() == pytest.approx(
            evaluate_placement_many(patched, [state.best_sites()])[0],
            rel=1e-12,
        )
        # And quality against CELF on the patched instance holds.
        celf = LazyGreedy().place(patched, K).attracted
        assert state.best_value() >= 0.9 * celf

    def test_arrive_does_not_rescan_all_candidates(self):
        scenario = paper_scale_scenario(seed=6)
        state = SieveStreamState(scenario, K)
        state.offer_many(scenario.candidate_sites)
        offers_before = state.offers

        from dataclasses import replace

        flows = list(scenario.flows)
        flows[0] = replace(flows[0], volume=flows[0].volume + 500.0)
        reoffered = state.arrive(scenario.with_flows(flows), [0])
        # Only sites covering flow 0 were re-offered — strictly fewer
        # than the full candidate set.
        assert reoffered == state.offers - offers_before
        assert reoffered < len(scenario.candidate_sites)
