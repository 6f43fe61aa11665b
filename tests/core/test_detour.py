"""Tests for detour-distance computation, anchored on the paper's Fig. 4."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetourCalculator, TrafficFlow, flow_between
from repro.errors import InvalidScenarioError
from repro.graphs import (
    INFINITY,
    Point,
    RoadNetwork,
    manhattan_grid,
    shortest_path,
)
from tests.conftest import build_paper_flows, build_paper_network


@pytest.fixture
def calc(paper_network):
    return DetourCalculator(paper_network, shop="V1")


class TestPaperFig4Detours:
    """Every detour distance the paper states for Fig. 4."""

    def test_t25_at_v3_is_4(self, calc, paper_flows):
        t25 = paper_flows[0]
        assert calc.detour("V3", t25) == pytest.approx(4.0)

    def test_t25_at_v2_is_2(self, calc, paper_flows):
        t25 = paper_flows[0]
        assert calc.detour("V2", t25) == pytest.approx(2.0)

    def test_t35_at_v3_is_4(self, calc, paper_flows):
        t35 = paper_flows[1]
        assert calc.detour("V3", t35) == pytest.approx(4.0)

    def test_t35_at_v5_is_6(self, calc, paper_flows):
        t35 = paper_flows[1]
        assert calc.detour("V5", t35) == pytest.approx(6.0)

    def test_t43_at_v3_is_4(self, calc, paper_flows):
        t43 = paper_flows[2]
        assert calc.detour("V3", t43) == pytest.approx(4.0)

    def test_t43_at_v4_is_2(self, calc, paper_flows):
        t43 = paper_flows[2]
        assert calc.detour("V4", t43) == pytest.approx(2.0)

    def test_t56_at_v5_is_6(self, calc, paper_flows):
        t56 = paper_flows[3]
        assert calc.detour("V5", t56) == pytest.approx(6.0)

    def test_t56_at_v6_is_8(self, calc, paper_flows):
        """The paper: V6 does not include T[5,6] because its detour is 8."""
        t56 = paper_flows[3]
        assert calc.detour("V6", t56) == pytest.approx(8.0)


class TestConstruction:
    def test_shop_must_be_on_network(self, paper_network):
        with pytest.raises(InvalidScenarioError):
            DetourCalculator(paper_network, shop="V99")

    def test_unknown_mode_rejected(self, paper_network):
        with pytest.raises(InvalidScenarioError):
            DetourCalculator(paper_network, shop="V1", mode="psychic")

    def test_accessors(self, calc):
        assert calc.shop == "V1"
        assert calc.mode == "shortest"
        assert calc.network.node_count == 6


class TestDistanceFields:
    def test_distance_to_shop(self, calc):
        assert calc.distance_to_shop("V1") == 0.0
        assert calc.distance_to_shop("V3") == pytest.approx(2.0)
        assert calc.distance_to_shop("V6") == pytest.approx(4.0)

    def test_distance_from_shop(self, calc):
        assert calc.distance_from_shop("V5") == pytest.approx(3.0)

    def test_warm_up_precomputes(self, calc, paper_flows):
        calc.warm_up(paper_flows)
        assert calc.detour("V3", paper_flows[0]) == pytest.approx(4.0)


class TestUnreachability:
    def test_shop_unreachable_gives_infinity(self):
        net = RoadNetwork()
        net.add_intersection("shop", Point(0, 0))
        net.add_intersection("a", Point(1, 0))
        net.add_intersection("b", Point(2, 0))
        net.add_road("shop", "a")  # shop -> a only; nothing reaches shop
        net.add_road("a", "b")
        calc = DetourCalculator(net, shop="shop")
        flow = TrafficFlow(path=("a", "b"), volume=1)
        assert calc.detour("a", flow) == INFINITY

    def test_destination_unreachable_from_shop(self):
        net = RoadNetwork()
        net.add_intersection("shop", Point(0, 0))
        net.add_intersection("a", Point(1, 0))
        net.add_intersection("b", Point(2, 0))
        net.add_road("a", "b")
        net.add_road("b", "shop")  # shop has no outgoing streets at all
        calc = DetourCalculator(net, shop="shop")
        flow = TrafficFlow(path=("a", "b"), volume=1)
        assert calc.detour("a", flow) == INFINITY


class TestDetoursAlong:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), side=st.integers(2, 6))
    def test_bit_identical_to_the_scalar_formula(self, seed, side):
        """The numpy path expression equals ``max(0, d1 + d2 - d3)``
        evaluated per node on the reference oracle's distances, on
        one-way grids where shop and destinations may be unreachable."""
        from tests.graphs.sp_reference import (
            reference_dijkstra,
            reference_distances_to,
        )

        rng = random.Random(seed)
        net = manhattan_grid(side, side, 10.0 + rng.random())
        for tail, head, _ in list(net.edges()):
            if net.has_road(head, tail) and rng.random() < 0.25:
                net.remove_road(tail, head)
        nodes = list(net.nodes())
        shop = rng.choice(nodes)
        calc = DetourCalculator(net, shop=shop)
        to_shop = reference_distances_to(net, shop)
        from_shop, _ = reference_dijkstra(net, shop)
        for _ in range(5):
            origin, destination = rng.choice(nodes), rng.choice(nodes)
            reference, _ = reference_dijkstra(net, origin)
            if origin == destination or destination not in reference:
                continue
            flow = flow_between(net, origin, destination, volume=1)
            direct = reference_distances_to(net, destination)
            expected = []
            for node in flow.path:
                terms = (
                    to_shop.get(node, INFINITY),
                    from_shop.get(destination, INFINITY),
                    direct.get(node, INFINITY),
                )
                if INFINITY in terms:
                    expected.append((node, INFINITY))
                else:
                    expected.append(
                        (node, max(0.0, terms[0] + terms[1] - terms[2]))
                    )
            got = list(calc.detours_along(flow))
            assert [node for node, _ in got] == [node for node, _ in expected]
            for (_, ours), (_, theirs) in zip(got, expected):
                assert type(ours) is float
                assert ours.hex() == theirs.hex()

    def test_matches_pointwise_queries(self, calc, paper_flows):
        for flow in paper_flows:
            along = dict(calc.detours_along(flow))
            for node in flow.path:
                assert along[node] == pytest.approx(calc.detour(node, flow))

    def test_best_detour_is_first_minimum(self, calc, paper_flows):
        t25 = paper_flows[0]
        node, detour = calc.best_detour(t25)
        assert node == "V2"
        assert detour == pytest.approx(2.0)


class TestAlongPathMode:
    def test_equal_on_shortest_paths(self, paper_network, paper_flows):
        """When flow paths are shortest, both modes agree."""
        shortest = DetourCalculator(paper_network, "V1", mode="shortest")
        along = DetourCalculator(paper_network, "V1", mode="along-path")
        for flow in paper_flows:
            for node in flow.path:
                assert along.detour(node, flow) == pytest.approx(
                    shortest.detour(node, flow)
                )

    def test_non_shortest_path_clamped_at_zero(self):
        """A wandering fixed path can make d''' exceed the direct route;
        the detour is clamped at zero rather than going negative."""
        net = manhattan_grid(3, 3, 1.0)
        # A legal but non-shortest path from (0,0) to (0,2).
        path = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (0, 2))
        flow = TrafficFlow(path=path, volume=1)
        calc = DetourCalculator(net, shop=(1, 1), mode="along-path")
        for node in path:
            assert calc.detour(node, flow) >= 0.0

    def test_off_path_node_is_infinite_in_along_mode(self):
        net = manhattan_grid(3, 3, 1.0)
        flow = TrafficFlow(path=((0, 0), (0, 1), (0, 2)), volume=1)
        calc = DetourCalculator(net, shop=(1, 1), mode="along-path")
        assert calc.detour((2, 2), flow) == INFINITY


class TestTheorem1:
    """Theorem 1: along a flow's path, the detour distance is
    non-decreasing in travel order (the first RAP is always best)."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_detour_non_decreasing_along_path(self, seed):
        rng = random.Random(seed)
        net = manhattan_grid(6, 6, 100.0)
        nodes = list(net.nodes())
        shop = rng.choice(nodes)
        origin, destination = rng.sample(nodes, 2)
        path = shortest_path(net, origin, destination)
        if len(path) < 2:
            return
        flow = TrafficFlow(path=tuple(path), volume=1)
        calc = DetourCalculator(net, shop=shop)
        detours = [d for _, d in calc.detours_along(flow)]
        for earlier, later in zip(detours, detours[1:]):
            assert earlier <= later + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_detour_non_negative(self, seed):
        rng = random.Random(seed)
        net = build_paper_network()
        nodes = list(net.nodes())
        shop = rng.choice(nodes)
        calc = DetourCalculator(net, shop=shop)
        for flow in build_paper_flows():
            for _, detour in calc.detours_along(flow):
                assert detour >= 0.0 or detour == INFINITY
