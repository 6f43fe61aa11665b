"""Placement evaluation under Manhattan (RAP-aware routing) semantics.

A flow from ``i`` to ``j`` can reach a RAP at ``v`` iff ``v`` lies on some
shortest ``i -> j`` path — i.e. ``dist(i, v) + dist(v, j) == dist(i, j)``.
Among all reachable RAPs the driver is served by the one with the minimum
detour distance (rationality: if they decline the best offer they decline
them all, paper Theorem 1 logic applied across paths).

:class:`ManhattanEvaluator` reads one forward Dijkstra field per distinct
flow origin and one reverse field per distinct destination, plus the two
shop fields, so evaluating a placement costs ``O(|T| * k)`` after warm-up.
The fields come from the network's shared cache
(:func:`~repro.graphs.distances_from` / :func:`~repro.graphs.distances_to_target`),
so evaluators for different shops on one grid share them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core import FlowOutcome, Placement
from ..errors import InvalidScenarioError
from ..graphs import (
    INFINITY,
    DistanceField,
    NodeId,
    distances_from,
    distances_to_target,
)
from .scenario import ManhattanScenario

_REL_TOL = 1e-9


class ManhattanEvaluator:
    """Scores RAP placements under multiple-shortest-path routing."""

    def __init__(self, scenario: ManhattanScenario) -> None:
        self._scenario = scenario
        network = scenario.network
        self._to_shop = distances_to_target(network, scenario.shop)
        self._from_shop = distances_from(network, scenario.shop)

    def _origin_field(self, origin: NodeId) -> DistanceField:
        return distances_from(self._scenario.network, origin)

    def _destination_field(self, destination: NodeId) -> DistanceField:
        return distances_to_target(self._scenario.network, destination)

    def reachable(self, flow_index: int, node: NodeId) -> bool:
        """Whether ``node`` is on some shortest path of the flow."""
        flow = self._scenario.flows[flow_index]
        from_origin = self._origin_field(flow.origin)
        to_destination = self._destination_field(flow.destination)
        total = from_origin[flow.destination]
        if total == INFINITY:
            return False
        d_in = from_origin[node]
        d_out = to_destination[node]
        if d_in == INFINITY or d_out == INFINITY:
            return False
        return d_in + d_out <= total + _REL_TOL * max(1.0, total)

    def detour(self, flow_index: int, node: NodeId) -> float:
        """Detour distance for the flow if served by a RAP at ``node``.

        Meaningful only when :meth:`reachable`; computed with the same
        ``d' + d'' - d'''`` formula as the general scenario.
        """
        flow = self._scenario.flows[flow_index]
        d_to_shop = self._to_shop[node]
        d_from_shop = self._from_shop[flow.destination]
        d_direct = self._destination_field(flow.destination)[node]
        if INFINITY in (d_to_shop, d_from_shop, d_direct):
            return INFINITY
        return max(0.0, d_to_shop + d_from_shop - d_direct)

    def best_option(
        self, flow_index: int, raps: Sequence[NodeId]
    ) -> Tuple[Optional[NodeId], float]:
        """The reachable RAP with the minimum detour, or ``(None, inf)``."""
        best: Optional[NodeId] = None
        best_detour = INFINITY
        for rap in raps:
            if not self.reachable(flow_index, rap):
                continue
            detour = self.detour(flow_index, rap)
            if detour < best_detour:
                best, best_detour = rap, detour
        return best, best_detour

    def evaluate(self, raps: Sequence[NodeId], algorithm: str = "") -> Placement:
        """Score a full placement."""
        rap_list = list(raps)
        if len(set(rap_list)) != len(rap_list):
            raise InvalidScenarioError(f"duplicate RAP sites in {rap_list!r}")
        network = self._scenario.network
        for rap in rap_list:
            if rap not in network:
                raise InvalidScenarioError(
                    f"RAP site {rap!r} is not an intersection"
                )
        utility = self._scenario.utility
        outcomes: List[FlowOutcome] = []
        total = 0.0
        for index, flow in enumerate(self._scenario.flows):
            serving, detour = self.best_option(index, rap_list)
            probability = (
                utility.probability(detour, flow.attractiveness)
                if serving is not None
                else 0.0
            )
            customers = probability * flow.volume
            total += customers
            outcomes.append(
                FlowOutcome(
                    detour=detour,
                    probability=probability,
                    customers=customers,
                    serving_rap=serving,
                )
            )
        return Placement(
            raps=tuple(rap_list),
            attracted=total,
            outcomes=tuple(outcomes),
            algorithm=algorithm,
        )

    def marginal_gain(
        self,
        flow_contributions: List[float],
        node: NodeId,
    ) -> float:
        """Gain of adding ``node`` given current per-flow contributions.

        Used by the greedy fallback in Algorithm 3/4's small-``k`` branch
        replacement and by ablations; ``flow_contributions`` holds each
        flow's current attracted customers.
        """
        utility = self._scenario.utility
        gain = 0.0
        for index, flow in enumerate(self._scenario.flows):
            if not self.reachable(index, node):
                continue
            detour = self.detour(index, node)
            candidate = utility.probability(detour, flow.attractiveness) * flow.volume
            if candidate > flow_contributions[index]:
                gain += candidate - flow_contributions[index]
        return gain

    def commit(
        self,
        flow_contributions: List[float],
        node: NodeId,
    ) -> float:
        """Update ``flow_contributions`` in place for a RAP at ``node``."""
        utility = self._scenario.utility
        realized = 0.0
        for index, flow in enumerate(self._scenario.flows):
            if not self.reachable(index, node):
                continue
            detour = self.detour(index, node)
            candidate = utility.probability(detour, flow.attractiveness) * flow.volume
            if candidate > flow_contributions[index]:
                realized += candidate - flow_contributions[index]
                flow_contributions[index] = candidate
        return realized


def evaluate_manhattan(
    scenario: ManhattanScenario,
    raps: Sequence[NodeId],
    algorithm: str = "",
) -> Placement:
    """One-shot evaluation (builds a fresh evaluator)."""
    return ManhattanEvaluator(scenario).evaluate(raps, algorithm)
