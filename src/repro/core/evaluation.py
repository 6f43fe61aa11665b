"""Exact placement evaluation.

:func:`evaluate_placement` scores a finished placement, returning a
:class:`~repro.core.placement.Placement` with per-flow outcomes.  Ties
in detour distance are resolved to the RAP encountered first in travel
order, matching the paper's Theorem 1 semantics.  It walks every flow
path, so it is the slow, exact scorer the runtime sanitizer wraps; the
greedy algorithms build placements incrementally on
:class:`~repro.core.kernel.ArrayEvaluator` instead.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from ..errors import InvalidScenarioError
from ..graphs import INFINITY, NodeId
from .placement import FlowOutcome, Placement
from .scenario import Scenario


def evaluate_placement(
    scenario: Scenario,
    raps: Sequence[NodeId],
    algorithm: str = "",
) -> Placement:
    """Score ``raps`` on ``scenario`` (general fixed-path semantics).

    Duplicate sites are rejected; sites may be any intersection, not just
    ``scenario.candidate_sites`` (so optimality baselines can roam).
    """
    # Indirection so repro.devtools.sanitize can observe every call,
    # however the caller imported this function.
    return _evaluate_placement_impl(scenario, raps, algorithm)


def _evaluate_placement(
    scenario: Scenario,
    raps: Sequence[NodeId],
    algorithm: str = "",
) -> Placement:
    rap_list = list(raps)
    if len(set(rap_list)) != len(rap_list):
        raise InvalidScenarioError(f"duplicate RAP sites in {rap_list!r}")
    for rap in rap_list:
        if rap not in scenario.network:
            raise InvalidScenarioError(f"RAP site {rap!r} is not an intersection")
    rap_set: Set[NodeId] = set(rap_list)
    utility = scenario.utility
    calculator = scenario.detour_calculator

    outcomes: List[FlowOutcome] = []
    total = 0.0
    for flow in scenario.flows:
        best_detour = INFINITY
        serving: Optional[NodeId] = None
        # Travel order + strict improvement implements Theorem 1's
        # tie-breaking: the first RAP attaining the minimum detour serves.
        for node, detour in calculator.detours_along(flow):
            if node in rap_set and detour < best_detour:
                best_detour = detour
                serving = node
        probability = (
            utility.probability(best_detour, flow.attractiveness)
            if serving is not None
            else 0.0
        )
        customers = probability * flow.volume
        total += customers
        outcomes.append(
            FlowOutcome(
                detour=best_detour,
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


#: Hook point: the sanitizer replaces this to wrap every evaluation.
_evaluate_placement_impl = _evaluate_placement


def attracted_customers(scenario: Scenario, raps: Iterable[NodeId]) -> float:
    """Shortcut: total attracted customers for ``raps`` on ``scenario``."""
    return evaluate_placement(scenario, list(raps)).attracted
