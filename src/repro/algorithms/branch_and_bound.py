"""Exact placement via branch and bound with a submodular upper bound.

:class:`ExhaustiveOptimal` enumerates all ``C(n, k)`` subsets; this
solver prunes that tree and typically solves instances an order of
magnitude larger:

* **branching** — candidates are ordered by single-site value; each node
  either takes or skips the next candidate;
* **bounding** — by submodularity, the marginal gain of any site never
  grows as the partial placement extends, so

      value(S) + sum of the (k − |S|) largest current gains

  over the remaining candidates upper-bounds every completion of ``S``;
* **seeding** — the incumbent starts at the greedy solution, so the
  solver proves optimality (or improves on greedy) rather than starting
  cold.

Output matches :class:`ExhaustiveOptimal` exactly (the test suite checks
this on randomized instances); use it when the exhaustive work limit
trips.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core import ArrayEvaluator, Scenario
from ..errors import InfeasiblePlacementError
from ..graphs import NodeId
from .base import PlacementAlgorithm, register
from .marginal_greedy import MarginalGainGreedy


@register("branch-and-bound")
class BranchAndBoundOptimal(PlacementAlgorithm):
    """Exact solver; ``node_limit`` bounds the search-tree size."""

    name = "branch-and-bound"

    def __init__(self, node_limit: int = 5_000_000) -> None:
        self._node_limit = node_limit
        #: Search-tree nodes expanded by the last :meth:`select` call.
        self.nodes_expanded = 0

    def select(self, scenario: Scenario, k: int) -> List[NodeId]:
        """Exact optimum via bounded DFS (greedy incumbent, submodular bound)."""
        useful = [
            site
            for site in scenario.candidate_sites
            if scenario.coverage.covering(site)
        ]
        budget = min(k, len(useful))
        if budget == 0:
            return []

        # Order candidates by single-site value (descending) — better
        # incumbents early, tighter bounds.
        base = ArrayEvaluator(scenario)
        singles = sorted(
            useful, key=lambda site: -base.gain(site)
        )

        # Greedy incumbent.
        incumbent_sites = MarginalGainGreedy().select(scenario, budget)
        incumbent_value = self._value_of(scenario, incumbent_sites)

        self.nodes_expanded = 0
        best = self._search(
            scenario,
            singles,
            budget,
            incumbent_sites,
            incumbent_value,
        )
        return best

    # ------------------------------------------------------------------
    def _value_of(self, scenario: Scenario, sites: List[NodeId]) -> float:
        evaluator = ArrayEvaluator(scenario)
        for site in sites:
            evaluator.place(site)
        return evaluator.attracted

    def _search(
        self,
        scenario: Scenario,
        order: List[NodeId],
        budget: int,
        incumbent_sites: List[NodeId],
        incumbent_value: float,
    ) -> List[NodeId]:
        """Iterative DFS over take/skip decisions."""
        best_sites = list(incumbent_sites)
        best_value = incumbent_value

        # Stack entries: (depth, evaluator, chosen) — evaluators are
        # rebuilt by replay to keep memory flat (placements are tiny).
        stack: List[Tuple[int, List[NodeId]]] = [(0, [])]
        while stack:
            depth, chosen = stack.pop()
            self.nodes_expanded += 1
            if self.nodes_expanded > self._node_limit:
                raise InfeasiblePlacementError(
                    f"branch-and-bound exceeded {self._node_limit} nodes; "
                    "loosen the limit or use a greedy algorithm"
                )
            evaluator = ArrayEvaluator(scenario)
            for site in chosen:
                evaluator.place(site)
            value = evaluator.attracted
            remaining_budget = budget - len(chosen)
            if remaining_budget == 0 or depth >= len(order):
                if value > best_value:
                    best_sites, best_value = list(chosen), value
                continue

            # Submodular bound: top remaining gains at the current state.
            gains = sorted(
                (
                    evaluator.gain(site)
                    for site in order[depth:]
                    if not evaluator.is_placed(site)
                ),
                reverse=True,
            )
            bound = value + sum(gains[:remaining_budget])
            if bound <= best_value + 1e-12:
                continue
            if value > best_value:
                best_sites, best_value = list(chosen), value

            site = order[depth]
            # Explore "take" after "skip" pops (LIFO): push skip first.
            stack.append((depth + 1, chosen))
            stack.append((depth + 1, chosen + [site]))
        return best_sites
