"""Algorithm 1 — greedy weighted maximum coverage (paper Section III-B).

At each of ``k`` steps, place a RAP at the intersection attracting the
maximum drivers from *uncovered* traffic flows, then mark the flows it
reaches as covered.  Under the threshold utility this is exactly the
classic greedy for weighted maximum coverage and inherits its
``1 - 1/e`` approximation ratio (Khuller, Moss & Naor 1999).

The implementation is utility-agnostic: with a decreasing utility it
degenerates into "coverage-only" greedy (the paper's Fig. 4 discussion
shows why that is insufficient there), which makes it a useful ablation
against Algorithm 2.

The uncovered-flow gain is itself non-increasing as RAPs are placed
(placing a RAP can only cover flows or shrink best detours, both of
which remove terms), so selection is a CELF lazy scan over it
(:func:`~repro.core.kernel.celf_select`).
"""

from __future__ import annotations

from typing import List

from .. import obs
from ..core import Scenario
from ..core.kernel import ArrayEvaluator, celf_select
from ..graphs import NodeId
from .base import PlacementAlgorithm, register


@register("greedy-coverage")
class GreedyCoverage(PlacementAlgorithm):
    """Paper Algorithm 1.

    Parameters
    ----------
    stop_when_saturated:
        When True (default, matching the paper's example where "the
        algorithm terminates since all the traffic flows are covered"),
        stop early once no intersection yields positive gain.  When
        False, keep placing zero-gain RAPs until ``k`` are down
        (deterministically, in candidate order).
    """

    name = "greedy-coverage"

    def __init__(self, stop_when_saturated: bool = True) -> None:
        self._stop_when_saturated = stop_when_saturated

    def select(self, scenario: Scenario, k: int) -> List[NodeId]:
        """Paper Algorithm 1: greedily cover uncovered flows."""
        with obs.span("select", algorithm=self.name, k=k):
            evaluator = ArrayEvaluator(scenario)

            def uncovered_gain(site: NodeId) -> float:
                return evaluator.gain_split(site)[0]

            chosen, _ = celf_select(
                evaluator,
                scenario.candidate_sites,
                k,
                uncovered_gain,
                self._stop_when_saturated,
            )
            return chosen
