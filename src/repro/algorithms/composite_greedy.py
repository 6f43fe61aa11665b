"""Algorithm 2 — the composite greedy solution (paper Section III-C).

Decreasing utilities break plain coverage greedy because RAPs *overlap*:
a later RAP can serve an already-covered flow better by offering a
smaller detour (paper Theorem 1: the detour distance grows along the
travel path, so the first RAP encountered always wins).  Algorithm 2
therefore evaluates two candidate intersections per step —

* **candidate i** — maximizes drivers attracted from *uncovered* flows;
* **candidate ii** — maximizes *additional* drivers from covered flows,
  by providing them smaller detour distances;

and places a RAP at whichever candidate attracts more drivers.  Theorem 2
proves a ``1 - 1/sqrt(e)`` approximation ratio for any non-increasing
utility.  Under the threshold utility candidate ii's gain is always zero,
so Algorithm 2 reduces to Algorithm 1, as the paper notes.

Each step evaluates both candidate factors for *every* site in one
batched segment reduction (:meth:`ArrayEvaluator.gain_splits`).  A CELF
lazy scan is deliberately not used for candidate ii: the covered-flow
gain can *grow* as flows become covered, so a stale bound on it is not
an upper bound (candidate i alone would qualify — the batched scan
already prices both factors in one pass).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import obs
from ..core import Scenario
from ..core.kernel import ArrayEvaluator, first_unplaced
from ..graphs import NodeId
from .base import PlacementAlgorithm, register


@register("composite-greedy")
class CompositeGreedy(PlacementAlgorithm):
    """Paper Algorithm 2.

    ``stop_when_saturated`` mirrors
    :class:`~repro.algorithms.greedy_coverage.GreedyCoverage`.
    """

    name = "composite-greedy"

    def __init__(self, stop_when_saturated: bool = True) -> None:
        self._stop_when_saturated = stop_when_saturated

    def select(self, scenario: Scenario, k: int) -> List[NodeId]:
        """Paper Algorithm 2: best of candidate-i / candidate-ii per step.

        Ties between the candidates favour candidate i (covering new
        flows), matching the paper's presentation order; ties among
        intersections favour candidate-site order, keeping the algorithm
        deterministic.
        """
        with obs.span("select", algorithm=self.name, k=k):
            evaluator = ArrayEvaluator(scenario)
            sites = scenario.candidate_sites
            chosen: List[NodeId] = []
            rounds = 0
            for _ in range(k):
                rounds += 1
                uncovered, covered = evaluator.gain_splits(sites)
                # np.argmax returns the first maximum: candidate-site
                # order breaks ties.
                i_index = int(np.argmax(uncovered))
                ii_index = int(np.argmax(covered))
                i_gain = float(uncovered[i_index])
                ii_gain = float(covered[ii_index])
                site: Optional[NodeId] = None
                if ii_gain > i_gain:
                    site = sites[ii_index]
                elif i_gain > 0.0:
                    site = sites[i_index]
                if site is None:
                    if self._stop_when_saturated:
                        break
                    site = first_unplaced(sites, evaluator)
                    if site is None:
                        break
                evaluator.place(site)
                chosen.append(site)
            if obs.active() is not None:
                obs.count_many(
                    {
                        "algorithm.iterations": len(chosen),
                        "gain.evaluations": rounds * len(sites),
                        "scan.batched_rounds": rounds,
                    }
                )
            return chosen
