"""Unified marginal-gain greedy (engineering extension).

This is the "natural idea" the paper discusses before Algorithm 2: at
every step, place a RAP at the intersection with the maximum *total*
marginal gain, counting both newly covered flows and detour improvements
for covered flows in one number.

The paper's Fig. 4 walkthrough shows this policy reaching 7 attracted
drivers where the optimum is 8 — but the objective is monotone
submodular (the per-flow contribution is ``f(min detour)`` with ``f``
non-increasing), so this greedy actually carries the classic ``1 - 1/e``
guarantee, *stronger* than Algorithm 2's ``1 - 1/sqrt(e)``.  We ship it
both as a strong practical default and as an ablation partner for
Algorithm 2 (see ``benchmarks/bench_ablations.py``).

Selection is a CELF lazy scan over the array kernel
(:func:`~repro.core.kernel.celf_select`): the objective is monotone
submodular, so a stale gain bounds the current one, and the first fresh
pop is the exhaustive scan's argmax (ties break by candidate order).
"""

from __future__ import annotations

from typing import List

from .. import obs
from ..core import Scenario
from ..core.kernel import ArrayEvaluator, celf_select
from ..graphs import NodeId
from .base import PlacementAlgorithm, register


@register("marginal-greedy")
class MarginalGainGreedy(PlacementAlgorithm):
    """Greedy on total marginal gain (newly covered + improvements)."""

    name = "marginal-greedy"

    def __init__(self, stop_when_saturated: bool = True) -> None:
        self._stop_when_saturated = stop_when_saturated
        #: Gain evaluations performed during the last :meth:`select` call;
        #: exposed for the ablation benchmark.
        self.evaluations = 0

    def select(self, scenario: Scenario, k: int) -> List[NodeId]:
        """Greedy on total marginal gain (newly covered + detour improvements)."""
        with obs.span("select", algorithm=self.name, k=k):
            evaluator = ArrayEvaluator(scenario)
            chosen, self.evaluations = celf_select(
                evaluator,
                scenario.candidate_sites,
                k,
                evaluator.gain,
                self._stop_when_saturated,
            )
            return chosen
