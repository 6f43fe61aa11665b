"""Reference evaluation: the per-entry evaluator and exhaustive greedy scans.

The production engine (:class:`repro.core.kernel.ArrayEvaluator` and the
CELF / batched selectors in :mod:`repro.algorithms`) runs on packed CSR
arrays with one-time utility evaluation and lazy heaps.  This module
keeps the plain formulation they replaced as the differential oracle:
an evaluator that walks one :class:`~repro.core.coverage.CoverageEntry`
at a time and calls the scalar utility on every query, and greedy
selectors that rescan every unplaced candidate each round, breaking
ties by candidate-site order.  Placements, gains and ``finish()``
outcomes from the engine must equal these bit for bit.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence, Set, Tuple

from repro.core import Scenario, evaluate_placement
from repro.core.placement import FlowOutcome, Placement
from repro.errors import InvalidScenarioError
from repro.graphs import INFINITY, NodeId

#: Sentinel path position for flows no placed RAP serves yet.
_NO_POSITION = sys.maxsize

#: Greedy variants with a reference scan; lazy-greedy shares
#: marginal-greedy's (CELF only skips rescans, never changes the argmax).
REFERENCE_GREEDIES = (
    "greedy-coverage",
    "composite-greedy",
    "marginal-greedy",
    "lazy-greedy",
)


class IncrementalEvaluator:
    """Mutable evaluation state for greedy placement construction.

    The evaluator caches, per flow, ``f(best detour) * volume`` (the
    current contribution).  ``gain(v)`` sums, over flows passing ``v``,
    the improvement a RAP at ``v`` would bring; :meth:`place` commits one.
    All queries use the scenario's :class:`CoverageIndex`, so each costs
    O(#incidences of v).
    """

    def __init__(self, scenario: Scenario) -> None:
        self._scenario = scenario
        self._coverage = scenario.coverage
        self._utility = scenario.utility
        flows = scenario.flows
        self._best_detour: List[float] = [INFINITY] * len(flows)
        self._contribution: List[float] = [0.0] * len(flows)
        self._touched: List[bool] = [False] * len(flows)
        # Serving RAP per flow under Theorem 1 tie-breaking (minimum
        # detour, then earliest path position); lets finish() build the
        # Placement from cached state without a re-evaluation pass.
        self._serving: List[Optional[NodeId]] = [None] * len(flows)
        self._serving_pos: List[int] = [_NO_POSITION] * len(flows)
        self._placed: List[NodeId] = []
        self._placed_set: Set[NodeId] = set()
        self._attracted = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def attracted(self) -> float:
        """Customers attracted by the RAPs placed so far."""
        return self._attracted

    @property
    def placed(self) -> Tuple[NodeId, ...]:
        """RAPs committed so far, in placement order."""
        return tuple(self._placed)

    def is_placed(self, node: NodeId) -> bool:
        """Whether a RAP is already committed at ``node``."""
        return node in self._placed_set

    def is_touched(self, flow_index: int) -> bool:
        """Whether some placed RAP lies on the flow's path (any detour)."""
        return self._touched[flow_index]

    def is_covered(self, flow_index: int) -> bool:
        """Whether the flow is *covered* in the paper's sense (Def. 2):
        some placed RAP attracts a positive fraction of its drivers.

        Under the threshold utility this is exactly "a RAP includes the
        flow" (detour <= D); under decreasing utilities it means the best
        detour is inside the threshold.
        """
        return self._contribution[flow_index] > 0.0

    def best_detour(self, flow_index: int) -> float:
        """Current minimum detour for one flow (inf when untouched)."""
        return self._best_detour[flow_index]

    def _entry_gain(self, flow_index: int, detour: float) -> float:
        flow = self._scenario.flows[flow_index]
        new_contribution = (
            self._utility.probability(detour, flow.attractiveness) * flow.volume
        )
        return new_contribution - self._contribution[flow_index]

    def gain(self, node: NodeId) -> float:
        """Total marginal gain of placing a RAP at ``node`` now."""
        if node in self._placed_set:
            return 0.0
        total = 0.0
        for entry in self._coverage.covering(node):
            if entry.detour < self._best_detour[entry.flow_index]:
                delta = self._entry_gain(entry.flow_index, entry.detour)
                if delta > 0:
                    total += delta
        return total

    def gain_split(self, node: NodeId) -> Tuple[float, float]:
        """``(uncovered_gain, covered_gain)`` — Algorithm 2's two factors.

        ``uncovered_gain`` counts flows not yet covered (no positive
        contribution); ``covered_gain`` counts flows already covered that
        would switch to ``node`` for a smaller detour.  The two always sum
        to :meth:`gain`.
        """
        if node in self._placed_set:
            return 0.0, 0.0
        uncovered = 0.0
        covered = 0.0
        for entry in self._coverage.covering(node):
            if entry.detour >= self._best_detour[entry.flow_index]:
                continue
            # Lowering the best detour never lowers the contribution (the
            # utility is non-increasing), so delta >= 0 up to float noise.
            delta = max(0.0, self._entry_gain(entry.flow_index, entry.detour))
            if self._contribution[entry.flow_index] > 0.0:
                covered += delta
            else:
                uncovered += delta
        return uncovered, covered

    def covers_new_flows(self, node: NodeId) -> bool:
        """Whether ``node`` touches at least one currently untouched flow."""
        return any(
            not self._touched[entry.flow_index]
            for entry in self._coverage.covering(node)
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place(self, node: NodeId) -> float:
        """Commit a RAP at ``node``; returns the realized gain."""
        if node in self._placed_set:
            raise InvalidScenarioError(f"RAP already placed at {node!r}")
        realized = 0.0
        for entry in self._coverage.covering(node):
            index = entry.flow_index
            self._touched[index] = True
            if entry.detour < self._best_detour[index]:
                delta = self._entry_gain(index, entry.detour)
                self._best_detour[index] = entry.detour
                self._contribution[index] += delta
                self._serving[index] = node
                self._serving_pos[index] = entry.position
                realized += delta
            elif (
                entry.detour == self._best_detour[index]
                and entry.position < self._serving_pos[index]
            ):
                # Theorem 1 tie-break: equal detour, earlier in travel
                # order — the serving RAP changes, the value does not.
                self._serving[index] = node
                self._serving_pos[index] = entry.position
        self._placed.append(node)
        self._placed_set.add(node)
        self._attracted += realized
        return realized

    def finish(self, algorithm: str = "") -> Placement:
        """Produce the full :class:`Placement` for the committed RAPs.

        Built from the evaluator's own cached per-flow state (best
        detour + serving RAP) — identical output to running
        :func:`evaluate_placement` on ``placed``, without re-walking any
        flow path.
        """
        outcomes: List[FlowOutcome] = []
        total = 0.0
        for index, flow in enumerate(self._scenario.flows):
            serving = self._serving[index]
            probability = (
                self._utility.probability(
                    self._best_detour[index], flow.attractiveness
                )
                if serving is not None
                else 0.0
            )
            customers = probability * flow.volume
            total += customers
            outcomes.append(
                FlowOutcome(
                    detour=self._best_detour[index],
                    probability=probability,
                    customers=customers,
                    serving_rap=serving,
                )
            )
        return Placement(
            raps=tuple(self._placed),
            attracted=total,
            outcomes=tuple(outcomes),
            algorithm=algorithm,
        )


def reference_totals(
    scenario: Scenario, placements: Sequence[Sequence[NodeId]]
) -> List[float]:
    """Attracted totals, one exact path-walking evaluation per placement."""
    return [
        evaluate_placement(scenario, list(sites)).attracted
        for sites in placements
    ]


def _first_unplaced(
    sites: Sequence[NodeId], evaluator: IncrementalEvaluator
) -> Optional[NodeId]:
    for site in sites:
        if not evaluator.is_placed(site):
            return site
    return None


def _best_by(
    scenario: Scenario, evaluator: IncrementalEvaluator, uncovered_only: bool
) -> Optional[NodeId]:
    """Exhaustive argmax of the total (or uncovered-flow) gain."""
    best_site: Optional[NodeId] = None
    best_gain = 0.0
    for site in scenario.candidate_sites:
        if evaluator.is_placed(site):
            continue
        if uncovered_only:
            gain = evaluator.gain_split(site)[0]
        else:
            gain = evaluator.gain(site)
        if gain > best_gain:
            best_site, best_gain = site, gain
    return best_site


def _best_candidate(
    scenario: Scenario, evaluator: IncrementalEvaluator
) -> Optional[NodeId]:
    """The better of Algorithm 2's two candidate intersections.

    Ties between the candidates favour candidate i (covering new flows);
    ties among intersections favour candidate-site order.
    """
    candidate_i: Tuple[Optional[NodeId], float] = (None, 0.0)
    candidate_ii: Tuple[Optional[NodeId], float] = (None, 0.0)
    for site in scenario.candidate_sites:
        if evaluator.is_placed(site):
            continue
        uncovered_gain, covered_gain = evaluator.gain_split(site)
        if uncovered_gain > candidate_i[1]:
            candidate_i = (site, uncovered_gain)
        if covered_gain > candidate_ii[1]:
            candidate_ii = (site, covered_gain)
    if candidate_i[0] is None and candidate_ii[0] is None:
        return None
    if candidate_ii[1] > candidate_i[1]:
        return candidate_ii[0]
    return candidate_i[0]


def reference_select(
    name: str,
    scenario: Scenario,
    k: int,
    stop_when_saturated: bool = True,
) -> List[NodeId]:
    """Exhaustive-scan selection for one of :data:`REFERENCE_GREEDIES`."""
    if name not in REFERENCE_GREEDIES:
        raise ValueError(f"no reference scan for {name!r}")
    evaluator = IncrementalEvaluator(scenario)
    chosen: List[NodeId] = []
    for _ in range(k):
        if name == "composite-greedy":
            site = _best_candidate(scenario, evaluator)
        else:
            site = _best_by(
                scenario, evaluator, uncovered_only=name == "greedy-coverage"
            )
        if site is None:
            if stop_when_saturated:
                break
            site = _first_unplaced(scenario.candidate_sites, evaluator)
            if site is None:
                break
        evaluator.place(site)
        chosen.append(site)
    return chosen
