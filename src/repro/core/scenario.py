"""Scenario: the full problem instance handed to placement algorithms.

A :class:`Scenario` bundles the road network, the targetable traffic
flows, the shop location, and the utility function, and owns the derived
structures (detour calculator, coverage index) so that algorithms and
evaluators share one set of Dijkstra fields.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import InvalidScenarioError
from ..graphs import BoundingBox, NodeId, RoadNetwork
from .coverage import CoverageIndex
from .detour import DetourCalculator
from .flow import TrafficFlow
from .utility import UtilityFunction


class Scenario:
    """One shop, one network, a set of flows, one utility function.

    Parameters
    ----------
    network:
        The road network; not copied — treat as frozen after construction.
    flows:
        The targetable traffic flows (paper's set ``T``).  Paths are
        validated against the network.
    shop:
        The intersection hosting the shop.
    utility:
        Detour-probability function ``f``.
    candidate_sites:
        Intersections eligible for RAPs.  Defaults to every intersection.
    detour_mode:
        ``"shortest"`` (paper) or ``"along-path"`` — see
        :class:`~repro.core.detour.DetourCalculator`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        flows: Sequence[TrafficFlow],
        shop: NodeId,
        utility: UtilityFunction,
        candidate_sites: Optional[Sequence[NodeId]] = None,
        detour_mode: str = "shortest",
    ) -> None:
        if shop not in network:
            raise InvalidScenarioError(f"shop {shop!r} is not an intersection")
        if not flows:
            raise InvalidScenarioError("scenario needs at least one traffic flow")
        for flow in flows:
            flow.validate_on(network)
        self._network = network
        self._flows: Tuple[TrafficFlow, ...] = tuple(flows)
        self._shop = shop
        self._utility = utility
        if candidate_sites is None:
            self._candidates: Tuple[NodeId, ...] = tuple(network.nodes())
        else:
            for site in candidate_sites:
                if site not in network:
                    raise InvalidScenarioError(
                        f"candidate site {site!r} is not an intersection"
                    )
            self._candidates = tuple(dict.fromkeys(candidate_sites))
            if not self._candidates:
                raise InvalidScenarioError("candidate site list is empty")
        self._detour_mode = detour_mode
        self._calculator: Optional[DetourCalculator] = None
        self._coverage: Optional[CoverageIndex] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The road network."""
        return self._network

    @property
    def flows(self) -> Tuple[TrafficFlow, ...]:
        """The targetable traffic flows (paper's set ``T``)."""
        return self._flows

    @property
    def shop(self) -> NodeId:
        """The shop intersection."""
        return self._shop

    @property
    def utility(self) -> UtilityFunction:
        """The detour-probability function ``f``."""
        return self._utility

    @property
    def candidate_sites(self) -> Tuple[NodeId, ...]:
        """Intersections eligible to host RAPs."""
        return self._candidates

    @property
    def detour_mode(self) -> str:
        """The detour semantics this scenario was built with."""
        return self._detour_mode

    @property
    def detour_calculator(self) -> DetourCalculator:
        """Lazily built detour engine (shared by algorithms and evaluators)."""
        if self._calculator is None:
            self._calculator = DetourCalculator(
                self._network, self._shop, mode=self._detour_mode
            )
        return self._calculator

    @property
    def coverage(self) -> CoverageIndex:
        """Lazily built coverage index (site -> flows with detours)."""
        if self._coverage is None:
            self._coverage = CoverageIndex(self._flows, self.detour_calculator)
        return self._coverage

    def attach_coverage(self, coverage: CoverageIndex) -> None:
        """Install a prebuilt coverage index (artifact-cache restore path).

        A :class:`CoverageIndex` reconstructed from persisted CSR arrays
        (:meth:`CoverageIndex.from_packed`) is attached here so the
        scenario never re-runs the Dijkstra/coverage build.  The index
        must describe exactly this scenario's flows, in order.
        """
        if coverage.flows != self._flows:
            raise InvalidScenarioError(
                "coverage index flows do not match this scenario's flows"
            )
        self._coverage = coverage

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def total_volume(self) -> float:
        """Sum of all flow volumes — the demand ceiling."""
        return sum(flow.volume for flow in self._flows)

    def sites_within(self, box: BoundingBox) -> List[NodeId]:
        """Candidate sites whose position lies inside ``box``.

        The paper's Random baseline draws from the ``D x D`` square around
        the shop; this is its supporting query.
        """
        return [
            site
            for site in self._candidates
            if box.contains(self._network.position(site))
        ]

    def with_utility(self, utility: UtilityFunction) -> "Scenario":
        """A scenario sharing this one's structures but a new utility.

        Detour distances do not depend on the utility, so the (expensive)
        calculator and coverage index are reused.
        """
        clone = Scenario.__new__(Scenario)
        clone._network = self._network
        clone._flows = self._flows
        clone._shop = self._shop
        clone._utility = utility
        clone._candidates = self._candidates
        clone._detour_mode = self._detour_mode
        clone._calculator = self._calculator
        clone._coverage = self._coverage
        return clone

    def with_flows(self, flows: Sequence[TrafficFlow]) -> "Scenario":
        """A scenario sharing this one's structures but new traffic flows.

        The detour calculator depends only on the network and shop, so it
        is reused; the coverage index depends on the flow *paths* and is
        dropped — callers patching volumes over unchanged paths (the
        streaming pipeline) re-attach a patched index via
        :meth:`attach_coverage` instead of paying a rebuild.
        """
        if not flows:
            raise InvalidScenarioError("scenario needs at least one traffic flow")
        for flow in flows:
            flow.validate_on(self._network)
        clone = Scenario.__new__(Scenario)
        clone._network = self._network
        clone._flows = tuple(flows)
        clone._shop = self._shop
        clone._utility = self._utility
        clone._candidates = self._candidates
        clone._detour_mode = self._detour_mode
        clone._calculator = self._calculator
        clone._coverage = None
        return clone

    def __repr__(self) -> str:
        return (
            f"Scenario(shop={self._shop!r}, flows={len(self._flows)}, "
            f"sites={len(self._candidates)}, utility={self._utility!r})"
        )
