"""Shortest-path DAG queries.

The Manhattan-grid formulation (paper Section IV) relaxes the fixed-path
assumption: a flow from ``i`` to ``j`` may travel along *any* shortest
path, and will pick one that passes a RAP when such a path exists.  The
set of intersections reachable that way is exactly the set of nodes on the
*shortest-path DAG* of ``(i, j)``:

    ``v`` lies on some shortest ``i -> j`` path  iff
    ``dist(i, v) + dist(v, j) == dist(i, j)``.

:class:`ShortestPathDag` packages that membership test (plus path counting
and bounded enumeration used by tests and by the Manhattan evaluator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

from ..errors import NoPathError
from .digraph import NodeId, RoadNetwork
from .shortest_paths import INFINITY, distances_from, distances_to_target

_REL_TOL = 1e-9


@dataclass(frozen=True)
class ShortestPathDag:
    """All shortest paths between one origin/destination pair.

    Build with :meth:`between`; reuse precomputed distance maps via the
    explicit constructor when evaluating many pairs against shared anchors
    (the Manhattan evaluator does this).
    """

    source: NodeId
    target: NodeId
    total_length: float
    from_source: Mapping[NodeId, float] = field(repr=False)
    to_target: Mapping[NodeId, float] = field(repr=False)

    @classmethod
    def between(
        cls, network: RoadNetwork, source: NodeId, target: NodeId
    ) -> "ShortestPathDag":
        """Build the DAG for one origin/destination pair.

        Both anchors' fields come from the network's shared cache.
        """
        from_source = distances_from(network, source)
        if target not in from_source:
            raise NoPathError(source, target)
        return cls(
            source=source,
            target=target,
            total_length=from_source[target],
            from_source=from_source.distances,
            to_target=distances_to_target(network, target).distances,
        )

    def _tol(self) -> float:
        return _REL_TOL * max(1.0, self.total_length)

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` lies on at least one shortest path."""
        d_in = self.from_source.get(node, INFINITY)
        if d_in == INFINITY:
            return False
        d_out = self.to_target.get(node, INFINITY)
        if d_out == INFINITY:
            return False
        return d_in + d_out <= self.total_length + self._tol()

    def distance_from_source(self, node: NodeId) -> float:
        """``dist(source, node)`` (inf when unreachable)."""
        return self.from_source.get(node, INFINITY)

    def distance_to_target(self, node: NodeId) -> float:
        """``dist(node, target)`` (inf when it cannot reach the target)."""
        return self.to_target.get(node, INFINITY)

    def nodes(self) -> List[NodeId]:
        """Every node on some shortest path, ordered by distance from source."""
        members = [node for node in self.from_source if self.contains(node)]
        members.sort(key=lambda n: (self.from_source[n],))
        return members

    def tight_successors(
        self, network: RoadNetwork, node: NodeId
    ) -> Iterator[NodeId]:
        """Successors of ``node`` along shortest-path (tight) edges."""
        tol = self._tol()
        d_in = self.from_source.get(node, INFINITY)
        if d_in == INFINITY:
            return
        for head, length in network.successors(node):
            d_out = self.to_target.get(head, INFINITY)
            if d_out == INFINITY:
                continue
            if d_in + length + d_out <= self.total_length + tol:
                yield head

    def count_paths(self, network: RoadNetwork) -> int:
        """Number of distinct shortest paths (exact; may be exponential-free
        thanks to DAG dynamic programming)."""
        counts: Dict[NodeId, int] = {}

        order = self.nodes()
        # Process in decreasing distance-from-source so successors are done
        # before their predecessors.
        for node in reversed(order):
            if node == self.target:
                counts[node] = 1
                continue
            counts[node] = sum(
                counts.get(head, 0)
                for head in self.tight_successors(network, node)
            )
        return counts.get(self.source, 0)

    def enumerate_paths(
        self, network: RoadNetwork, limit: Optional[int] = None
    ) -> List[List[NodeId]]:
        """Materialize shortest paths (at most ``limit`` if given).

        Intended for tests and small grids; the evaluator never enumerates.
        """
        paths: List[List[NodeId]] = []
        stack: List[List[NodeId]] = [[self.source]]
        while stack:
            prefix = stack.pop()
            tip = prefix[-1]
            if tip == self.target:
                paths.append(prefix)
                if limit is not None and len(paths) >= limit:
                    break
                continue
            for head in sorted(
                self.tight_successors(network, tip), key=repr, reverse=True
            ):
                stack.append(prefix + [head])
        return paths

    def path_through(
        self, network: RoadNetwork, waypoint: NodeId
    ) -> List[NodeId]:
        """A shortest ``source -> target`` path passing ``waypoint``.

        Raises :class:`NoPathError` when ``waypoint`` is not on the DAG.
        This realizes the paper's "the driver chooses the shortest path
        with a RAP on it" behaviour.
        """
        if not self.contains(waypoint):
            raise NoPathError(self.source, self.target)
        # Because `waypoint` lies on the DAG, dist(source, waypoint) +
        # dist(waypoint, target) == dist(source, target), so concatenating
        # any two shortest sub-paths yields a shortest full path.
        from .shortest_paths import shortest_path

        first = shortest_path(network, self.source, waypoint)
        second = shortest_path(network, waypoint, self.target)
        return first + second[1:]
