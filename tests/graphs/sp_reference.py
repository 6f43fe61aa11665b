"""Reference shortest paths: the textbook dict/heapq Dijkstra.

The production engine (:mod:`repro.graphs.shortest_paths`) runs on the
network's integer-indexed adjacency with point-to-point early exit and
path-only recovery.  This module keeps the plain formulation it replaced
as the differential oracle: a whole-graph search over the dict
adjacency, parents derived for *every* settled node, and the same
pinned tie-break — ``parent(v)`` is the first predecessor of ``v`` in
insertion order whose edge is tight, ``|dist(u) + len(u, v) - dist(v)|
<= 1e-9 * max(1, dist(v))``.  Paths and distances from the engine must
equal these bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.errors import NodeNotFoundError, NoPathError
from repro.graphs import NodeId, RoadNetwork


def reference_dijkstra(
    network: RoadNetwork,
    source: NodeId,
    *,
    with_parents: bool = False,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
    """Single-source Dijkstra over the dict adjacency."""
    if source not in network:
        raise NodeNotFoundError(source)
    distances: Dict[NodeId, float] = {}
    heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, source)]
    counter = 0
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in distances:
            continue
        if cutoff is not None and dist > cutoff:
            break
        distances[node] = dist
        for head, length in network.successors(node):
            if head in distances:
                continue
            candidate = dist + length
            if cutoff is not None and candidate > cutoff:
                continue
            counter += 1
            heapq.heappush(heap, (candidate, counter, head))
    parents = reference_parents(network, distances, source) if with_parents else {}
    return distances, parents


def reference_parents(
    network: RoadNetwork, distances: Dict[NodeId, float], source: NodeId
) -> Dict[NodeId, NodeId]:
    """First tight predecessor, in insertion order, of every settled node."""
    parents: Dict[NodeId, NodeId] = {}
    for node, dist in distances.items():
        if node == source:
            continue
        for tail, length in network.predecessors(node):
            tail_dist = distances.get(tail)
            if tail_dist is None:
                continue
            if abs(tail_dist + length - dist) <= 1e-9 * max(1.0, dist):
                parents[node] = tail
                break
    return parents


def reference_distances_to(network: RoadNetwork, target: NodeId) -> Dict[NodeId, float]:
    """``dist(v, target)`` by a forward search over the predecessors."""
    if target not in network:
        raise NodeNotFoundError(target)
    distances: Dict[NodeId, float] = {}
    heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, target)]
    counter = 0
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = dist
        for tail, length in network.predecessors(node):
            if tail not in distances:
                counter += 1
                heapq.heappush(heap, (dist + length, counter, tail))
    return distances


def reference_shortest_path(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> List[NodeId]:
    """Walk the full parent map back from ``target``."""
    if target not in network:
        raise NodeNotFoundError(target)
    distances, parents = reference_dijkstra(network, source, with_parents=True)
    if target not in distances:
        raise NoPathError(source, target)
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path
