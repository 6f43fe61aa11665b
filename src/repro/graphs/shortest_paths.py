"""The shortest-path engine for :class:`~repro.graphs.digraph.RoadNetwork`.

Every Dijkstra in the library runs here (the goal-directed searches of
:mod:`repro.graphs.astar` aside), on the network's integer-indexed
:class:`~repro.graphs.digraph.CsrAdjacency`:

* :func:`distances_from` / :func:`distances_to_target` — a forward or
  reverse field anchored at one node, as an array-backed
  :class:`DistanceField`.  Fields are memoized per network, anchor and
  direction in a byte-bounded LRU that hangs off the network's adjacency
  snapshot: every scenario on the same network shares them, and any
  mutation of the network drops them;
* :func:`shortest_path` / :func:`shortest_path_length` — point-to-point
  queries that stop once the target and its tolerance-tight ties are
  settled;
* :func:`dijkstra` — one uncached source search returning dicts
  (distances, optionally parents);
* :func:`all_pairs_distances` — the paper's ``O(|V|^3)`` preprocessing,
  kept for small instances and for tests.

Path tie-breaking is pinned: a path is recovered by walking back from
the target and taking, at each node ``v``, the *first predecessor in
insertion order* whose edge is tight, ``|dist(u) + len(u, v) - dist(v)|
<= 1e-9 * max(1, dist(v))`` (:func:`_tight_predecessor`).

Edge lengths are validated positive at insertion time, so Dijkstra's
invariants hold by construction.  Work is counted through
:mod:`repro.obs`: ``graphs.sp.settles`` (nodes settled, summed per
search) and ``graphs.sp.field_cache.hits`` / ``.misses``.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import NodeNotFoundError, NoPathError
from .digraph import AdjacencyRow, CsrAdjacency, NodeId, RoadNetwork

INFINITY = float("inf")
_REL_TOL = 1e-9
#: Byte budget of one network's distance-field cache (float64 values).
#: It holds every destination field of a 60x60 grid with 4,000 random
#: flows (2,427 fields, 70 MB); at 32 MiB that build recomputed 21% of
#: its fields after eviction.
_FIELD_CACHE_BYTES = 128 * 1024 * 1024


class DistanceField:
    """Distances anchored at one node, in one direction.

    ``origin`` is the anchor node.  When ``toward_origin`` is False the
    field holds ``dist(origin, v)``; when True it holds ``dist(v,
    origin)``.  Unreachable nodes read ``inf`` through :meth:`get`, which
    composes cleanly with the utility functions (``f(inf) == 0``), and
    are absent from :attr:`distances` and :meth:`reachable`.

    The values are one read-only float64 array in the network's
    insertion order (:attr:`values`, positions from :attr:`index`), so
    callers can gather a whole path's distances in one numpy expression.
    """

    __slots__ = ("origin", "toward_origin", "_values", "_index", "_nodes", "_mapping")

    def __init__(
        self,
        origin: NodeId,
        toward_origin: bool,
        values: np.ndarray,
        csr: CsrAdjacency,
    ) -> None:
        values.flags.writeable = False
        self.origin = origin
        self.toward_origin = toward_origin
        self._values = values
        self._index = csr.index
        self._nodes = csr.nodes
        self._mapping: Optional[Dict[NodeId, float]] = None

    @property
    def values(self) -> np.ndarray:
        """Read-only float64 distances, indexed like :attr:`index`."""
        return self._values

    @property
    def index(self) -> Mapping[NodeId, int]:
        """Node -> position in :attr:`values` (network insertion order)."""
        return self._index

    def get(self, node: NodeId) -> float:
        """Distance for ``node`` (inf when unreachable)."""
        position = self._index.get(node)
        if position is None:
            return INFINITY
        distance: float = self._values.item(position)
        return distance

    def __getitem__(self, node: NodeId) -> float:
        return self.get(node)

    def __contains__(self, node: NodeId) -> bool:
        return self.get(node) != INFINITY

    def reachable(self) -> List[NodeId]:
        """Nodes with a finite distance (network insertion order)."""
        return [
            self._nodes[i] for i in np.flatnonzero(np.isfinite(self._values)).tolist()
        ]

    @property
    def distances(self) -> Mapping[NodeId, float]:
        """``{node: distance}`` over reachable nodes (built once on use)."""
        if self._mapping is None:
            self._mapping = {
                node: distance
                for node, distance in zip(self._nodes, self._values.tolist())
                if distance != INFINITY
            }
        return self._mapping

    def __repr__(self) -> str:
        return (
            f"DistanceField(origin={self.origin!r}, "
            f"toward_origin={self.toward_origin})"
        )


class _FieldCache:
    """Byte-bounded LRU of the distance fields of one adjacency snapshot."""

    __slots__ = ("_fields", "_nbytes", "_lock")

    def __init__(self) -> None:
        self._fields: "OrderedDict[Tuple[int, bool], DistanceField]" = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()

    def get(self, key: Tuple[int, bool]) -> Optional[DistanceField]:
        with self._lock:
            field = self._fields.get(key)
            if field is not None:
                self._fields.move_to_end(key)
            return field

    def put(self, key: Tuple[int, bool], field: DistanceField) -> None:
        with self._lock:
            if key in self._fields:
                return
            self._fields[key] = field
            self._nbytes += field.values.nbytes
            while self._nbytes > _FIELD_CACHE_BYTES and len(self._fields) > 1:
                _, evicted = self._fields.popitem(last=False)
                self._nbytes -= evicted.values.nbytes


def _search(
    rows: Sequence[AdjacencyRow],
    source: int,
    target: int = -1,
    cutoff: float = INFINITY,
) -> Tuple[List[float], float]:
    """Dijkstra over ``rows`` from ``source``.

    Returns ``(best, limit)``: every node with ``best[v] <= limit`` is
    settled with its exact distance; any other entry is tentative or
    ``inf``.  Without a ``target`` the search settles everything within
    ``cutoff``.  With one, it keeps settling until the heap minimum
    exceeds ``dist(target) + 1e-9 * max(1, dist(target))``, so every
    tolerance-tight predecessor a path recovery can ask about is settled.

    A node is pushed only when its tentative distance strictly improves,
    so each distance is the minimum over the same relaxations the
    textbook loop performs: the values are bit-identical to it.
    """
    best = [INFINITY] * len(rows)
    best[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    limit = cutoff
    settles = 0
    while heap:
        dist, node = pop(heap)
        if dist > best[node]:
            continue  # superseded entry
        if dist > limit:
            break
        settles += 1
        if node == target:
            limit = dist + _REL_TOL * max(1.0, dist)
        for head, length in rows[node]:
            candidate = dist + length
            if candidate < best[head]:
                best[head] = candidate
                push(heap, (candidate, head))
    obs.count("graphs.sp.settles", settles)
    return best, limit


def _tight_predecessor(
    pred: AdjacencyRow, best: Sequence[float], limit: float, node: int
) -> Optional[int]:
    """The first predecessor of ``node``, in insertion order, on a tight edge.

    ``u`` qualifies when it is settled (``best[u] <= limit``) and
    ``|best[u] + len(u, node) - best[node]| <= 1e-9 * max(1, best[node])``.
    Returns None when no predecessor qualifies.
    """
    dist = best[node]
    tol = _REL_TOL * max(1.0, dist)
    for tail, length in pred:
        tail_dist = best[tail]
        if tail_dist <= limit and abs(tail_dist + length - dist) <= tol:
            return tail
    return None


def _walk_back(
    csr: CsrAdjacency,
    best: Sequence[float],
    limit: float,
    source: int,
    target: int,
    ends: Tuple[NodeId, NodeId],
) -> Optional[List[NodeId]]:
    """Recover the ``source -> target`` path from a settled search.

    Returns None if the tight chain climbs above ``dist(target)``, which
    only edges shorter than the tolerance can cause: predecessors there
    may be unsettled, so the caller re-runs the search to completion.
    """
    ceiling = best[target] if limit != INFINITY else INFINITY
    path = [target]
    node = target
    while node != source:
        if best[node] > ceiling:
            return None
        parent = _tight_predecessor(csr.pred[node], best, limit, node)
        if parent is None:
            # The tolerance check found no tight predecessor for this
            # settled node; surface a taxonomy error instead of a raw
            # KeyError mid-reconstruction.
            raise NoPathError(
                ends[0],
                ends[1],
                detail=(
                    f"no tight predecessor recovered for settled node "
                    f"{csr.nodes[node]!r} during path reconstruction"
                ),
            )
        path.append(parent)
        node = parent
    return [csr.nodes[i] for i in reversed(path)]


def _anchor(csr: CsrAdjacency, node: NodeId) -> int:
    position = csr.index.get(node)
    if position is None:
        raise NodeNotFoundError(node)
    return position


def dijkstra(
    network: RoadNetwork,
    source: NodeId,
    *,
    with_parents: bool = False,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
    """Single-source Dijkstra (uncached).

    Returns ``(distances, parents)`` over reachable nodes in network
    insertion order; ``parents`` is empty unless ``with_parents`` is set,
    and then maps each node to its :func:`_tight_predecessor`.
    ``cutoff`` prunes the search once settled distances exceed it (the
    returned map still contains every node whose distance is ``<=
    cutoff``).
    """
    csr = network.csr()
    start = _anchor(csr, source)
    best, limit = _search(
        csr.succ, start, cutoff=INFINITY if cutoff is None else cutoff
    )
    nodes = csr.nodes
    settled = [
        i for i, dist in enumerate(best) if dist <= limit and dist != INFINITY
    ]
    distances = {nodes[i]: best[i] for i in settled}
    parents: Dict[NodeId, NodeId] = {}
    if with_parents:
        for i in settled:
            if i == start:
                continue
            parent = _tight_predecessor(csr.pred[i], best, limit, i)
            if parent is not None:
                parents[nodes[i]] = nodes[parent]
    return distances, parents


def _field(network: RoadNetwork, anchor: NodeId, toward: bool) -> DistanceField:
    csr = network.csr()
    position = _anchor(csr, anchor)
    cache = csr.field_cache
    if cache is None:
        cache = csr.field_cache = _FieldCache()
    assert isinstance(cache, _FieldCache)
    key = (position, toward)
    field = cache.get(key)
    if field is not None:
        obs.count("graphs.sp.field_cache.hits")
        return field
    obs.count("graphs.sp.field_cache.misses")
    best, _ = _search(csr.pred if toward else csr.succ, position)
    field = DistanceField(anchor, toward, np.array(best, dtype=np.float64), csr)
    cache.put(key, field)
    return field


def distances_from(network: RoadNetwork, source: NodeId) -> DistanceField:
    """``dist(source, v)`` for every ``v`` (memoized on the network)."""
    return _field(network, source, False)


def distances_to_target(network: RoadNetwork, target: NodeId) -> DistanceField:
    """``dist(v, target)`` for every ``v`` (memoized on the network).

    A forward search over the predecessor rows, without materialising a
    reversed copy of the network.
    """
    return _field(network, target, True)


def _point_search(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> Tuple[CsrAdjacency, List[float], float, int, int]:
    if target not in network:
        raise NodeNotFoundError(target)
    csr = network.csr()
    start = _anchor(csr, source)
    goal = csr.index[target]
    best, limit = _search(csr.succ, start, target=goal)
    if best[goal] == INFINITY:
        raise NoPathError(source, target)
    return csr, best, limit, start, goal


def shortest_path(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> List[NodeId]:
    """One shortest path from ``source`` to ``target`` as a node list.

    Deterministic for a fixed network: ties go to the first tight
    predecessor in insertion order (see the module docstring).  Raises
    :class:`NoPathError` when unreachable.
    """
    csr, best, limit, start, goal = _point_search(network, source, target)
    path = _walk_back(csr, best, limit, start, goal, (source, target))
    if path is None:
        best, limit = _search(csr.succ, start)
        path = _walk_back(csr, best, limit, start, goal, (source, target))
        assert path is not None  # a complete search never hits the ceiling
    return path


def shortest_path_length(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> float:
    """Length of the shortest path from ``source`` to ``target``."""
    _, best, _, _, goal = _point_search(network, source, target)
    return best[goal]


def all_pairs_distances(
    network: RoadNetwork,
) -> Dict[NodeId, Dict[NodeId, float]]:
    """All-pairs shortest distances (one Dijkstra per node).

    This mirrors the paper's ``O(|V|^3)`` preprocessing step.  The
    placement engine avoids it (see :mod:`repro.core.detour`), but small
    instances, tests, and the exhaustive optimal solver use it freely.
    """
    return {node: dijkstra(network, node)[0] for node in network.nodes()}


def is_shortest_path(
    network: RoadNetwork, path: List[NodeId], tolerance: float = 1e-9
) -> bool:
    """Whether ``path`` is a shortest path between its endpoints."""
    if len(path) < 2:
        return bool(path) and path[0] in network
    if not network.is_path(path):
        return False
    actual = network.path_length(path)
    best = shortest_path_length(network, path[0], path[-1])
    return actual <= best + tolerance * max(1.0, best)
