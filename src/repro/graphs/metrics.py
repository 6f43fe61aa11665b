"""Road-network shape metrics.

Used to *quantify* the data-substitution argument (DESIGN.md): the
synthetic Dublin must actually look irregular and the synthetic Seattle
must actually look grid-like, by measurable criteria rather than by
construction intent:

* **circuity** — mean (network distance / straight-line distance) over
  sampled pairs; 1.0 on a dense mesh, ~1.27 for a perfect grid's L1
  vs L2 average, higher where streets wander or are missing;
* **orientation entropy** — street bearings bucketed into 8 bins;
  a perfect grid concentrates on 2 axes (low entropy), an organic plan
  spreads out (high entropy) — the standard measure in street-network
  morphology;
* **four-way share** — fraction of intersections with degree 4 (counting
  unique neighbours), the classic gridness indicator;
* plus degree statistics and one-way share.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Set

from .digraph import NodeId, RoadNetwork
from .shortest_paths import distances_from

ORIENTATION_BINS = 8


@dataclass(frozen=True)
class NetworkMetrics:
    """Shape statistics for one road network."""

    node_count: int
    edge_count: int
    mean_degree: float
    four_way_share: float
    one_way_share: float
    circuity: float
    orientation_entropy: float
    """Entropy (bits) of street bearings over 8 bins, axis-folded;
    0 bits = one direction, max 3 bits = uniform."""


def _unique_neighbours(network: RoadNetwork, node: NodeId) -> Set[NodeId]:
    neighbours = {head for head, _ in network.successors(node)}
    neighbours.update(tail for tail, _ in network.predecessors(node))
    return neighbours


def orientation_entropy(network: RoadNetwork) -> float:
    """Entropy of (axis-folded) street bearings, in bits."""
    counts = [0] * ORIENTATION_BINS
    for tail, head, _ in network.edges():
        a = network.position(tail)
        b = network.position(head)
        angle = math.atan2(b.y - a.y, b.x - a.x) % math.pi  # fold 180°
        index = min(
            ORIENTATION_BINS - 1, int(angle / math.pi * ORIENTATION_BINS)
        )
        counts[index] += 1
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count:
            p = count / total
            entropy -= p * math.log2(p)
    return entropy


def circuity(
    network: RoadNetwork,
    samples: int = 100,
    rng: Optional[random.Random] = None,
) -> float:
    """Mean network/straight-line distance ratio over sampled pairs.

    Unreachable pairs are skipped; returns ``nan`` if every sampled pair
    is unreachable or coincident.
    """
    rng = rng or random.Random(0)
    nodes = list(network.nodes())
    if len(nodes) < 2:
        return float("nan")
    ratios = []
    attempts = 0
    while len(ratios) < samples and attempts < samples * 10:
        attempts += 1
        a, b = rng.sample(nodes, 2)
        straight = network.euclidean_distance(a, b)
        if straight <= 0:
            continue
        field = distances_from(network, a)
        if b not in field:
            continue
        ratios.append(field[b] / straight)
    if not ratios:
        return float("nan")
    return sum(ratios) / len(ratios)


def network_metrics(
    network: RoadNetwork,
    circuity_samples: int = 60,
    rng: Optional[random.Random] = None,
) -> NetworkMetrics:
    """Compute every :class:`NetworkMetrics` field."""
    nodes = list(network.nodes())
    degrees = [len(_unique_neighbours(network, node)) for node in nodes]
    one_way = sum(
        1
        for tail, head, _ in network.edges()
        if not network.has_road(head, tail)
    )
    return NetworkMetrics(
        node_count=network.node_count,
        edge_count=network.edge_count,
        mean_degree=sum(degrees) / len(degrees) if degrees else 0.0,
        four_way_share=(
            sum(1 for d in degrees if d == 4) / len(degrees) if degrees else 0.0
        ),
        one_way_share=one_way / network.edge_count if network.edge_count else 0.0,
        circuity=circuity(network, samples=circuity_samples, rng=rng),
        orientation_entropy=orientation_entropy(network),
    )
