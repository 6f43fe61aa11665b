"""``grid-build``: construction-bound planning of one shop on a grid.

Inputs (generated, untimed): seeded origin-destination pairs and
volumes on a ``manhattan_grid(30, 30)`` (the ``bench_scaling.py``
recipe: 100 ft blocks, pairs at least 40 blocks' worth apart, volumes
50-500, attractiveness 0.001, linear utility with D = 60 ft per grid
side).  The shop sits at the grid's middle node.

One pass, timed: build the network, ``flow_between`` for every pair,
``Scenario`` -> coverage -> ``packed()`` -> ``ScenarioArtifact.compile``
-> lazy-greedy and composite-greedy at k = 10 -> one batched scoring of
both placements.  There is one shop, so nothing is reused across shops.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from common import Result, SpeedLog, Tracer

K = 10
#: The kernel sums flow contributions pairwise (numpy), the exact scorer
#: sequentially; over ~1,000 flows the two may differ in the last bits.
SUM_ORDER_TOLERANCE = 1e-12
ALGORITHMS = ("lazy-greedy", "composite-greedy")


@dataclass(frozen=True)
class Size:
    side: int
    flows: int


FULL = Size(side=30, flows=1000)
SMOKE = Size(side=8, flows=40)


def generate(seed: int, out: Path, size: Size) -> None:
    """Write the seeded OD pairs (node ids and volumes) into ``out``."""
    rng = random.Random(seed)
    nodes = [(r, c) for r in range(size.side) for c in range(size.side)]
    block = 100.0
    pairs = []
    while len(pairs) < size.flows:
        origin, destination = rng.sample(nodes, 2)
        distance = math.hypot(origin[0] - destination[0], origin[1] - destination[1])
        if distance * block < size.side * 40.0:
            continue
        pairs.append([list(origin), list(destination), rng.randint(50, 500)])
    (out / "od.json").write_text(json.dumps({"side": size.side, "pairs": pairs}))


def load_inputs(inputs: Path):
    return json.loads((inputs / "od.json").read_text())


def run_pass(
    inputs: Path, demand, size: Size, tracer: Tracer, speed: SpeedLog
) -> Dict[str, object]:
    """One timed pass; returns stage seconds, placements and scores.

    Every time is scaled to the reference speed by ``speed``'s readings,
    once the pass is done.
    """
    from repro.algorithms import algorithm_by_name
    from repro.core import (
        LinearUtility,
        Scenario,
        evaluate_placement,
        evaluate_placement_many,
        flow_between,
    )
    from repro.graphs import manhattan_grid
    from repro.serve import ScenarioArtifact

    side = demand["side"]
    clock = time.perf_counter
    with tracer.span("pass"):
        t0 = clock()
        with tracer.span("graphs.network"):
            network = manhattan_grid(side, side, 100.0)
        flows = []
        ops = []
        with tracer.span("core.flow_between"):
            for origin, destination, volume in demand["pairs"]:
                started = clock()
                flows.append(
                    flow_between(
                        network, tuple(origin), tuple(destination),
                        volume=volume, attractiveness=0.001,
                    )
                )
                ops.append((started, clock()))
        t_flows = clock()
        with tracer.span("core.scenario"):
            scenario = Scenario(
                network, flows, (side // 2, side // 2), LinearUtility(side * 60.0)
            )
        with tracer.span("core.coverage"):
            coverage = scenario.coverage
        with tracer.span("core.pack"):
            packed = coverage.packed()
        with tracer.span("serve.compile"):
            artifact = ScenarioArtifact.compile(scenario)
        placements = []
        for name in ALGORITHMS:
            algorithm = algorithm_by_name(name)
            with tracer.span(f"algorithms.select.{name}"):
                placements.append(algorithm.select(scenario, K))
        with tracer.span("core.evaluate_many"):
            totals = evaluate_placement_many(scenario, placements)
        t_end = clock()
    exact = [evaluate_placement(scenario, list(sites)).attracted for sites in placements]
    return {
        "units": {
            "ingest": speed.scaled(t0, t_flows),
            "plan": speed.scaled(t_flows, t_end),
        },
        "raw_s": t_end - t0 - speed.busy(t0, t_end),
        "groups": {"ingest": "ingest", "plan": "plan"},
        "ops": [speed.scaled(*interval) for interval in ops],
        "digest": artifact.digest,
        "placements": [[list(site) for site in sites] for sites in placements],
        "totals": totals,
        "exact_totals": exact,
        "stats": {
            "scenarios": 1,
            "incidences": packed.incidence_count,
            "placements": len(placements),
            "path_nodes": sum(len(flow.path) for flow in flows),
            "artifact_bytes": int(artifact.stats["nbytes"]),
        },
    }


def utility_total(round_doc) -> float:
    return math.fsum(round_doc["totals"])


def check(rounds: List[Dict[str, object]], result: Result) -> None:
    """Correctness: same digest and placements every pass; exact re-score."""
    first = rounds[0]
    for index, other in enumerate(rounds):
        if index:
            result.check(other["digest"] == first["digest"], f"pass {index} artifact digest differs")
            result.check(
                other["placements"] == first["placements"], f"pass {index} placements differ"
            )
        result.check(
            all(
                math.isclose(got, want, rel_tol=SUM_ORDER_TOLERANCE)
                for got, want in zip(other["totals"], other["exact_totals"])
            ),
            f"pass {index} utility {other['totals']} != exact re-score {other['exact_totals']}",
        )
