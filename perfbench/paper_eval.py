"""``paper-eval``: the paper's evaluation loop at paper scale.

Inputs (generated, untimed): the paper-scale Dublin and Seattle bus
traces written as CSV and corrupted with the ``moderate`` fault preset,
plus each city's road network and clean flows as JSON.  The trace
generator keeps its default seed (2015) and the workload seed picks the
fault pattern, which changes which rows and journeys survive ingest and
therefore the flows the panels score.  Shops are drawn, as in
``run_figure``, by ``panel_shops`` with the figures' seed (42) from the
clean trace's intersection classes: classifying the ingested flows
instead would move borderline intersections between classes with every
fault pattern, and with them the shops, so seeds would differ in work by
up to half.

One pass, timed: lenient ingest of both traces (read CSV -> journeys ->
map-match -> flows), then every panel of Figs. 10-13 over its shop
draws: ``Scenario`` -> coverage -> pack -> each algorithm's ``select``
-> ``evaluate_placement_many``; the Manhattan panels (Fig. 13) also run
``ManhattanScenario`` / two-stage selection / ``ManhattanEvaluator``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from common import Result, SpeedLog, Tracer

CITIES = ("dublin", "seattle")
TRACE_SEED = 2015
PANEL_SEED = 42
GENERAL_FIGURES = ("fig10", "fig11")
MANHATTAN_FIGURES = ("fig12", "fig13")


@dataclass(frozen=True)
class Size:
    scale: str
    reps_general: int
    reps_manhattan: int


FULL = Size(scale="paper", reps_general=2, reps_manhattan=1)
SMOKE = Size(scale="small", reps_general=1, reps_manhattan=1)


def _schema(city: str):
    from repro.traces import DUBLIN_SCHEMA, SEATTLE_SCHEMA

    return DUBLIN_SCHEMA if city == "dublin" else SEATTLE_SCHEMA


def generate(seed: int, out: Path, size: Size) -> None:
    """Write each city's network, clean flows and corrupted trace CSV."""
    from repro.experiments import TraceProvider
    from repro.graphs import save_network
    from repro.reliability import PRESETS, FaultInjector, corrupt_trace_csv
    from repro.serve.engine import encode_site
    from repro.traces import write_trace_csv

    provider = TraceProvider(scale=size.scale, seed=TRACE_SEED)
    for city in CITIES:
        bundle = provider.get(city)
        save_network(bundle.network, out / f"{city}.network.json")
        (out / f"{city}.flows.json").write_text(
            json.dumps(
                [
                    [[encode_site(node) for node in flow.path], flow.volume,
                     flow.attractiveness, flow.label]
                    for flow in bundle.flows
                ]
            )
        )
        clean = out / f"{city}.clean.csv"
        write_trace_csv(bundle.trace.records, clean, _schema(city))
        corrupt_trace_csv(
            clean,
            out / f"{city}.csv",
            _schema(city),
            FaultInjector(PRESETS["moderate"], seed=seed),
        )
        clean.unlink()


def figures(size: Size):
    """The figure specs one pass runs, in pass order, with their group."""
    from repro.experiments import FIGURES

    specs = []
    for group, ids, reps in (
        ("general", GENERAL_FIGURES, size.reps_general),
        ("manhattan", MANHATTAN_FIGURES, size.reps_manhattan),
    ):
        for figure_id in ids:
            specs.append((group, FIGURES[figure_id](repetitions=reps, seed=PANEL_SEED)))
    return specs


def _select_sweep(name, scenario, ks, rep_seed, tracer: Tracer):
    """Sites per k for one general-scenario algorithm (the runner's sweep)."""
    from repro.algorithms import algorithm_by_name
    from repro.experiments import PREFIX_CONSISTENT

    algorithm = algorithm_by_name(name, **({"seed": rep_seed} if name == "random" else {}))
    max_k = min(max(ks), len(scenario.candidate_sites))
    with tracer.span(f"algorithms.select.{name}"):
        if name in PREFIX_CONSISTENT:
            sites = algorithm.select(scenario, max_k)
            return {k: sites[: min(k, len(sites))] for k in ks}
        return {k: algorithm.select(scenario, min(k, max_k)) for k in ks}


def _general_scenario(network, flows, shop, utility, tracer: Tracer, stats):
    from repro.core import Scenario

    with tracer.span("core.scenario"):
        scenario = Scenario(network, flows, shop, utility)
    with tracer.span("core.coverage"):
        coverage = scenario.coverage
    with tracer.span("core.pack"):
        packed = coverage.packed()
    stats["scenarios"] += 1
    stats["incidences"] += packed.incidence_count
    return scenario


def repetition(panel, network, flows, shop, rep, tracer: Tracer, stats):
    """One shop draw of a panel: ``values[algorithm][k]``.

    Mirrors ``repro.experiments.panel_repetition`` call for call, with a
    span around each layer call; the correctness check compares the two.
    """
    from repro.core import evaluate_placement_many, utility_by_name
    from repro.experiments import MANHATTAN
    from repro.manhattan import (
        ManhattanEvaluator,
        ManhattanScenario,
        ModifiedTwoStagePlacement,
        TwoStagePlacement,
    )

    utility = utility_by_name(panel.utility, panel.threshold)
    rep_seed = panel.seed * 1000 + rep
    values: Dict[str, Dict[int, float]] = {}
    if panel.semantics != MANHATTAN:
        scenario = _general_scenario(network, flows, shop, utility, tracer, stats)
        for name in panel.algorithms:
            sweep = _select_sweep(name, scenario, panel.ks, rep_seed, tracer)
            with tracer.span("core.evaluate_many"):
                totals = evaluate_placement_many(scenario, [sweep[k] for k in panel.ks])
            stats["placements"] += len(panel.ks)
            values[name] = dict(zip(panel.ks, totals))
        return values
    local = {"two-stage": TwoStagePlacement, "modified-two-stage": ModifiedTwoStagePlacement}
    with tracer.span("manhattan.scenario"):
        manhattan = ManhattanScenario(network, flows, shop, utility)
        evaluator = ManhattanEvaluator(manhattan)
    general = _general_scenario(network, flows, shop, utility, tracer, stats)
    site_cap = len(manhattan.candidate_sites)
    for name in panel.algorithms:
        if name in local:
            algorithm = local[name]()
            values[name] = {}
            for k in panel.ks:
                with tracer.span(f"manhattan.select.{name}"):
                    sites = algorithm.select(manhattan, min(k, site_cap))
                with tracer.span("manhattan.evaluate"):
                    values[name][k] = evaluator.evaluate(sites).attracted
        else:
            sweep = _select_sweep(name, general, panel.ks, rep_seed, tracer)
            values[name] = {}
            for k in panel.ks:
                with tracer.span("manhattan.evaluate"):
                    values[name][k] = evaluator.evaluate(sweep[k]).attracted
        stats["placements"] += len(panel.ks)
    return values


def load_inputs(inputs: Path):
    """Each city's road network and its clean-trace bundle (for shop draws)."""
    from repro.core import TrafficFlow
    from repro.experiments import TraceBundle
    from repro.graphs import load_network
    from repro.serve.engine import decode_site

    loaded = {}
    for city in CITIES:
        network = load_network(inputs / f"{city}.network.json")
        flows = tuple(
            TrafficFlow(
                path=tuple(decode_site(node) for node in path),
                volume=volume, attractiveness=attractiveness, label=label,
            )
            for path, volume, attractiveness, label in json.loads(
                (inputs / f"{city}.flows.json").read_text()
            )
        )
        loaded[city] = TraceBundle(city, network, flows, None)
    return loaded


def run_pass(
    inputs: Path, clean, size: Size, tracer: Tracer, speed: SpeedLog
) -> Dict[str, object]:
    """One timed pass; returns per-unit seconds, values and ingest health.

    Every unit's time is scaled to the reference speed by ``speed``'s
    readings, once the pass is done.
    """
    from repro.experiments import panel_shops
    from repro.reliability import ErrorBudget
    from repro.traces import (
        flows_from_report,
        group_into_journeys,
        match_journeys_lenient,
        read_trace_csv_lenient,
    )

    intervals: Dict[str, tuple] = {}
    groups: Dict[str, str] = {}

    def timed(unit: str, started: float) -> None:
        intervals[unit] = (started, time.perf_counter())

    values: Dict[str, Dict[str, object]] = {}
    health: Dict[str, int] = {}
    stats = {"scenarios": 0, "incidences": 0, "placements": 0}
    flows = {}
    with tracer.span("pass"):
        with tracer.span("ingest"):
            for city in CITIES:
                t0 = time.perf_counter()
                budget = ErrorBudget()
                with tracer.span("traces.read_csv"):
                    records, city_health = read_trace_csv_lenient(
                        inputs / f"{city}.csv", _schema(city), budget=budget
                    )
                with tracer.span("traces.journeys"):
                    journeys = group_into_journeys(records)
                with tracer.span("traces.match"):
                    report, city_health = match_journeys_lenient(
                        clean[city].network, journeys, budget=budget, health=city_health
                    )
                with tracer.span("traces.flows"):
                    flows[city] = tuple(flows_from_report(report))
                timed(f"ingest/{city}", t0)
                groups[f"ingest/{city}"] = "ingest"
                for key in ("rows_read", "rows_accepted", "journeys_total", "journeys_matched"):
                    health[key] = health.get(key, 0) + int(getattr(city_health, key))
        for group, figure in figures(size):
            with tracer.span(f"eval.{group}"):
                for panel in figure.panels:
                    network = clean[panel.city].network
                    with tracer.span("experiments.shops"):
                        shops = panel_shops(panel, clean[panel.city])
                    for rep, shop in enumerate(shops):
                        unit = f"{panel.panel_id}/{rep}"
                        t0 = time.perf_counter()
                        with tracer.span("repetition"):
                            result = repetition(
                                panel, network, flows[panel.city], shop, rep, tracer, stats
                            )
                        timed(unit, t0)
                        groups[unit] = group
                        values[unit] = {
                            name: {str(k): v for k, v in by_k.items()}
                            for name, by_k in result.items()
                        }
    return {
        "units": {unit: speed.scaled(*interval) for unit, interval in intervals.items()},
        "raw_s": sum(
            end - start - speed.busy(start, end) for start, end in intervals.values()
        ),
        "groups": groups,
        "ops": [
            speed.scaled(*interval)
            for unit, interval in intervals.items()
            if groups[unit] != "ingest"
        ],
        "values": values,
        "health": health,
        "stats": stats,
        "flow_counts": {city: len(flows[city]) for city in CITIES},
    }


def utility_total(round_doc) -> float:
    return math.fsum(
        v
        for by_alg in round_doc["values"].values()
        for by_k in by_alg.values()
        for v in by_k.values()
    )


def expected_values(inputs: Path, size: Size) -> Dict[str, object]:
    """Library reference: rep 0 of every panel via ``panel_repetition``.

    Built from an independent ``ingest_trace_csv`` run on the same inputs,
    so a stage-wise ingest that drifted from the library pipeline shows
    up here too.
    """
    from repro.experiments import TraceBundle, panel_repetition, panel_shops
    from repro.reliability import ingest_trace_csv

    clean = load_inputs(inputs)
    bundles = {}
    for city in CITIES:
        network = clean[city].network
        ingested = ingest_trace_csv(inputs / f"{city}.csv", _schema(city), network, mode="lenient")
        bundles[city] = TraceBundle(city, network, tuple(ingested.flows), None)
    expected: Dict[str, object] = {}
    for _, figure in figures(size):
        for panel in figure.panels:
            bundle = bundles[panel.city]
            shop = panel_shops(panel, clean[panel.city])[0]
            result = panel_repetition(panel, bundle, shop, 0)
            expected[f"{panel.panel_id}/0"] = {
                name: {str(k): v for k, v in by_k.items()} for name, by_k in result.items()
            }
    return expected


def check(rounds: List[Dict[str, object]], expected: Dict[str, object], result: Result) -> None:
    """Correctness: every pass agrees, and rep 0 of each panel equals the library."""
    first = rounds[0]["values"]
    for index, other in enumerate(rounds[1:], start=1):
        result.check(other["values"] == first, f"pass {index} values differ from pass 0")
    for unit, want in sorted(expected.items()):
        result.check(first.get(unit) == want, f"{unit} differs from panel_repetition")
