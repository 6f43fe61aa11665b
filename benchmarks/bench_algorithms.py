"""Micro-benchmarks: placement-algorithm cost on one trace scenario.

Times each registered algorithm selecting k = 10 RAPs on the Dublin
scenario (shop at the busiest intersection), plus the exhaustive solver
on a deliberately tiny instance.  These are throughput references for
the complexity claims in the paper (Algorithms 1/2 are O(|V|^3 + k|V||T|);
our engine replaces the |V|^3 term with per-destination Dijkstra).
"""

import pytest

from benchmarks.conftest import BENCH_SCALE
from repro.algorithms import algorithm_by_name
from repro.core import LinearUtility, Scenario, ThresholdUtility, flow_between
from repro.experiments import (
    LocationClass,
    classify_intersections,
    locations_of_class,
)
from repro.graphs import manhattan_grid

K = 10

ALGORITHMS = (
    "greedy-coverage",
    "composite-greedy",
    "marginal-greedy",
    "lazy-greedy",
    "max-cardinality",
    "max-vehicles",
    "max-customers",
    "random",
)


@pytest.fixture(scope="module")
def dublin_scenario(provider):
    bundle = provider.get("dublin")
    classes = classify_intersections(bundle.network, bundle.flows)
    shop = locations_of_class(classes, LocationClass.CITY)[0]
    return Scenario(
        bundle.network, bundle.flows, shop, LinearUtility(20_000.0)
    )


@pytest.mark.parametrize("name", ALGORITHMS)
def test_algorithm_select_k10(benchmark, dublin_scenario, name):
    kwargs = {"seed": 0} if name == "random" else {}
    algorithm = algorithm_by_name(name, **kwargs)
    k = min(K, len(dublin_scenario.candidate_sites))

    # Warm the shared detour/coverage caches, including the CSR packing,
    # outside the timed region.
    _ = dublin_scenario.coverage.packed()

    sites = benchmark(algorithm.select, dublin_scenario, k)
    assert len(sites) <= k
    benchmark.extra_info["scale"] = BENCH_SCALE
    benchmark.extra_info["algorithm"] = name
    benchmark.extra_info["sites"] = len(sites)


def test_exhaustive_small_instance(benchmark):
    """Optimal search on a 4x4 grid with 4 flows, k = 3."""
    net = manhattan_grid(4, 4, 1.0)
    flows = [
        flow_between(net, (0, 0), (0, 3), 10, 1.0),
        flow_between(net, (3, 0), (3, 3), 8, 1.0),
        flow_between(net, (0, 0), (3, 3), 6, 1.0),
        flow_between(net, (3, 0), (0, 3), 4, 1.0),
    ]
    scenario = Scenario(net, flows, (1, 1), ThresholdUtility(4.0))
    algorithm = algorithm_by_name("exhaustive")
    sites = benchmark(algorithm.select, scenario, 3)
    assert len(sites) == 3


def test_cold_scenario_setup(benchmark, provider):
    """Time the one-off preprocessing: detour fields + coverage index."""
    bundle = provider.get("dublin")
    classes = classify_intersections(bundle.network, bundle.flows)
    shop = locations_of_class(classes, LocationClass.CITY)[0]

    def build():
        scenario = Scenario(
            bundle.network, bundle.flows, shop, LinearUtility(20_000.0)
        )
        return scenario.coverage.incidence_count()

    incidences = benchmark(build)
    assert incidences > 0
    benchmark.extra_info["incidences"] = incidences
