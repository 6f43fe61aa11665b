"""Differential tests: served results are bit-identical to library calls.

The serving stack (artifact compilation, digest round trips, the query
engine, the micro-batcher, HTTP framing) must be a pure transport: every
number that comes back over the wire equals — with ``==`` on floats, not
``approx`` — what the corresponding direct library call returns, and what
the per-entry reference in :mod:`tests.core.eval_reference` computes,
including after a save → load → query round trip.  Requests also carry
a ``backend`` field, which the engine ignores like any unknown key.
"""

import pytest

from repro.algorithms import CompositeGreedy
from repro.core import LinearUtility, Scenario, ThresholdUtility
from repro.core.kernel import ArrayEvaluator, evaluate_placement_many
from repro.serve import QueryEngine, ScenarioArtifact, ServerThread

from ..conftest import build_paper_flows, build_paper_network
from ..core.eval_reference import (
    IncrementalEvaluator,
    reference_select,
    reference_totals,
)

#: Values of the ignored ``backend`` request field the tests send.
BACKENDS = ("python", "numpy")

PLACEMENTS = [
    ["V3"],
    ["V3", "V5"],
    ["V2", "V4"],
    ["V2", "V3", "V4", "V5"],
]


def fresh_scenario(utility=None) -> Scenario:
    return Scenario(
        build_paper_network(),
        build_paper_flows(),
        shop="V1",
        utility=utility or ThresholdUtility(6.0),
    )


@pytest.fixture(params=["compiled", "restored"])
def served_artifact(request, tmp_path) -> ScenarioArtifact:
    """The artifact as compiled, and as restored from its disk form."""
    artifact = ScenarioArtifact.compile(fresh_scenario())
    if request.param == "compiled":
        return artifact
    artifact.save(tmp_path)
    return ScenarioArtifact.load(tmp_path, artifact.digest)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEngineDifferential:
    def test_evaluate_is_bit_identical(self, served_artifact, backend):
        engine = QueryEngine(served_artifact, cache_size=0)
        response = engine.handle(
            {"kind": "evaluate", "placements": PLACEMENTS,
             "backend": backend}
        )
        scenario = fresh_scenario()
        assert response["totals"] == evaluate_placement_many(
            scenario, PLACEMENTS
        )
        assert response["totals"] == reference_totals(scenario, PLACEMENTS)

    def test_place_is_bit_identical(self, served_artifact, backend):
        scenario = fresh_scenario()
        direct = CompositeGreedy().place(scenario, 2)
        assert list(direct.raps) == reference_select(
            "composite-greedy", scenario, 2
        )
        response = QueryEngine(served_artifact, cache_size=0).handle(
            {"kind": "place", "k": 2, "backend": backend}
        )
        assert response["raps"] == list(direct.raps)
        assert response["attracted"] == direct.attracted

    def test_top_gains_are_bit_identical(self, served_artifact, backend):
        scenario = fresh_scenario()
        evaluator = ArrayEvaluator(scenario)
        reference = IncrementalEvaluator(scenario)
        evaluator.place("V3")
        reference.place("V3")
        response = QueryEngine(served_artifact, cache_size=0).handle(
            {"kind": "top_gains", "placement": ["V3"], "backend": backend}
        )
        assert response["gains"]
        for entry in response["gains"]:
            assert entry["gain"] == evaluator.gain(entry["site"])
            assert entry["gain"] == reference.gain(entry["site"])

    def test_utility_override_is_bit_identical(self, served_artifact,
                                               backend):
        linear = fresh_scenario(LinearUtility(6.0))
        response = QueryEngine(served_artifact, cache_size=0).handle(
            {
                "kind": "evaluate",
                "placements": PLACEMENTS,
                "backend": backend,
                "utility": {"name": "linear", "threshold": 6.0},
            }
        )
        assert response["totals"] == evaluate_placement_many(
            linear, PLACEMENTS
        )
        assert response["totals"] == reference_totals(linear, PLACEMENTS)


class TestBackendsAgree:
    def test_served_backends_agree_with_each_other(self, served_artifact):
        """Any ``backend`` value, or none, gets the same reply."""
        engine = QueryEngine(served_artifact, cache_size=0)
        totals = {
            backend: engine.handle(
                {"kind": "evaluate", "placements": PLACEMENTS,
                 "backend": backend}
            )["totals"]
            for backend in BACKENDS + ("fortran",)
        }
        plain = engine.handle({"kind": "evaluate", "placements": PLACEMENTS})
        assert totals["python"] == totals["numpy"] == totals["fortran"]
        assert totals["numpy"] == plain["totals"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestHTTPDifferential:
    def test_wire_results_are_bit_identical(self, served_artifact, backend):
        scenario = fresh_scenario()
        direct_totals = evaluate_placement_many(scenario, PLACEMENTS)
        direct_place = CompositeGreedy().place(scenario, 2)
        with ServerThread(QueryEngine(served_artifact)) as handle:
            client = handle.client()
            assert client.query(
                {"kind": "evaluate", "placements": PLACEMENTS,
                 "backend": backend}
            )["totals"] == direct_totals
            served = client.query({"kind": "place", "k": 2,
                                   "backend": backend})
            assert served["raps"] == list(direct_place.raps)
            assert served["attracted"] == direct_place.attracted
            delta = client.query(
                {"kind": "what_if", "placement": ["V3"], "add": "V5",
                 "backend": backend}
            )
            base, variant = evaluate_placement_many(
                scenario, [["V3"], ["V3", "V5"]]
            )
            assert delta["base"] == base
            assert delta["variant"] == variant
            assert delta["delta"] == variant - base
