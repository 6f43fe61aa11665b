"""Artifact compilation, content addressing, and disk round trips."""

import json

import pytest

from repro.core import CustomUtility, LinearUtility, Scenario, ThresholdUtility
from repro.core.kernel import evaluate_placement_many
from repro.errors import ServeArtifactError
from repro.serve import (
    ArtifactStore,
    ScenarioArtifact,
    scenario_digest,
    scenario_from_spec,
    scenario_to_spec,
    spec_digest,
)

from ..conftest import build_paper_flows, build_paper_network


def fresh_scenario(utility=None) -> Scenario:
    return Scenario(
        build_paper_network(),
        build_paper_flows(),
        shop="V1",
        utility=utility or ThresholdUtility(6.0),
    )


class TestDigest:
    def test_deterministic_across_rebuilds(self):
        assert scenario_digest(fresh_scenario()) == scenario_digest(
            fresh_scenario()
        )

    def test_utility_changes_the_digest(self):
        assert scenario_digest(fresh_scenario()) != scenario_digest(
            fresh_scenario(LinearUtility(6.0))
        )

    def test_digest_is_sha256_of_canonical_spec(self):
        scenario = fresh_scenario()
        digest = scenario_digest(scenario)
        assert digest == spec_digest(scenario_to_spec(scenario))
        assert len(digest) == 64

    def test_paper_example_digests_are_pinned(self):
        """Artifact digests of the Fig. 4 example, byte for byte.

        The spec keeps its fixed ``"default_backend": null`` field, so
        these digests (and every stored artifact) survive scenarios no
        longer choosing an evaluation engine.
        """
        assert scenario_to_spec(fresh_scenario())["default_backend"] is None
        assert scenario_digest(fresh_scenario()) == (
            "cfe86d6d554f0ae3f830e781a2cd150cc495344f5616424dd53e0918bd459224"
        )
        assert scenario_digest(fresh_scenario(LinearUtility(6.0))) == (
            "8ae10936043c30acd8b36f450bb56c3a12bcd529800dab9371f25d37e2a247da"
        )

    def test_spec_default_backend_value_is_ignored(self):
        spec = scenario_to_spec(fresh_scenario())
        spec["default_backend"] = "python"
        restored = scenario_from_spec(spec)
        assert scenario_to_spec(restored) == scenario_to_spec(fresh_scenario())

    def test_custom_utility_is_refused(self):
        scenario = fresh_scenario(CustomUtility(6.0, lambda d: 1.0))
        with pytest.raises(ServeArtifactError, match="not serializable"):
            scenario_to_spec(scenario)


class TestSpecRoundTrip:
    def test_spec_restores_an_equivalent_scenario(self):
        original = fresh_scenario()
        restored = scenario_from_spec(scenario_to_spec(original))
        assert restored.candidate_sites == original.candidate_sites
        assert restored.shop == original.shop
        assert restored.flows == original.flows
        assert scenario_digest(restored) == scenario_digest(original)

    def test_spec_survives_json_serialization(self):
        spec = scenario_to_spec(fresh_scenario())
        rehydrated = json.loads(json.dumps(spec))
        assert spec_digest(rehydrated) == spec_digest(spec)
        restored = scenario_from_spec(rehydrated)
        assert scenario_digest(restored) == spec_digest(spec)

    def test_bad_spec_raises(self):
        with pytest.raises(ServeArtifactError):
            scenario_from_spec({"format": "something-else"})
        with pytest.raises(ServeArtifactError):
            scenario_from_spec("not a dict")


class TestSaveLoad:
    def test_round_trip_is_bit_identical(self, tmp_path):
        original = ScenarioArtifact.compile(fresh_scenario())
        original.save(tmp_path)
        restored = ScenarioArtifact.load(tmp_path, original.digest)
        assert restored.digest == original.digest
        assert restored.stats == original.stats
        placements = [["V3"], ["V3", "V5"], ["V2", "V4"]]
        assert evaluate_placement_many(
            restored.scenario, placements
        ) == evaluate_placement_many(original.scenario, placements)

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ServeArtifactError, match="cannot read"):
            ScenarioArtifact.load(tmp_path, "0" * 64)

    def test_corrupt_meta_raises(self, tmp_path):
        artifact = ScenarioArtifact.compile(fresh_scenario())
        directory = artifact.save(tmp_path)
        (directory / "meta.json").write_text("{not json")
        with pytest.raises(ServeArtifactError, match="corrupt"):
            ScenarioArtifact.load(tmp_path, artifact.digest)

    def test_digest_mismatch_is_detected(self, tmp_path):
        artifact = ScenarioArtifact.compile(fresh_scenario())
        directory = artifact.save(tmp_path)
        wrong = "f" * 64
        directory.rename(tmp_path / wrong)
        with pytest.raises(ServeArtifactError, match="digest mismatch"):
            ScenarioArtifact.load(tmp_path, wrong)


class TestArtifactStore:
    def test_memory_hit_returns_the_same_object(self):
        store = ArtifactStore()
        first = store.get_or_compile(fresh_scenario())
        second = store.get_or_compile(fresh_scenario())
        assert second is first

    def test_disk_cache_survives_a_new_store(self, tmp_path):
        digest = ArtifactStore(tmp_path).get_or_compile(
            fresh_scenario()
        ).digest
        fresh_store = ArtifactStore(tmp_path)
        assert fresh_store.cached_digests() == [digest]
        loaded = fresh_store.load(digest)
        assert loaded.digest == digest
        assert evaluate_placement_many(
            loaded.scenario, [["V3", "V5"]]
        ) == [21.0]

    def test_memory_only_store_cannot_load_unknown_digest(self):
        with pytest.raises(ServeArtifactError, match="no disk cache"):
            ArtifactStore().load("0" * 64)
