"""Shared-memory artifact plane: publish/attach lifecycle and leaks.

The pool contract under test: the *publishing* process owns segment
lifetimes, attachers only map; every exit path — clean drain, killed
attacher, crashed owner — must leave ``/dev/shm`` empty once the owner
(or ``sweep``) has run.  Leak probes go through
:func:`~repro.serve.shm.segment_exists`, which reads the kernel's view,
not the pool's bookkeeping.  Subprocess cases additionally assert the
child's stderr carries no ``resource_tracker`` warnings — the tracker
complaining about leaked shared memory at interpreter exit is exactly
the bug class the disown/re-register dance in ``shm.py`` exists to
prevent.

Bit-identity runs on the Fig. 4 worked example, so the expected totals
stay hand-checkable ({V3, V5} attracts 21.0 under the threshold
utility).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ServeArtifactError
from repro.serve import ArtifactStore, QueryEngine, ScenarioArtifact
from repro.serve.shm import (
    ShmArtifactPool,
    memory_probe,
    segment_exists,
    segment_name_for,
)

from ..core.eval_reference import reference_totals

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Rebuilds the Fig. 4 artifact inside a child interpreter.
CHILD_PRELUDE = """
import sys
from tests.conftest import build_paper_flows, build_paper_network
from repro.core import Scenario, ThresholdUtility
from repro.serve import ScenarioArtifact
from repro.serve.shm import ShmArtifactPool

scenario = Scenario(build_paper_network(), build_paper_flows(),
                    shop="V1", utility=ThresholdUtility(6.0))
artifact = ScenarioArtifact.compile(scenario)
pool = ShmArtifactPool(sys.argv[1])
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"
    return env


def run_child(script, *args, check=True):
    """Run a pool script in a fresh interpreter; returns the process."""
    process = subprocess.run(
        [sys.executable, "-c", CHILD_PRELUDE + script, *args],
        env=child_env(),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if check:
        assert process.returncode == 0, process.stderr
    return process


@pytest.fixture
def pool(tmp_path) -> ShmArtifactPool:
    pool = ShmArtifactPool(tmp_path / "shm")
    yield pool
    pool.detach_all()
    pool.unlink_all()


class TestPublishAttach:
    def test_attached_artifact_is_bit_identical_to_loaded(
        self, artifact, pool, tmp_path
    ):
        pool.publish(artifact)
        artifact.save(tmp_path / "cache")
        loaded = ArtifactStore(tmp_path / "cache").load(artifact.digest)
        attached = ScenarioArtifact.attach(pool, artifact.digest)
        placements = [("V3", "V5"), ("V2",), ("V2", "V4", "V6"), ()]
        via_shm = QueryEngine(attached).evaluate_totals(placements)
        via_disk = QueryEngine(loaded).evaluate_totals(placements)
        assert via_shm == via_disk
        assert via_shm == reference_totals(attached.scenario, placements)
        assert via_shm[0] == 21.0
        pool.detach(artifact.digest)

    def test_publish_is_idempotent_per_digest(self, artifact, pool):
        first = pool.publish(artifact)
        second = pool.publish(artifact)
        assert first.segment == second.segment
        assert pool.digests() == [artifact.digest]
        assert segment_exists(first.segment)

    def test_attach_refcounts_one_mapping_per_process(self, artifact, pool):
        pool.publish(artifact)
        first = pool.attach(artifact.digest)
        second = pool.attach(artifact.digest)
        assert second is first
        assert first.refcount == 2
        pool.detach(artifact.digest)
        assert not first.closed
        assert pool.attached_digests() == [artifact.digest]
        pool.detach(artifact.digest)
        assert first.closed
        assert pool.attached_digests() == []
        # Dropping the last reference unmaps but never unlinks: the
        # segment stays for other attachers until the owner retires it.
        assert segment_exists(segment_name_for(artifact.digest))

    def test_manifest_survives_reload(self, artifact, pool):
        published = pool.publish(artifact)
        reread = ShmArtifactPool(pool.root).manifest(artifact.digest)
        assert reread.digest == published.digest
        assert reread.segment == published.segment
        assert reread.nbytes == published.nbytes
        assert reread.owner_pid == os.getpid()
        assert [c.key for c in reread.columns] == [
            c.key for c in published.columns
        ]

    def test_memory_probe_reports_byte_counts(self):
        probe = memory_probe()
        assert probe["rss_bytes"] > 0
        assert probe["private_bytes"] > 0
        assert probe["shared_bytes"] >= 0


class TestLifecycle:
    def test_unlink_all_retires_segment_and_manifest(self, artifact, pool):
        manifest = pool.publish(artifact)
        assert pool.unlink_all() == [artifact.digest]
        assert not segment_exists(manifest.segment)
        assert pool.digests() == []
        # Idempotent: a second drain finds nothing to retire.
        assert pool.unlink_all() == []

    def test_attach_after_unlink_raises(self, artifact, pool):
        pool.publish(artifact)
        pool.unlink_all()
        with pytest.raises(ServeArtifactError):
            pool.attach(artifact.digest)

    def test_attach_unpublished_digest_raises(self, pool):
        with pytest.raises(ServeArtifactError) as info:
            pool.attach("0" * 64)
        assert "not published" in str(info.value)

    def test_sweep_reclaims_dead_owner(self, artifact, pool, tmp_path):
        # A child publishes and exits WITHOUT unlinking — the crash
        # case.  Its resource tracker may or may not reclaim the
        # segment at exit; either way the manifest survives with a dead
        # owner_pid and sweep must retire both.
        run_child(
            "pool.publish(artifact)\nprint(artifact.digest)",
            str(tmp_path / "shm"),
        )
        assert pool.digests() == [artifact.digest]
        assert pool.sweep() == [artifact.digest]
        assert pool.digests() == []
        assert not segment_exists(segment_name_for(artifact.digest))

    def test_sweep_spares_live_owners(self, artifact, pool):
        pool.publish(artifact)
        assert pool.sweep() == []
        assert segment_exists(segment_name_for(artifact.digest))

    def test_publish_adopts_an_orphan_segment(self, artifact, pool):
        # A publisher killed together with its resource tracker leaves
        # a manifest-less segment behind.  Publishing the same digest
        # must adopt and rewrite it (content-addressed bytes), not fail
        # until someone hand-cleans /dev/shm.
        from multiprocessing import shared_memory

        name = segment_name_for(artifact.digest)
        orphan = shared_memory.SharedMemory(name=name, create=True, size=8)
        orphan.buf[:8] = b"\xde\xad\xbe\xef" * 2
        orphan.close()
        try:
            manifest = pool.publish(artifact)
            assert manifest.segment == name
            attached = ScenarioArtifact.attach(pool, artifact.digest)
            totals = QueryEngine(attached).evaluate_totals([("V3", "V5")])
            assert totals == [21.0]
            del attached
            pool.detach(artifact.digest)
        finally:
            pool.unlink_all()
        assert not segment_exists(name)


class TestSubprocessHygiene:
    def test_clean_child_run_leaves_no_segment_or_warnings(
        self, artifact, tmp_path
    ):
        # Full lifecycle in one child: publish, attach (zero-copy
        # restore + a query), detach, unlink.  Nothing may survive it —
        # no segment, no manifest, and no resource_tracker whine on
        # stderr at interpreter exit.
        process = run_child(
            """
from repro.serve import QueryEngine
pool.publish(artifact)
attached = ScenarioArtifact.attach(pool, artifact.digest)
totals = QueryEngine(attached).evaluate_totals([("V3", "V5")])
assert totals == [21.0], totals
del attached
pool.detach(artifact.digest)
pool.unlink_all()
""",
            str(tmp_path / "shm"),
        )
        assert "resource_tracker" not in process.stderr, process.stderr
        assert not segment_exists(segment_name_for(artifact.digest))
        assert ShmArtifactPool(tmp_path / "shm").digests() == []

    def test_killed_attacher_leaves_owner_segment_intact(
        self, artifact, pool, tmp_path
    ):
        # SIGKILL mid-attach is the worker-crash case: the owner's
        # segment must survive (other replicas keep serving) and the
        # owner's drain must still reclaim it afterwards.
        pool.publish(artifact)
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                CHILD_PRELUDE
                + """
attached = ScenarioArtifact.attach(pool, artifact.digest)
print("attached", flush=True)
import time
time.sleep(60)
""",
                str(pool.root),
            ],
            env=child_env(),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "attached"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
            child.communicate()
        name = segment_name_for(artifact.digest)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not segment_exists(name):
            time.sleep(0.05)  # pragma: no cover - tracker race
        assert segment_exists(name), (
            "killed attacher took the owner's segment down with it"
        )
        pool.unlink_all()
        assert not segment_exists(name)
