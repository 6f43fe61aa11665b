"""Asyncio sanitizer: slow callbacks and leaked tasks are reported.

Violations are recorded on the :class:`AsyncSanitizerReport` (never
raised — a chaos experiment stalls the loop on purpose), so every test
asserts on the report and the ``lint.sanitize.async_violations`` obs
counter rather than on exceptions.
"""

import asyncio
import time

import pytest

from repro import obs
from repro.devtools import sanitize
from repro.errors import SanitizerViolation
from repro.obs.clock import TickClock
from repro.serve.server import PlacementServer, sanitizer_health


@pytest.fixture(autouse=True)
def _isolated_installation():
    """Each test installs (or not) against a clean global slot."""
    sanitize.uninstall_async()
    yield
    sanitize.uninstall_async()


class TestSlowCallbacks:
    def test_tick_clock_makes_every_callback_slow(self):
        # TickClock advances 1.0 per read, so each callback appears to
        # take a full second against a 0.5s budget — deterministically.
        report = sanitize.install_async(clock=TickClock(step=1.0))
        asyncio.run(asyncio.sleep(0))
        assert report.callbacks_timed > 0
        assert report.slow_callbacks == report.callbacks_timed
        assert report.violations
        assert all(
            violation.check == "slow-callback"
            for violation in report.violations
        )

    def test_deliberately_blocked_loop_is_reported(self):
        report = sanitize.install_async(budget=0.05)

        async def wedge():
            time.sleep(0.2)  # rapflow: noqa[RAP006] the stall under test

        asyncio.run(wedge())
        assert report.slow_callbacks >= 1
        assert any(
            "wedge" in str(violation) for violation in report.violations
        )

    def test_fast_callbacks_pass_generous_budget(self):
        report = sanitize.install_async(budget=1000.0)
        asyncio.run(asyncio.sleep(0))
        assert report.callbacks_timed > 0
        assert report.slow_callbacks == 0
        assert report.violations == []

    def test_install_is_idempotent(self):
        first = sanitize.install_async(budget=1000.0)
        second = sanitize.install_async(budget=0.0)
        assert second is first
        assert sanitize.async_report() is first
        assert sanitize.uninstall_async() is first
        assert sanitize.async_report() is None
        assert sanitize.uninstall_async() is None

    def test_uninstall_restores_handle_run(self):
        original = asyncio.events.Handle._run
        sanitize.install_async()
        assert asyncio.events.Handle._run is not original
        sanitize.uninstall_async()
        assert asyncio.events.Handle._run is original


class TestLeakedTasks:
    def test_pending_task_at_drain_is_reported(self):
        report = sanitize.install_async(budget=1000.0)

        async def scenario():
            stray = asyncio.get_running_loop().create_task(
                asyncio.sleep(3600)
            )
            leaked = sanitize.check_loop_shutdown("test.drain")
            stray.cancel()
            return leaked

        leaked = asyncio.run(scenario())
        assert leaked == ["sleep"]
        assert report.leaked_tasks == 1
        assert report.shutdown_checks == 1
        assert any(
            violation.check == "leaked-task" and "test.drain" in str(violation)
            for violation in report.violations
        )

    def test_connection_handlers_are_exempt(self):
        report = sanitize.install_async(budget=1000.0)

        class HttpConnections:  # the servers' connection-loop owner
            async def serve(self):
                await asyncio.sleep(3600)

        async def scenario():
            handler = asyncio.get_running_loop().create_task(
                HttpConnections().serve()
            )
            leaked = sanitize.check_loop_shutdown("test.drain")
            handler.cancel()
            return leaked

        assert asyncio.run(scenario()) == []
        assert report.leaked_tasks == 0

    def test_noop_when_not_installed(self):
        async def scenario():
            stray = asyncio.get_running_loop().create_task(
                asyncio.sleep(3600)
            )
            leaked = sanitize.check_loop_shutdown("test.drain")
            stray.cancel()
            return leaked

        assert asyncio.run(scenario()) == []

    def test_server_shutdown_runs_the_check(self):
        report = sanitize.install_async(budget=1000.0)

        class _StubEngine:
            pass

        async def scenario():
            server = PlacementServer(_StubEngine())
            await server.start()
            stray = asyncio.get_running_loop().create_task(
                asyncio.sleep(3600)
            )
            await server.shutdown(drain_timeout=0.1)
            stray.cancel()

        asyncio.run(scenario())
        assert report.shutdown_checks == 1
        assert report.leaked_tasks == 1


class TestSurfacing:
    def test_record_bumps_obs_counter(self):
        report = sanitize.install_async(budget=1000.0)
        with obs.ObsContext() as ctx:
            report.record(
                SanitizerViolation("planted", check="slow-callback")
            )
            report.record(
                SanitizerViolation("planted", check="leaked-task")
            )
        assert ctx.counters["lint.sanitize.async_violations"] == 2
        assert report.total_violations() == 2

    def test_violation_storage_is_bounded(self):
        report = sanitize.install_async(budget=1000.0)
        for _ in range(sanitize._MAX_ASYNC_VIOLATIONS + 10):
            report.record(SanitizerViolation("planted", check="leaked-task"))
        assert len(report.violations) == sanitize._MAX_ASYNC_VIOLATIONS
        assert report.leaked_tasks == sanitize._MAX_ASYNC_VIOLATIONS + 10

    def test_sanitizer_health_off_and_on(self):
        assert sanitizer_health() is None
        report = sanitize.install_async(budget=2.5)
        payload = sanitizer_health()
        assert payload == {
            "async_violations": 0,
            "slow_callbacks": 0,
            "leaked_tasks": 0,
            "callbacks_timed": report.callbacks_timed,
            "budget": 2.5,
        }


class TestEnvironment:
    def test_budget_env_override(self):
        assert sanitize.async_budget({}) == sanitize.DEFAULT_ASYNC_BUDGET
        assert sanitize.async_budget(
            {sanitize.ASYNC_BUDGET_ENV: "1.25"}
        ) == 1.25
        # Garbage and non-positive values fall back to the default.
        assert sanitize.async_budget(
            {sanitize.ASYNC_BUDGET_ENV: "soon"}
        ) == sanitize.DEFAULT_ASYNC_BUDGET
        assert sanitize.async_budget(
            {sanitize.ASYNC_BUDGET_ENV: "-1"}
        ) == sanitize.DEFAULT_ASYNC_BUDGET

    def test_install_if_enabled_respects_env(self, monkeypatch):
        monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
        assert sanitize.install_async_if_enabled() is None
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
        report = sanitize.install_async_if_enabled()
        assert report is not None
        assert sanitize.async_report() is report


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
