"""RAP006 — no blocking calls inside ``async def`` bodies.

The serving stack (:mod:`repro.serve`) runs one event loop per worker;
a single synchronous call on that loop stalls *every* in-flight request
and every supervisor heartbeat at once — the fleet then reads the stall
as a dead worker and respawns it.  The loop may only await; blocking
work belongs in ``loop.run_in_executor`` (passing the callable, which
this rule therefore never sees as a call).

Flagged inside ``async def`` (but not inside nested synchronous
functions or lambdas, which run wherever they are later called):

* ``time.sleep`` — use ``asyncio.sleep``;
* any call through the ``socket`` module — use asyncio streams;
* builtin ``open()`` and path-object file I/O (``read_text`` /
  ``write_text`` / ``read_bytes`` / ``write_bytes``);
* ``subprocess`` process spawns (``run`` / ``call`` / ``check_call`` /
  ``check_output`` / ``Popen``);
* direct kernel dispatch: ``<engine>.handle(...)`` on an
  ``engine`` / ``_engine`` receiver and the
  :mod:`repro.core.evaluation` entry points imported by name.

Escape hatches: the ``async-blocking-allowed`` config key blesses a
call name repo-wide (mirroring RAP002's ``clock-receivers``), and a
``# rapflow: noqa[RAP006] <why>`` pragma blesses one deliberate site —
the serving layer's kernel-on-loop design keeps exactly one.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..base import FileContext, Rule
from ..config import LintConfig

#: Path-object methods that hit the filesystem synchronously.
_PATH_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Blocking process-spawn entry points in :mod:`subprocess`.
_SUBPROCESS_FNS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)

#: Receivers treated as a :class:`~repro.serve.engine.QueryEngine`.
_ENGINE_RECEIVERS = frozenset({"engine", "_engine"})

#: Kernel entry points that run a full placement evaluation.
_KERNEL_MODULES = ("repro.core.evaluation", "repro.core.kernel")
_KERNEL_FNS = frozenset({"evaluate_placement", "evaluate_placement_many"})


class BlockingAsyncRule(Rule):
    """Forbid synchronous blocking calls on the event loop."""

    code = "RAP006"
    summary = (
        "async def bodies must not call blocking I/O (time.sleep, socket, "
        "open/file I/O, subprocess, kernel dispatch); use run_in_executor"
    )

    def __init__(self, context: FileContext, config: LintConfig) -> None:
        super().__init__(context, config)
        self._time_aliases: Set[str] = context.module_aliases("time")
        self._socket_aliases: Set[str] = context.module_aliases("socket")
        self._subprocess_aliases: Set[str] = context.module_aliases(
            "subprocess"
        )
        self._from_time_sleep: Set[str] = {
            local
            for local, original in context.from_imports("time").items()
            if original == "sleep"
        }
        self._from_subprocess: Set[str] = {
            local
            for local, original in context.from_imports("subprocess").items()
            if original in _SUBPROCESS_FNS
        }
        self._kernel_names: Set[str] = set()
        for module in _KERNEL_MODULES:
            self._kernel_names.update(
                local
                for local, original in context.from_imports(module).items()
                if original in _KERNEL_FNS
            )
        # Stack of booleans: True while the innermost enclosing function
        # is an ``async def`` (nested sync defs/lambdas reset it — their
        # bodies execute wherever the callable is later invoked).
        self._async_stack: List[bool] = []

    # -- context tracking ----------------------------------------------
    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_stack.append(True)
        self.generic_visit(node)
        self._async_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._async_stack.append(False)
        self.generic_visit(node)
        self._async_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._async_stack.append(False)
        self.generic_visit(node)
        self._async_stack.pop()

    @property
    def _in_async(self) -> bool:
        return bool(self._async_stack) and self._async_stack[-1]

    # -- call inspection ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._in_async:
            verdict = self._blocking_reason(node)
            if verdict is not None:
                name, reason = verdict
                if not self.config.async_call_allowed(name):
                    self.emit(
                        node,
                        f"blocking call {name}() on the event loop ({reason}); "
                        "await an async equivalent or route it through "
                        "run_in_executor",
                    )
        self.generic_visit(node)

    def _blocking_reason(self, node: ast.Call) -> "Optional[tuple]":
        """``(call name, reason)`` when ``node`` blocks, else ``None``."""
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._from_time_sleep:
                return func.id, "sleeps the whole loop"
            if func.id in self._from_subprocess:
                return func.id, "spawns and waits on a subprocess"
            if func.id == "open":
                return "open", "synchronous file I/O"
            if func.id in self._kernel_names:
                return func.id, "runs a full kernel evaluation"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        base = func.value
        receiver = base.id if isinstance(base, ast.Name) else None
        if receiver in self._time_aliases and attr == "sleep":
            return f"{receiver}.sleep", "sleeps the whole loop"
        if receiver in self._socket_aliases:
            return f"{receiver}.{attr}", "synchronous socket I/O"
        if receiver in self._subprocess_aliases and attr in _SUBPROCESS_FNS:
            return f"{receiver}.{attr}", "spawns and waits on a subprocess"
        if attr in _PATH_IO_METHODS:
            return attr, "synchronous file I/O"
        if attr in _KERNEL_FNS:
            return attr, "runs a full kernel evaluation"
        if attr == "handle" and self._engine_receiver(base):
            return f"{self._engine_receiver(base)}.handle", (
                "dispatches a kernel query synchronously"
            )
        return None

    @staticmethod
    def _engine_receiver(base: ast.expr) -> Optional[str]:
        """The engine-like terminal name of ``base``, or None.

        Matches ``engine.handle(...)`` and ``self._engine.handle(...)``
        alike by resolving to the terminal attribute/name.
        """
        if isinstance(base, ast.Name) and base.id in _ENGINE_RECEIVERS:
            return base.id
        if isinstance(base, ast.Attribute) and base.attr in _ENGINE_RECEIVERS:
            return base.attr
        return None


__all__ = ["BlockingAsyncRule"]
