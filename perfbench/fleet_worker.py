"""A fleet worker: ``rapflow serve`` that reports its counters at exit.

Usage (spawned by ``fleet_host.py``)::

    python3 perfbench/fleet_worker.py REPORT.json serve [serve flags...]

Runs the same CLI entry point ``repro.serve.ProcessWorker`` runs
(``python -m repro serve``), inside a :class:`repro.obs.ObsContext` so the
engine's response-cache hit/miss counters (which ``/healthz`` does not
expose) are kept; when the server drains on SIGTERM the counters and this
process's peak RSS are written to ``REPORT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import peak_rss_mb, use_checkout_sources


def main(argv) -> int:
    report, *serve_argv = argv
    use_checkout_sources()
    from repro import obs
    from repro.cli import main as rapflow
    from repro.errors import ObsError

    code = 1
    try:
        with obs.ObsContext() as ctx:
            try:
                code = rapflow(serve_argv)
            finally:
                Path(report).write_text(
                    json.dumps({"counters": ctx.counters, "peak_rss_mb": peak_rss_mb()})
                )
    except ObsError:
        pass  # a span left open at exit; the counters are already written
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
