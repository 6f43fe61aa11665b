"""One pass of an offline workload, in a fresh process.

Usage (spawned by ``offline.py``, not by hand)::

    python3 perfbench/offline_round.py WORKLOAD INPUTS OUT.json TRACED SMOKE

Each pass runs in its own process so that it pays the same cold start a
user's run does: nothing a previous pass computed is still in memory.
The report records the monotonic time at which the imports were done
(the parent subtracts its spawn time to get the set-up time), the
per-unit seconds of the pass at the reference speed (an untraced pass
reads the machine's speed every ``TICK_S`` in the middle of its work; a
traced one does not, so its spans cover the pass), its outputs for the
correctness checks, and, when traced, the span self times and the
library's obs counters.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

from common import SpeedLog, Tracer, peak_rss_mb, use_checkout_sources

LAYERS = {
    "paper-eval": (
        "repro.traces", "repro.reliability", "repro.experiments",
        "repro.core", "repro.algorithms", "repro.manhattan", "repro.graphs",
    ),
    "grid-build": (
        "repro.graphs", "repro.core", "repro.algorithms", "repro.serve",
    ),
}


def main(argv) -> int:
    workload, inputs, out, traced, smoke = argv
    use_checkout_sources()
    for name in LAYERS[workload]:
        importlib.import_module(name)
    ready = time.monotonic()
    import grid_build
    import paper_eval
    from repro import obs

    module = paper_eval if workload == "paper-eval" else grid_build
    size = module.SMOKE if smoke == "1" else module.FULL
    tracer = Tracer(enabled=traced == "1")
    loaded = module.load_inputs(Path(inputs))
    speed = SpeedLog(enabled=not tracer.enabled)
    t0 = time.perf_counter()
    if tracer.enabled:
        with obs.ObsContext() as ctx:
            doc = module.run_pass(Path(inputs), loaded, size, tracer, speed)
        doc["counters"] = dict(ctx.counters)
        doc["self_times"] = {
            name: values[0] for name, values in tracer.self_times(root="pass").items()
        }
    else:
        with speed.ticking():
            doc = module.run_pass(Path(inputs), loaded, size, tracer, speed)
    doc["pass_s"] = time.perf_counter() - t0
    doc["ready"] = ready
    # The first reading, taken just after set-up (untraced passes only).
    doc["setup_reading"] = speed.readings[0][1] if speed.readings else None
    doc["traced"] = tracer.enabled
    doc["peak_rss_mb"] = peak_rss_mb()
    Path(out).write_text(json.dumps(doc))
    if tracer.enabled:
        tracer.write(Path(out).with_suffix(".spans.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
