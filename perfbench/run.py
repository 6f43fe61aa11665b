#!/usr/bin/env python3
"""rapflow benchmark: one command for every workload and metric.

Usage::

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints every per-layer
metric (zero for a layer the workload does not call).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for what each
workload runs and how each metric is measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REPO, CheckoutError, emit, use_checkout_sources, use_one_cpu  # noqa: E402

WORKLOADS = ("paper-eval", "grid-build", "fleet-stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs that run in seconds (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    use_one_cpu()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    names = [metric["name"] for metric in section]

    if args.workload == "fleet-stream":
        import fleet_stream

        result = fleet_stream.run(args.seed, args.seconds, bool(args.trace), args.smoke)
    else:
        import offline

        result = offline.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.trace:
        # A layer this workload never calls reads zero.
        for name in names:
            result.metrics.setdefault(name, 0.0)
    missing = [name for name in names if name not in result.metrics]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 1
    emit(result, units, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
