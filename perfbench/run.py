"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ring64_ts --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics.  Every metric is printed by name with its unit, then an
environment record (kernel backend, Python, nproc, seed) as one JSON line,
and last one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The kernel backend is pinned to ``py``: ``REPRO_BACKEND`` is
cleared before the program is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke shrinks every workload for the self-tests",
    )
    return parser.parse_args(argv)


def _units():
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SOURCE}",
              file=sys.stderr)
        return 2
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))

    import workloads
    from repro.sim.kernel import Simulator

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    backend = getattr(Simulator(), "backend", "py")
    if backend != "py":
        print(f"error: kernel backend resolved to {backend!r}, not 'py'",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = _units()
    workload = workloads.WORKLOADS[args.workload](workloads.default_workers())
    table3 = workloads.check_table3()
    if args.trace:
        import layers

        outcome = layers.measure_traced(
            workload, args.seed, args.seconds, args.scale
        )
        units = layer_units
    else:
        outcome = workloads.measure(
            workload, args.seed, args.seconds, args.scale
        )
        units = e2e_units
    correct = bool(outcome["correct"]) and table3
    metrics = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    details = {
        key: value for key, value in outcome.items()
        if key not in ("metrics", "correct")
    }
    details["table3_exact"] = table3
    print(json.dumps({
        "env": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "backend": backend,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "campaign_workers": workloads.default_workers(),
        },
        "details": details,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
