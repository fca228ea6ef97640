"""One benchmark segment: a fresh process that sets up, measures and
checks one workload, then prints one JSON line.

Usage (``perfbench/run.py`` does this; the repo root must be on
``PYTHONPATH`` together with ``src``)::

    python -m perfbench.segment --workload W --seed N --seconds S \\
        --spawned-at T [--trace-dir DIR]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is system-wide, so set-up
time runs from process start until the first timed op.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.segment")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_dir is not None and not args.workload.startswith("serve"):
        from perfbench import tracer

        tracer.import_all_repro_modules()
        recorder = tracer.SpanRecorder(args.trace_dir)
        layers = {
            "reproduce": tracer.REPRODUCE_LAYERS,
            "fleet": tracer.FLEET_LAYERS,
        }[args.workload]
        tracer.install(layers, recorder)

    from perfbench import workloads

    if args.workload == "reproduce":
        result = workloads.reproduce(args.seed, args.seconds, recorder)
    elif args.workload == "fleet":
        result = workloads.fleet(args.seed, args.seconds, recorder)
    else:
        # The serve layers live in the server process; the segment only
        # names the directory the server's spans go to.
        if args.trace_dir is not None:
            from perfbench.tracer import SpanRecorder

            recorder = SpanRecorder(args.trace_dir)
        result = workloads.serve(
            args.workload, args.seed, args.seconds, recorder
        )

    import numpy

    from repro.backends import current_backend

    ops = result["ops"]
    counter = result["counter"]
    print(
        json.dumps(
            {
                "setup_s": result["window_start"] - args.spawned_at,
                "latencies_ms": [1000.0 * (f - s) for s, f in ops],
                "window_s": max(f for _, f in ops) - result["window_start"],
                "sweeps_s": result.get("sweeps", []),
                "devices_per_op": result["devices_per_op"],
                "peak_rss_mb": result["peak_rss_mb"],
                "digest": result.get("digest"),
                "attempted": counter.attempted,
                "failed": counter.failed,
                "notes": counter.notes,
                "layers": result.get("layers"),
                "backend": current_backend().name,
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
