"""The repository's end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads: ``reproduce``, ``fleet``, ``serve_attest``, ``serve_auth``
(see ``perfbench/README.md``).  A run is three segments, each a fresh
process that sets up, measures ``seconds / 3`` and checks its outputs;
the end-to-end metrics pool the segments and ``setup_s`` is the median
of the three set-ups.  ``--trace 1`` runs four segments instead,
alternately untraced and traced, and prints the per-layer metrics of
the traced ones plus the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
diagnostics (environment, host-speed probe, summary digest).
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere, and inherited by every
# process the benchmark starts: default OpenBLAS threading made a
# 400x400 matmul swing 15x between calls on a 2-vCPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, percentile, rate  # noqa: E402

WORKLOADS = ("reproduce", "fleet", "serve_attest", "serve_auth")
DEFAULT_SEED = 20140601
SEGMENTS = 3
#: Every run must end well inside 180 s.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "devices_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
}


def host_probe() -> float:
    """Seconds for a fixed calibration kernel that runs no repo code:
    a pure-Python loop plus a fixed numpy matmul.  A slowed host shows
    here as well as in the metrics; a regression shows only there."""
    import numpy as np

    def once() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        matrix = np.arange(300 * 300, dtype=float).reshape(300, 300) / 9e4
        for _ in range(20):
            matrix = matrix @ matrix.T
            matrix /= np.abs(matrix).max()
        return time.perf_counter() - started

    return median([once() for _ in range(5)])


def end_to_end(workload: str, segments: list[dict]) -> dict:
    """Pool the segments into the end-to-end metrics."""
    latencies = [x for s in segments for x in s["latencies_ms"]]
    throughput = rate(len(latencies), sum(s["window_s"] for s in segments))
    if workload in ("reproduce", "fleet"):
        # One op is one pass; a pass analyses ``devices_per_op`` devices.
        pass_s = median(latencies) / 1000.0
        devices_per_s = segments[0]["devices_per_op"] / pass_s
    else:
        # A pass is one connection's sweep over every (device, corner);
        # every request or round evaluates one device.
        pass_s = median([x for s in segments for x in s["sweeps_s"]])
        devices_per_s = throughput
    return {
        "setup_s": median([s["setup_s"] for s in segments]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in segments]),
        "pass_s": pass_s,
        "devices_per_s": devices_per_s,
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_p90_ms": percentile(latencies, 90.0),
        "throughput_rps": throughput,
    }


def per_layer(workload: str, segments: list[dict]) -> dict:
    """Mean of the traced segments' layer metrics, plus tracing overhead."""
    from perfbench.layers import PER_LAYER

    traced = [s for s in segments if s["traced"]]
    untraced = [s for s in segments if not s["traced"]]
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name in values:
        found = [s["layers"][name] for s in traced if name in s["layers"]]
        if found:
            values[name] = sum(found) / len(found)
    primary = "pass_s" if workload in ("reproduce", "fleet") else "latency_p50_ms"
    base = end_to_end(workload, untraced)[primary]
    values["trace.overhead_frac"] = (
        end_to_end(workload, traced)[primary] - base
    ) / base
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}


def run_segment(workload, seed, seconds, trace_dir, env, deadline) -> dict:
    command = [
        sys.executable, "-m", "perfbench.segment",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    spawned_at = time.perf_counter()
    command += ["--spawned-at", repr(spawned_at)]
    # Its own process group, so a hung segment is stopped together with
    # the server and pool workers it started.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(deadline - spawned_at, 1.0))
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{workload} segment exited with {process.returncode}")
    segment = json.loads(stdout.strip().splitlines()[-1])
    segment["traced"] = trace_dir is not None
    return segment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Same string hashing in every segment, so set iteration order (and
    # the work that follows from it) does not vary between processes.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)

    plan = [False] * SEGMENTS if not args.trace else [False, True, False, True]
    segment_seconds = args.seconds / SEGMENTS
    trace_root = work / "trace" / args.workload
    if args.trace:
        shutil.rmtree(trace_root, ignore_errors=True)

    probe_before = host_probe()
    segments = []
    try:
        for index, traced in enumerate(plan):
            trace_dir = trace_root / f"segment-{index}" if traced else None
            segments.append(
                run_segment(
                    args.workload, args.seed, segment_seconds, trace_dir, env,
                    deadline,
                )
            )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    probe_after = host_probe()

    attempted = sum(s["attempted"] for s in segments)
    failed = sum(s["failed"] for s in segments)
    notes = [note for s in segments for note in s["notes"]]
    digests = {s["digest"] for s in segments}
    if len(digests) > 1:
        # Every segment must reproduce the same science.
        failed = attempted
        notes.append(f"segments disagree on the summary digest: {sorted(digests)}")

    untraced = [s for s in segments if not s["traced"]]
    if args.trace:
        metrics = per_layer(args.workload, segments)
    else:
        values = end_to_end(args.workload, untraced)
        metrics = {
            name: {"value": values[name], "unit": END_TO_END[name]}
            for name in END_TO_END
        }
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "segments": len(segments),
        "ops": sum(len(s["latencies_ms"]) for s in untraced),
        "digest": sorted(d for d in digests if d) or None,
        "failure_notes": notes[:5],
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": segments[0]["numpy"],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "backend": segments[0]["backend"],
            "seed": args.seed,
        },
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
