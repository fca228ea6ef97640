"""The four workloads, one segment at a time.

A *segment* is one fresh process: it sets up (imports, inputs, warm-up
ops), measures for its share of the run, checks every output, and
prints one JSON line for :mod:`perfbench.run` to pool.  Run it as
``python -m perfbench.segment``; nothing here starts at import time.

Every timed op is checked; a wrong output counts as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import layers
from perfbench.stats import OpCounter, timed_window

ROOT = Path(__file__).resolve().parent.parent

#: Fleet size of the ``fleet`` workload: 16 shards, 8 per worker.
FLEET_DEVICES = 65_536
FLEET_SHARD_DEVICES = 4_096
FLEET_JOBS = 2

#: Connections per serve workload (never more than the 2 vCPUs the
#: benchmark was sized on: the auth server is GIL-bound, so a second
#: auth connection only adds queueing).
SERVE_CONNECTIONS = {"serve_attest": 2, "serve_auth": 1}


def summary_digest(summary: dict) -> str:
    """sha256 of a summary without its ``_``-prefixed timing blocks."""
    science = {k: v for k, v in summary.items() if not k.startswith("_")}
    text = json.dumps(science, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pipeline_failure(summary: dict, reference: str | None) -> str | None:
    """Why a pipeline pass is wrong, or ``None`` when it is right."""
    errors = sorted(
        name
        for name, entry in summary.items()
        if isinstance(entry, dict) and "error" in entry
    )
    if errors:
        return f"tasks failed: {errors}"
    if reference is not None and summary_digest(summary) != reference:
        return "summary differs from the first pass"
    return None


def fleet_failure(result: dict, reference: str | None) -> str | None:
    if not result.get("complete"):
        return f"fleet incomplete: {result.get('shards')}"
    if reference is not None and summary_digest(result) != reference:
        return "fleet reports differ from the first pass"
    return None


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _scratch_dir(name: str) -> Path:
    path = ROOT / ".perfbench" / "tmp" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# reproduce and fleet: one op is one full pass
# ----------------------------------------------------------------------


def _run_passes(one_pass, check, seconds, recorder):
    """Warm-up pass, then timed passes for ``seconds``.

    Returns ``(ops, counter, window_start, reference_digest, outputs)``
    where ``ops`` holds every pass's ``(started, finished)`` stamps,
    warm-up included, and ``outputs`` the timed passes' results.
    """
    ops: list[tuple[float, float]] = []
    outputs: list[dict] = []
    counter = OpCounter()

    def timed(index):
        span = recorder.span("bench.pass") if recorder else None
        started = time.perf_counter()
        if span is None:
            result = one_pass(index)
        else:
            with span:
                result = one_pass(index)
        finished = time.perf_counter()
        ops.append((started, finished))
        if recorder is not None:
            recorder.flush()
        return result

    warm = timed(0)
    reference = summary_digest(warm)
    warm_failure = check(warm, None)
    if warm_failure is not None:
        raise RuntimeError(f"warm-up pass is wrong: {warm_failure}")
    window_start = time.perf_counter()
    index = 1
    while time.perf_counter() - window_start < seconds:
        result = timed(index)
        counter.record(check(result, reference))
        outputs.append(result)
        index += 1
    return timed_window(ops, window_start), counter, window_start, reference, outputs


def reproduce(seed: int, seconds: float, recorder) -> dict:
    from repro.datasets.vtlike import default_vt_dataset
    from repro.pipeline import run_pipeline

    started = time.perf_counter()
    dataset = default_vt_dataset(seed)
    build_s = time.perf_counter() - started
    scratch = _scratch_dir("reproduce")

    def one_pass(index):
        cache = scratch / f"cache-{index}"
        try:
            return run_pipeline(
                dataset, jobs=1, cache_dir=cache, timings=recorder is not None
            )
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    ops, counter, window_start, digest, outputs = _run_passes(
        one_pass, pipeline_failure, seconds, recorder
    )
    shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "ops": ops,
        "window_start": window_start,
        "devices_per_op": dataset.board_count,
        "peak_rss_mb": _peak_rss_mb(),
        "digest": digest,
        "counter": counter,
    }
    if recorder is not None:
        result["layers"] = layers.reproduce_layers(
            recorder, ops, window_start, outputs, build_s
        )
    return result


def fleet(seed: int, seconds: float, recorder) -> dict:
    from repro.datasets.fleet import FleetSpec
    from repro.pipeline import run_fleet_analysis

    spec = FleetSpec(
        devices=FLEET_DEVICES, shard_devices=FLEET_SHARD_DEVICES, seed=seed
    )

    def one_pass(index):
        return run_fleet_analysis(spec, jobs=FLEET_JOBS)

    ops, counter, window_start, digest, _ = _run_passes(
        one_pass, fleet_failure, seconds, recorder
    )
    result = {
        "ops": ops,
        "window_start": window_start,
        "devices_per_op": FLEET_DEVICES,
        # The larger of this process and its (reaped) pool workers.
        "peak_rss_mb": max(
            _peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN)
        ),
        "digest": digest,
        "counter": counter,
    }
    if recorder is not None:
        result["layers"] = layers.fleet_layers(
            recorder, ops, window_start, FLEET_JOBS
        )
    return result


# ----------------------------------------------------------------------
# serve: the server runs in its own process
# ----------------------------------------------------------------------


class ServerProcess:
    """``ropuf serve`` (with its defaults) in a child process."""

    def __init__(self, seed: int, trace_dir: str | None) -> None:
        command = [sys.executable, "-m", "perfbench.serve_launcher"]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        command += ["--", "serve", "--seed", str(seed)]
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )

    def address(self, timeout: float = 60.0) -> tuple[str, int]:
        """Block until the server prints its banner; return host, port."""
        result: list[str] = []
        reader = threading.Thread(
            target=lambda: result.append(self.process.stdout.readline())
        )
        reader.start()
        reader.join(timeout)
        line = result[0] if result else ""
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.rsplit(" on ", 1)[1].strip().rpartition(":")
        return host, int(port)

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (``VmHWM``), read while it lives."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server's graceful path), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def attest_op(client, target, corner, answers) -> str | None:
    """One attest or regen request; the failure, or ``None``."""
    verb, device_id = target
    if verb == "attest":
        response = client.attest(device_id, corner)
        if not (response.get("ok") and response.get("accepted")):
            return f"attest {device_id}: {response}"
    else:
        response = client.regen(device_id, corner)
        if not (response.get("ok") and response.get("verified")):
            return f"regen {device_id}: {response}"
    return None


def auth_op(client, target, corner, answers) -> str | None:
    """One challenge + genuine-answer auth round; the failure or ``None``."""
    _, device_id = target
    issued = client.challenge(device_id)
    if not issued.get("ok"):
        return f"challenge {device_id}: {issued}"
    bits = answers[(device_id, corner)]
    answer = [bits[i] for i in issued["indices"]]
    verdict = client.auth(device_id, issued["challenge_id"], answer)
    if not (verdict.get("ok") and verdict.get("accepted")):
        return f"auth {device_id}: {verdict}"
    return None


def serve_plan(workload: str, device_ids, corners) -> list:
    """The op sequence of one sweep: every device at every corner.

    ``serve_attest`` alternates attest and regen on each (device,
    corner); ``serve_auth`` runs one challenge+auth round on each.
    """
    pairs = [(d, c) for d in device_ids for c in corners]
    if workload == "serve_attest":
        return [((verb, d), c) for d, c in pairs for verb in ("attest", "regen")]
    return [(("auth", d), c) for d, c in pairs]


class _Connection(threading.Thread):
    """One closed-loop client: warm-up sweep, then ops until the deadline."""

    def __init__(self, index, host, port, plan, op, answers, barrier, window):
        super().__init__(name=f"perfbench-conn-{index}", daemon=True)
        self.host, self.port = host, port
        # Connections start half a sweep apart, so they do not ask for
        # the same device in lock step.
        offset = index * len(plan) // 2
        self.plan = plan[offset:] + plan[:offset]
        self.op = op
        self.answers = answers
        self.barrier = barrier
        self.window = window
        self.ops: list[tuple[float, float]] = []
        self.sweeps: list[float] = []
        self.counter = OpCounter()
        self.error: BaseException | None = None

    def run(self) -> None:
        from repro.serve import AuthClient

        try:
            with AuthClient(self.host, self.port, timeout=30.0) as client:
                for target, corner in self.plan:  # warm-up sweep
                    failure = self.op(client, target, corner, self.answers)
                    if failure is not None:
                        raise RuntimeError(f"warm-up op failed: {failure}")
                self.barrier.wait()
                self._timed(client)
        except Exception as exc:  # noqa: BLE001 - re-raised by serve()
            self.error = exc
            self.barrier.abort()

    def _timed(self, client) -> None:
        from repro.serve import ServeClientError

        deadline = self.window["deadline"]
        cursor = 0
        sweep_started = time.perf_counter()
        while time.perf_counter() < deadline:
            target, corner = self.plan[cursor % len(self.plan)]
            started = time.perf_counter()
            try:
                failure = self.op(client, target, corner, self.answers)
            except (ServeClientError, OSError) as exc:
                failure = f"transport: {exc}"
            finished = time.perf_counter()
            self.ops.append((started, finished))
            self.counter.record(failure)
            cursor += 1
            if cursor % len(self.plan) == 0:
                self.sweeps.append(finished - sweep_started)
                sweep_started = finished


def serve(workload: str, seed: int, seconds: float, recorder) -> dict:
    trace_dir = None if recorder is None else str(recorder.directory)
    server = ServerProcess(seed, trace_dir)
    try:
        from repro.serve import AuthClient, DeviceFarm, FleetConfig

        # The twin farm answers challenges; it builds while the server
        # enrolls its own copy.
        farm = DeviceFarm.from_config(FleetConfig(seed=seed))
        corners = farm.device(farm.device_ids[0]).corners
        answers = {}
        if workload == "serve_auth":
            for device_id in farm.device_ids:
                evaluator = farm.device(device_id).evaluator
                for corner in corners:
                    answers[(device_id, corner)] = [
                        int(b) for b in evaluator.response(corner)
                    ]
        host, port = server.address()
        plan = serve_plan(workload, farm.device_ids, corners)
        op = attest_op if workload == "serve_attest" else auth_op
        connections = SERVE_CONNECTIONS[workload]
        window: dict = {}
        with AuthClient(host, port) as control:

            def open_window():
                window["before"] = control.stats()
                window["start"] = time.perf_counter()
                window["deadline"] = window["start"] + seconds

            barrier = threading.Barrier(connections, action=open_window)
            threads = [
                _Connection(i, host, port, plan, op, answers, barrier, window)
                for i in range(connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(seconds + 120.0)
            for thread in threads:
                if thread.error is not None:
                    raise RuntimeError(f"connection failed: {thread.error!r}")
            after = control.stats()
        counter = OpCounter()
        for thread in threads:
            counter.merge(thread.counter)
        before = window["before"]
        errors = after["service"].get("errors", 0) - before["service"].get(
            "errors", 0
        )
        shed = _shed(after) - _shed(before)
        ops = sorted(stamp for thread in threads for stamp in thread.ops)
        result = {
            "ops": ops,
            "window_start": window["start"],
            "sweeps": [s for thread in threads for s in thread.sweeps],
            "devices_per_op": 1,
            "peak_rss_mb": server.peak_rss_mb(),
            "counter": counter,
        }
    finally:
        server.stop()
    if recorder is not None:
        result["layers"] = layers.serve_layers(
            recorder, ops, result["window_start"], before, after, errors, shed
        )
    return result


def _shed(stats: dict) -> int:
    admission = stats.get("overload", {}).get("admission", {})
    return int(admission.get("shed", 0)) + int(admission.get("expired", 0))
