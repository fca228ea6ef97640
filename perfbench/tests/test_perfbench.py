"""The benchmark's own arithmetic, bookkeeping and checks."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench import layers, run, workloads
from perfbench.stats import (
    OpCounter,
    percentile,
    rate,
    timed_window,
)

ROOT = Path(__file__).resolve().parents[2]


# -- percentile and rate arithmetic ------------------------------------


def test_percentiles_on_known_sample():
    sample = [float(x) for x in range(10, 0, -1)]  # 10..1, unsorted
    assert percentile(sample, 0.0) == 1.0
    assert percentile(sample, 50.0) == pytest.approx(5.5)
    assert percentile(sample, 90.0) == pytest.approx(9.1)
    assert percentile(sample, 100.0) == 10.0
    assert percentile([7.0], 90.0) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_rate():
    assert rate(30, 2.0) == 15.0
    with pytest.raises(ValueError):
        rate(1, 0.0)


def test_end_to_end_pools_segments():
    segments = [
        {"latencies_ms": [1.0, 2.0, 3.0], "window_s": 1.0, "sweeps_s": [0.5],
         "setup_s": 2.0, "peak_rss_mb": 100.0, "devices_per_op": 1},
        {"latencies_ms": [4.0, 5.0], "window_s": 1.5, "sweeps_s": [0.7],
         "setup_s": 1.0, "peak_rss_mb": 90.0, "devices_per_op": 1},
        {"latencies_ms": [6.0], "window_s": 2.5, "sweeps_s": [0.6],
         "setup_s": 3.0, "peak_rss_mb": 95.0, "devices_per_op": 1},
    ]
    serve = run.end_to_end("serve_auth", segments)
    assert serve["latency_p50_ms"] == pytest.approx(3.5)
    assert serve["latency_p90_ms"] == pytest.approx(5.5)
    assert serve["throughput_rps"] == pytest.approx(6 / 5.0)
    assert serve["pass_s"] == pytest.approx(0.6)
    assert serve["setup_s"] == 2.0
    assert serve["peak_rss_mb"] == 95.0
    passes = run.end_to_end("fleet", segments)
    assert passes["pass_s"] == pytest.approx(0.0035)
    assert passes["devices_per_s"] == pytest.approx(1 / 0.0035)


# -- warm-up exclusion ---------------------------------------------------


def test_timed_window_drops_warm_up_ops():
    ops = [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0), (3.0, 4.0)]
    assert timed_window(ops, 2.5) == [(2.5, 3.0), (3.0, 4.0)]


def test_warm_up_pass_is_charged_to_set_up():
    calls = []

    def one_pass(index):
        calls.append(index)
        time.sleep(0.02)
        return {"value": 1}

    ops, counter, window_start, digest, outputs = workloads._run_passes(
        one_pass, lambda result, reference: None, 0.01, None
    )
    # The warm-up pass runs before the window opens; the one pass that
    # fits the 10 ms window is the only one timed and counted.
    assert calls == [0, 1]
    assert counter.attempted == 1 and counter.failed == 0
    assert len(ops) == 1 and ops[0][0] >= window_start
    assert digest == workloads.summary_digest({"value": 1})


def test_wrong_warm_up_aborts_the_segment():
    with pytest.raises(RuntimeError, match="warm-up"):
        workloads._run_passes(
            lambda index: {}, lambda result, ref: "broken", 0.0, None
        )


# -- failure counting ----------------------------------------------------


def test_pipeline_checks():
    good = {"dataset": "x", "t": {"v": 1}, "_pipeline": {"w": 1.0}}
    reference = workloads.summary_digest(good)
    assert workloads.pipeline_failure(good, reference) is None
    # Timing blocks never change the digest; the science does.
    assert workloads.pipeline_failure(dict(good, _pipeline={}), reference) is None
    assert "differs" in workloads.pipeline_failure(
        dict(good, t={"v": 2}), reference
    )
    assert "failed" in workloads.pipeline_failure(
        dict(good, t={"error": "boom"}), reference
    )
    assert "incomplete" in workloads.fleet_failure({"complete": False}, None)


def test_op_counter():
    counter = OpCounter(keep=1)
    counter.record(None)
    counter.record("first")
    counter.record("second")
    assert (counter.attempted, counter.failed) == (3, 2)
    assert counter.notes == ["first"]


@pytest.fixture(scope="module")
def server():
    from repro.serve import (
        AuthServer, AuthService, CRPStore, DeviceFarm, FleetConfig,
    )

    farm = DeviceFarm.from_config(FleetConfig(boards=1))
    service = AuthService(farm, CRPStore(None))
    service.enroll_fleet()
    with AuthServer(service) as live:
        live.start()
        yield farm, live.address


def _answers(farm, corner):
    return {
        (device_id, corner): [
            int(b) for b in farm.device(device_id).evaluator.response(corner)
        ]
        for device_id in farm.device_ids
    }


def test_wrong_auth_answer_is_a_failed_op(server):
    from repro.serve import AuthClient

    farm, (host, port) = server
    device_id = farm.device_ids[0]
    corner = farm.device(device_id).corners[0]
    genuine = _answers(farm, corner)
    wrong = {key: [1 - b for b in bits] for key, bits in genuine.items()}
    counter = OpCounter()
    with AuthClient(host, port) as client:
        target = ("auth", device_id)
        counter.record(workloads.auth_op(client, target, corner, genuine))
        counter.record(workloads.auth_op(client, target, corner, wrong))
        counter.record(
            workloads.attest_op(client, ("attest", device_id), corner, None)
        )
    assert (counter.attempted, counter.failed) == (3, 1)
    assert counter.notes[0].startswith(f"auth {device_id}")


def test_serve_plan_covers_every_device_and_corner():
    plan = workloads.serve_plan("serve_attest", ["a", "b"], [1, 2, 3])
    assert len(plan) == 12
    assert {verb for (verb, _), _ in plan} == {"attest", "regen"}
    auth = workloads.serve_plan("serve_auth", ["a", "b"], [1, 2, 3])
    assert sorted((d, c) for (_, d), c in auth) == [
        (d, c) for d in "ab" for c in (1, 2, 3)
    ]


# -- self time -------------------------------------------------------------


def _span(ident, parent, name, t0, t1, **attrs):
    return {
        "type": "span", "id": ident, "parent": parent, "name": name,
        "pid": 1, "t0": t0, "t1": t1, "wall0": 0.0, "attrs": attrs,
    }


def test_self_time_subtracts_children(tmp_path):
    spans = [
        _span("1-1", None, "bench.pass", 0.0, 10.0),
        _span("1-2", "1-1", "nist.battery", 1.0, 4.0),
        _span("1-3", "1-2", "metrics", 2.0, 3.0),
        _span("1-4", "1-1", "nist.battery", 5.0, 6.0),
        _span("1-5", "1-4", "nist.battery", 5.2, 5.7),
    ]
    path = tmp_path / "trace.jsonl"
    own = layers.self_times(spans, path)
    assert own["bench.pass"] == pytest.approx(6.0)
    assert own["nist.battery"] == pytest.approx(3.0)
    assert own["metrics"] == pytest.approx(1.0)
    # The file is a schema-1 trace that the repo's own reader accepts.
    from repro.obs import read_trace

    assert len(read_trace(path)[0]) == len(spans)
    # A nested call of the same layer is one call, not two.
    assert len(layers.outer_calls(spans, "nist.battery")) == 2


def test_coalescer_wait_subtracts_its_batch_kernel():
    submits = [_span("1-1", None, "s", 0.0, 3.0), _span("1-2", None, "s", 4.0, 5.0)]
    kernels = [
        _span("2-1", None, "k", 2.0, 2.5),
        _span("2-2", None, "k", 0.5, 1.0),
        _span("2-3", None, "k", 4.9, 5.5),  # ends after the second submit
    ]
    waits = layers.coalescer_wait(submits, kernels)
    assert waits == [pytest.approx(2.5), pytest.approx(1.0)]


def test_span_recorder_files_read_back(tmp_path):
    from perfbench.tracer import SpanRecorder, read_span_files

    recorder = SpanRecorder(tmp_path)
    with recorder.span("outer"):
        with recorder.span("inner", rows=3):
            pass
    recorder.flush()
    spans = read_span_files(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["attrs"] == {"rows": 3}


# -- the contract file -------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(layers.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_pipeline_task_list_matches_the_registry():
    from repro.pipeline import task_names

    assert list(layers.PIPELINE_TASKS) == task_names()
