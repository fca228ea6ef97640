"""Per-layer metrics of a traced segment, reduced from its spans.

Every timing is normalised per op (one pipeline pass, one fleet pass,
one serve request or round) so traced runs of different lengths
compare.  Self times come from ``repro.obs.summarize_trace`` over a
schema-1 trace file of the timed window, the same reduction that
``ropuf trace summarize --json`` prints.
"""

from __future__ import annotations

from pathlib import Path

from perfbench.tracer import read_span_files

__all__ = [
    "PIPELINE_TASKS",
    "PER_LAYER",
    "self_times",
    "outer_calls",
    "coalescer_wait",
    "reproduce_layers",
    "fleet_layers",
    "serve_layers",
]

#: The 13 registered paper tasks, in summary order.
PIPELINE_TASKS = (
    "table1_nist_case1",
    "table2_nist_case2",
    "nist_raw",
    "fig3_uniqueness",
    "table3_configs_case1",
    "table4_configs_case2",
    "fig4_voltage",
    "fig4_temperature",
    "table5_bits",
    "sec4e_threshold",
    "ablation_distiller",
    "ablation_attacks",
    "ecc_cost",
)

SERVE_VERBS = ("attest", "regen", "challenge", "auth")

#: Every per-layer metric a traced run prints, with its unit.  A
#: workload that never touches a layer reports 0 for it.
PER_LAYER: dict[str, str] = {
    **{f"pipeline.task_s.{task}": "s/pass" for task in PIPELINE_TASKS},
    "pipeline.overhead_s": "s/pass",
    "datasets.build_s": "s",
    "distiller.distill_s": "s/pass",
    "distiller.calls": "count/pass",
    "core.selection_s": "s/pass",
    "core.selection_rows": "count/pass",
    "core.measurement_s": "s/pass",
    "core.batch_s": "s/pass",
    "core.batch_calls": "count/pass",
    "nist.battery_s": "s/pass",
    "nist.battery_calls": "count/pass",
    "metrics_s": "s/pass",
    "datasets.fleet.shard_s": "s/pass",
    "metrics.streaming.update_s": "s/pass",
    "metrics.streaming.merge_s": "s/pass",
    "pipeline.shard_task_s": "s/pass",
    "pipeline.worker_idle_frac": "fraction",
    "pipeline.worker_rss_mb": "MB",
    "serve.frame_read_s": "s/request",
    "serve.admission_s": "s/request",
    **{f"serve.handler_s.{verb}": "s/call" for verb in SERVE_VERBS},
    "serve.coalescer_wait_s": "s/call",
    "serve.batch_kernel_s": "s/call",
    "serve.batch_size_mean": "requests",
    "serve.store_s": "s/request",
    "serve.regen_crypto_s": "s/call",
    "serve.reply_s": "s/request",
    "serve.unattributed_ms": "ms/op",
    "serve.unattributed_share": "fraction",
    "serve.coalescer_calls": "count/op",
    "serve.errors": "count",
    "serve.shed": "count",
    "trace.overhead_frac": "fraction",
}


def window_spans(recorder, start: float, end: float | None = None) -> list:
    """Closed spans, from every process, that began inside the window."""
    recorder.flush()
    return [
        span
        for span in read_span_files(recorder.directory)
        if span["t1"] is not None
        and span["t0"] >= start
        and (end is None or span["t0"] <= end)
    ]


def self_times(spans: list[dict], path: str | Path) -> dict[str, float]:
    """Self seconds per span name, via a schema-1 trace file at ``path``."""
    from repro.obs import summarize_trace, write_trace

    write_trace(path, spans=spans)
    by_name = summarize_trace(path)["by_name"]
    return {name: entry["self_seconds"] for name, entry in by_name.items()}


def outer_calls(spans: list[dict], name: str) -> list[dict]:
    """Spans of ``name`` not nested inside another span of the same name."""
    names = {span["id"]: span["name"] for span in spans}
    return [
        span
        for span in spans
        if span["name"] == name and names.get(span["parent"]) != name
    ]


def _named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def _total(spans: list[dict], name: str) -> float:
    return sum(s["t1"] - s["t0"] for s in _named(spans, name))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _mean_duration(spans: list[dict]) -> float:
    return _mean([s["t1"] - s["t0"] for s in spans])


def coalescer_wait(submits: list[dict], kernels: list[dict]) -> list[float]:
    """Per submit: its duration minus the kernel time of its batch.

    A submit's batch is the last kernel call that ran entirely inside
    the submit's interval (the dispatcher thread runs the kernel, so the
    kernel span is not the submit's child).
    """
    kernels = sorted(kernels, key=lambda k: k["t1"])
    waits = []
    for submit in submits:
        inside = [
            k
            for k in kernels
            if k["t0"] >= submit["t0"] and k["t1"] <= submit["t1"]
        ]
        kernel = inside[-1]["t1"] - inside[-1]["t0"] if inside else 0.0
        waits.append(submit["t1"] - submit["t0"] - kernel)
    return waits


def reproduce_layers(recorder, ops, window_start, outputs, build_s) -> dict:
    passes = len(ops)
    spans = window_spans(recorder, window_start)
    own = self_times(spans, recorder.directory / "trace.jsonl")
    metrics = {"datasets.build_s": build_s}
    overhead = 0.0
    for (started, finished), summary in zip(ops, outputs):
        tasks = summary["_pipeline"]["tasks"]
        for task in tasks:
            key = f"pipeline.task_s.{task['task']}"
            metrics[key] = metrics.get(key, 0.0) + task["wall_seconds"] / passes
        overhead += finished - started - sum(t["wall_seconds"] for t in tasks)
    metrics["pipeline.overhead_s"] = overhead / passes
    for name in ("distiller.distill", "core.selection", "core.measurement",
                 "core.batch", "nist.battery"):
        metrics[f"{name}_s"] = own.get(name, 0.0) / passes
    metrics["metrics_s"] = own.get("metrics", 0.0) / passes
    for name, key in (("distiller.distill", "distiller.calls"),
                      ("core.batch", "core.batch_calls"),
                      ("nist.battery", "nist.battery_calls")):
        metrics[key] = len(outer_calls(spans, name)) / passes
    metrics["core.selection_rows"] = sum(
        s["attrs"].get("rows", 0) for s in outer_calls(spans, "core.selection")
    ) / passes
    return metrics


def fleet_layers(recorder, ops, window_start, jobs) -> dict:
    passes = len(ops)
    wall = sum(finished - started for started, finished in ops)
    spans = window_spans(recorder, window_start)
    own = self_times(spans, recorder.directory / "trace.jsonl")
    busy = _total(spans, "pipeline.shard_task")
    tasks = _named(spans, "pipeline.shard_task")
    return {
        "datasets.fleet.shard_s": own.get("datasets.fleet.shard", 0.0) / passes,
        "metrics.streaming.update_s": own.get("metrics.streaming.update", 0.0)
        / passes,
        "metrics.streaming.merge_s": own.get("metrics.streaming.merge", 0.0)
        / passes,
        # Inclusive: a worker's busy time per pass, shard build included.
        "pipeline.shard_task_s": busy / passes,
        "pipeline.worker_idle_frac": 1.0 - busy / (jobs * wall),
        "pipeline.worker_rss_mb": max(s["attrs"]["rss_mb"] for s in tasks),
    }


def serve_layers(recorder, ops, window_start, before, after, errors, shed):
    end = max(finished for _, finished in ops)
    spans = window_spans(recorder, window_start, end)
    self_times(spans, recorder.directory / "trace.jsonl")  # kept for reading
    handlers = _named(spans, "serve.handler")
    requests = max(len(handlers), 1)
    submits = _named(spans, "serve.coalescer_submit")
    waits = coalescer_wait(submits, _named(spans, "serve.batch_kernel"))
    batched = after["coalescer"]["requests"] - before["coalescer"]["requests"]
    batches = after["coalescer"]["batches"] - before["coalescer"]["batches"]
    op_ms = 1000.0 * sum(f - s for s, f in ops) / len(ops)
    served_ms = 1000.0 * sum(
        _total(spans, name)
        for name in ("serve.admission", "serve.handler", "serve.reply")
    ) / len(ops)
    metrics = {
        "serve.frame_read_s": _total(spans, "serve.frame_read") / requests,
        "serve.admission_s": _total(spans, "serve.admission") / requests,
        "serve.coalescer_wait_s": _mean(waits),
        "serve.batch_kernel_s": _mean_duration(_named(spans, "serve.batch_kernel")),
        "serve.batch_size_mean": batched / batches if batches else 0.0,
        "serve.store_s": _total(spans, "serve.store") / requests,
        "serve.regen_crypto_s": _mean_duration(_named(spans, "serve.regen_crypto")),
        "serve.reply_s": _total(spans, "serve.reply") / requests,
        "serve.unattributed_ms": op_ms - served_ms,
        "serve.unattributed_share": (op_ms - served_ms) / op_ms,
        "serve.coalescer_calls": len(submits) / len(ops),
        "serve.errors": errors,
        "serve.shed": shed,
    }
    for verb in SERVE_VERBS:
        metrics[f"serve.handler_s.{verb}"] = _mean_duration(
            [s for s in handlers if s["attrs"].get("verb") == verb]
        )
    return metrics
