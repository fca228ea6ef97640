"""Per-layer timing from outside the program.

The benchmark never edits ``src/``.  Instead, in a traced run it wraps
the public functions of each layer with a span recorder before the
workload starts.  A wrapper replaces the original object wherever a
caller looks it up: in the defining module, in every ``repro`` module
that did ``from x import f`` (which holds its own reference), in
module-level dispatch tables such as ``BATCH_SELECTION_METHODS``, and on
the class for methods.

Span records use the schema-1 layout of :mod:`repro.obs.trace`, so the
merged file reads back with ``repro.obs.read_trace`` and
``ropuf trace summarize --json`` computes each layer's self time.

Process model: every process buffers its own spans and appends them to
``spans-<pid>.jsonl`` in the trace directory.  Forked pipeline workers
exit without running the parent's clean-up, so the shard-task wrapper
flushes after every shard; the recorder drops a forked child's copy of
the parent's buffer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import resource
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "SpanRecorder",
    "install",
    "import_all_repro_modules",
    "read_span_files",
    "REPRODUCE_LAYERS",
    "FLEET_LAYERS",
    "SERVE_LAYERS",
]


class SpanRecorder:
    """Buffers schema-1 span records and appends them to a per-pid file."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._buffer: list[dict] = []
        self._local = threading.local()
        self._flushed_at = time.perf_counter()

    def open(self, name: str, attrs: dict) -> dict:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "type": "span",
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "pid": self.pid,
            "t0": time.perf_counter(),
            "t1": None,
            "wall0": time.time(),
            "attrs": attrs,
        }
        stack.append(record)
        return record

    def close(self, record: dict) -> None:
        record["t1"] = time.perf_counter()
        stack = self._local.stack
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self._buffer.append(record)
        # A long-lived process (the server) writes its spans out about
        # once a second instead of holding them all until exit.
        if record["parent"] is None and record["t1"] - self._flushed_at > 1.0:
            self.flush()

    @contextmanager
    def span(self, name: str, **attrs):
        record = self.open(name, attrs)
        try:
            yield record
        finally:
            self.close(record)

    def flush(self) -> None:
        """Append every buffered span to this process's file."""
        # Held across the write, so two threads never interleave lines.
        with self._lock:
            spans, self._buffer = self._buffer, []
            self._flushed_at = time.perf_counter()
            if not spans:
                return
            path = self.directory / f"spans-{self.pid}.jsonl"
            with open(path, "a") as handle:
                handle.write("".join(json.dumps(s) + "\n" for s in spans))


def read_span_files(directory: str | Path) -> list[dict]:
    """Every span any process of the run flushed into ``directory``."""
    spans: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so each ``from x import f`` copy
    exists before the wrappers are installed (experiment modules are
    otherwise imported lazily inside the pipeline tasks)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _rows(args, kwargs) -> dict:
    first = args[0] if args else None
    shape = getattr(first, "shape", None)
    return {"rows": int(shape[0])} if shape else {}


def _verb(args, kwargs) -> dict:
    request = args[1] if len(args) > 1 else kwargs.get("request", {})
    return {"verb": str(request.get("op"))}


def _shard_done(recorder: SpanRecorder, record: dict) -> None:
    """A shard task is a worker's whole unit of work: note the worker's
    peak RSS and flush, because the worker may exit before any later
    flush point."""
    record["attrs"]["rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    recorder.flush()


#: (target, span name, attrs-from-args, hook after close).  A target is
#: ``module:function`` or ``module:Class.method``.
REPRODUCE_LAYERS = [
    ("repro.distiller.regression:PolynomialDistiller.distill", "distiller.distill"),
    ("repro.distiller.regression:MeanDistiller.distill", "distiller.distill"),
    ("repro.core.selection_batch:select_case1_batch", "core.selection", _rows),
    ("repro.core.selection_batch:select_case2_batch", "core.selection", _rows),
    ("repro.core.selection_batch:select_traditional_batch", "core.selection", _rows),
    ("repro.core.measurement:measure_ddiffs_leave_one_out", "core.measurement"),
    ("repro.core.measurement:measure_ddiffs_leave_one_out_batch", "core.measurement"),
    ("repro.core.measurement:measure_ddiffs_least_squares", "core.measurement"),
    ("repro.core.measurement:measure_ddiffs_overdetermined", "core.measurement"),
    ("repro.core.measurement:DelayMeasurer.chain_delays", "core.measurement"),
    ("repro.core.measurement:DelayMeasurer.chain_delays_robust", "core.measurement"),
    ("repro.core.batch:BatchEvaluator.response", "core.batch"),
    ("repro.core.batch:BatchEvaluator.response_voted", "core.batch"),
    ("repro.core.batch:BatchEvaluator.response_sweep", "core.batch"),
    ("repro.core.batch:BatchEvaluator.response_voted_sweep", "core.batch"),
    ("repro.core.batch:BatchEvaluator.sweep_delays", "core.batch"),
    ("repro.nist.suite:run_battery", "nist.battery"),
    ("repro.metrics.hamming:pairwise_hamming_distances", "metrics"),
    ("repro.metrics.hamming:hamming_distance_histogram", "metrics"),
    ("repro.metrics.reliability:bit_flip_report", "metrics"),
    ("repro.metrics.uniformity:uniformity_report", "metrics"),
    ("repro.metrics.uniqueness:uniqueness_report", "metrics"),
    ("repro.metrics.entropy:response_entropy_report", "metrics"),
    ("repro.metrics.autocorrelation:autocorrelation_report", "metrics"),
]

FLEET_LAYERS = [
    ("repro.datasets.fleet:load_or_generate_shard", "datasets.fleet.shard"),
    ("repro.metrics.streaming:StreamingUniqueness.update", "metrics.streaming.update"),
    ("repro.metrics.streaming:StreamingUniformity.update", "metrics.streaming.update"),
    ("repro.metrics.streaming:StreamingReliability.update", "metrics.streaming.update"),
    ("repro.metrics.streaming:StreamingUniqueness.merge", "metrics.streaming.merge"),
    ("repro.metrics.streaming:StreamingUniformity.merge", "metrics.streaming.merge"),
    ("repro.metrics.streaming:StreamingReliability.merge", "metrics.streaming.merge"),
    (
        "repro.pipeline.fleet:compute_shard_stats",
        "pipeline.shard_task",
        None,
        _shard_done,
    ),
]

SERVE_LAYERS = [
    ("repro.serve.protocol:read_frame", "serve.frame_read"),
    ("repro.serve.admission:AdmissionGate.try_admit", "serve.admission"),
    ("repro.serve.service:AuthService.handle", "serve.handler", _verb),
    ("repro.serve.coalescer:RequestCoalescer.submit", "serve.coalescer_submit"),
    ("repro.core.batch:coalesce_responses", "serve.batch_kernel"),
    ("repro.serve.store:CRPStore.get", "serve.store"),
    ("repro.crypto.fuzzy_extractor:FuzzyExtractor.reproduce", "serve.regen_crypto"),
    ("repro.serve.protocol:write_frame", "serve.reply"),
]


def _wrap(func, recorder: SpanRecorder, name: str, attrs_of, after):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        record = recorder.open(name, attrs_of(args, kwargs) if attrs_of else {})
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(record)
            if after is not None:
                after(recorder, record)

    return wrapper


def install(layers, recorder: SpanRecorder) -> None:
    """Wrap every target in ``layers``; a target no caller references
    is an error, so a renamed layer function cannot go unmeasured."""
    for entry in layers:
        target, name, attrs_of, after = (tuple(entry) + (None, None))[:4]
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(original, recorder, name, attrs_of, after))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(original, recorder, name, attrs_of, after)
        if _replace_everywhere(original, wrapper) == 0:
            raise RuntimeError(f"no reference to {target} found")


def _replace_everywhere(original, wrapper) -> int:
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
                count += 1
            elif isinstance(value, dict) and not key.startswith("__"):
                for table_key, entry in list(value.items()):
                    if entry is original:
                        value[table_key] = wrapper
                        count += 1
    return count
