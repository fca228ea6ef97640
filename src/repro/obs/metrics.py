"""Named counters, gauges, and histograms for the hot paths.

A tiny process-local metrics registry in the Prometheus style, recorded by
the instrumented modules and exported as a plain-JSON *snapshot*:

* **counters** — monotonically accumulated totals (cache hits, noise
  elements drawn, selector rows processed, retries);
* **gauges** — last-set values (per-process, merged by max);
* **histograms** — one mergeable quantile sketch per name
  (:class:`~repro.obs.quantiles.QuantileSketch`), so any histogram — the
  serve layer's per-verb latencies, the batch engine's throughput — can
  answer p50/p90/p99 at any moment (:func:`histogram_quantiles`, the
  exposition endpoints of :mod:`repro.obs.exporter`).  Snapshots read the
  ``{count, total, min, max}`` aggregate off the sketch, whose exact
  total makes merged histograms independent of merge order.

Like tracing (:mod:`repro.obs.trace`), metrics are **disabled by
default**; every recording call returns after one module-flag check, so
instrumented hot paths pay effectively nothing when observability is off
(pinned by ``benchmarks/test_bench_obs_overhead.py``).

The registry is **thread-safe**: the serve layer records counters and
latency histograms from many connection-handler threads at once, so every
enabled read-modify-write holds one module lock (the disabled fast path
stays a single flag check and never touches it).  Exact totals under
concurrent recording are pinned by the hammer test in
``tests/test_obs_metrics.py``.

Snapshots merge across processes with :func:`merge_snapshots` — the
pipeline's workers ship their snapshot back inside the task payload and
the parent folds them into the ``"_metrics"`` block of the summary JSON.

Metric names are dot-separated, lowest-cardinality-first
(``cache.hits``, ``noise.elements.sweep-v1``, ``selector.case1.rows``);
the full list lives in ``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from .quantiles import QuantileSketch

__all__ = [
    "METRICS_SCHEMA",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "reset_metrics",
    "counter_add",
    "gauge_set",
    "histogram_observe",
    "histogram_quantiles",
    "timed",
    "snapshot",
    "merge_snapshots",
]

#: Version of the snapshot layout; bumped on incompatible change.
#: Schema 2: histogram entries carry a ``"sketch"`` quantile-sketch state
#: beside the classic ``{count, total, min, max}`` aggregate.
METRICS_SCHEMA = 2

_enabled = False
#: Guards every enabled read-modify-write on the dicts below.  Recording
#: calls check ``_enabled`` *before* acquiring it, so disabled paths pay
#: one flag check and no lock traffic.
_lock = threading.Lock()
_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}
_histograms: dict[str, QuantileSketch] = {}


def metrics_enabled() -> bool:
    """Whether metric recordings are currently accumulated."""
    return _enabled


def enable_metrics() -> None:
    """Start accumulating metrics (existing values are kept)."""
    global _enabled
    _enabled = True


def disable_metrics() -> None:
    """Stop accumulating; the registry stays readable via :func:`snapshot`."""
    global _enabled
    _enabled = False


def reset_metrics() -> None:
    """Clear every counter, gauge, and histogram."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()


def counter_add(name: str, value: float = 1.0) -> None:
    """Add ``value`` to the counter ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    with _lock:
        _counters[name] = _counters.get(name, 0.0) + value


def gauge_set(name: str, value: float) -> None:
    """Set the gauge ``name`` to ``value`` (no-op while disabled)."""
    if not _enabled:
        return
    with _lock:
        _gauges[name] = value


def histogram_observe(name: str, value: float) -> None:
    """Fold ``value`` into the histogram ``name`` (no-op while disabled).

    Every histogram is a :class:`~repro.obs.quantiles.QuantileSketch`, so
    p50/p90/p99 are answerable live (:func:`histogram_quantiles`) and in
    every snapshot.
    """
    if not _enabled:
        return
    with _lock:
        sketch = _histograms.get(name)
        if sketch is None:
            sketch = _histograms[name] = QuantileSketch()
        sketch.observe(value)


def histogram_quantiles(
    name: str, points: tuple[float, ...] = (0.5, 0.9, 0.99)
) -> dict[str, float] | None:
    """Live quantiles of histogram ``name``, or ``None`` if never observed.

    Reads the registry's sketch under the lock, so a racing recorder can
    never produce a half-applied answer.
    """
    with _lock:
        sketch = _histograms.get(name)
        if sketch is None:
            return None
        return sketch.quantiles(points)


@contextmanager
def timed(name: str):
    """Time a block and fold its duration (milliseconds) into a histogram.

    The request-latency histograms of the serve layer
    (``serve.latency_ms.<verb>``) ride this.  Like every recording call it
    is a no-op while metrics are disabled — one flag check, no clock read.
    """
    if not _enabled:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        histogram_observe(name, (time.perf_counter() - started) * 1000.0)


def _histogram_entry(sketch: QuantileSketch) -> dict:
    """A histogram's snapshot entry: the sketch's aggregate plus its state."""
    return {
        "count": sketch.count,
        "total": sketch.total,
        "min": sketch.min,
        "max": sketch.max,
        "sketch": sketch.to_dict(),
    }


def snapshot() -> dict:
    """The registry as a plain-JSON document (deep-copied, sorted keys).

    Taken under the registry lock, so a snapshot racing concurrent
    recorders is internally consistent (no half-applied histogram
    update) and fully detached from the live dicts.
    """
    with _lock:
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(sorted(_counters.items())),
            "gauges": dict(sorted(_gauges.items())),
            "histograms": {
                name: _histogram_entry(sketch)
                for name, sketch in sorted(_histograms.items())
            },
        }


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Fold per-process snapshots into one: counters sum, gauges take the
    max, histograms merge their quantile sketches and re-derive their
    aggregates from the result (shard-order-invariant: any merge order
    yields identical state)."""
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    sketches: dict[str, QuantileSketch] = {}
    for snap in snapshots:
        if snap.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"cannot merge metrics snapshot with schema "
                f"{snap.get('schema')!r} (expected {METRICS_SCHEMA})"
            )
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        for name, incoming in snap.get("histograms", {}).items():
            sketch = QuantileSketch.from_dict(incoming["sketch"])
            if name in sketches:
                sketches[name].merge(sketch)
            else:
                sketches[name] = sketch
    return {
        "schema": METRICS_SCHEMA,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            name: _histogram_entry(sketches[name]) for name in sorted(sketches)
        },
    }
