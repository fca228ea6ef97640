"""Tests of the metrics registry: recording, snapshots, merging, and the
counters the instrumented engines emit."""

import math

import numpy as np
import pytest

from repro import obs
from repro.core.measurement import (
    ENROLL_DRAW_ORDER,
    DelayMeasurer,
    measure_ddiffs_leave_one_out_batch,
)
from repro.core.ring import ConfigurableRO
from repro.core.selection import select_case1
from repro.core.selection_batch import select_case1_batch
from repro.silicon.fabrication import FabricationProcess


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable_metrics()
    obs.reset_metrics()
    yield
    obs.disable_metrics()
    obs.reset_metrics()


class TestRegistry:
    def test_disabled_records_nothing(self):
        obs.counter_add("cache.hits")
        obs.gauge_set("g", 1.0)
        obs.histogram_observe("h", 1.0)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_counter_accumulates(self):
        obs.enable_metrics()
        obs.counter_add("cache.hits")
        obs.counter_add("cache.hits", 2.5)
        assert obs.snapshot()["counters"]["cache.hits"] == 3.5

    def test_gauge_keeps_last_value(self):
        obs.enable_metrics()
        obs.gauge_set("g", 1.0)
        obs.gauge_set("g", 0.25)
        assert obs.snapshot()["gauges"]["g"] == 0.25

    def test_histogram_aggregates(self):
        obs.enable_metrics()
        for value in (4.0, 1.0, 7.0):
            obs.histogram_observe("h", value)
        histogram = obs.snapshot()["histograms"]["h"]
        sketch_state = histogram.pop("sketch")
        assert histogram == {
            "count": 3, "total": 12.0, "min": 1.0, "max": 7.0,
        }
        assert sketch_state["count"] == 3
        assert sketch_state["min"] == 1.0
        assert sketch_state["max"] == 7.0

    def test_histogram_quantiles_live(self):
        obs.enable_metrics()
        for value in range(1, 101):
            obs.histogram_observe("h", float(value))
        quantiles = obs.histogram_quantiles("h")
        assert set(quantiles) == {"p50", "p90", "p99", "max"}
        assert quantiles["p50"] == pytest.approx(50.0, rel=0.02)
        assert quantiles["p99"] == pytest.approx(99.0, rel=0.02)
        assert quantiles["max"] == 100.0
        assert obs.histogram_quantiles("never.observed") is None

    def test_snapshot_is_schema_tagged_and_detached(self):
        obs.enable_metrics()
        obs.counter_add("c")
        snap = obs.snapshot()
        assert snap["schema"] == obs.METRICS_SCHEMA
        snap["counters"]["c"] = 99.0  # mutating a snapshot is safe
        assert obs.snapshot()["counters"]["c"] == 1.0

    @staticmethod
    def _snapshot_for(values_by_histogram):
        """Build a schema-tagged snapshot by recording real observations."""
        obs.reset_metrics()
        obs.enable_metrics()
        for name, values in values_by_histogram.items():
            for value in values:
                obs.histogram_observe(name, value)
        snap = obs.snapshot()
        obs.reset_metrics()
        return snap

    def test_merge_sums_counters_maxes_gauges_combines_histograms(self):
        a = self._snapshot_for({"h": [1.0, 2.0]})
        a["counters"] = {"cache.hits": 2.0, "only.a": 1.0}
        a["gauges"] = {"g": 1.0}
        b = self._snapshot_for({"h": [9.0]})
        b["counters"] = {"cache.hits": 3.0}
        b["gauges"] = {"g": 4.0, "only.b": 0.5}
        merged = obs.merge_snapshots([a, b])
        assert merged["counters"] == {"cache.hits": 5.0, "only.a": 1.0}
        assert merged["gauges"] == {"g": 4.0, "only.b": 0.5}
        histogram = merged["histograms"]["h"]
        sketch_state = histogram.pop("sketch")
        assert histogram == {
            "count": 3, "total": 12.0, "min": 1.0, "max": 9.0,
        }
        assert sketch_state["count"] == 3

    def test_merge_is_shard_order_invariant(self):
        a = self._snapshot_for({"h": [float(v) for v in range(1, 50)]})
        b = self._snapshot_for({"h": [float(v) for v in range(50, 101)]})
        unsharded = self._snapshot_for(
            {"h": [float(v) for v in range(1, 101)]}
        )
        ab = obs.merge_snapshots([a, b])
        ba = obs.merge_snapshots([b, a])
        assert ab == ba
        assert ab["histograms"]["h"]["sketch"] == (
            unsharded["histograms"]["h"]["sketch"]
        )

    def test_merged_histogram_is_independent_of_merge_order(self):
        # mixed signs cancel: a plain float sum of the totals gives
        # 1.00000761e-06 as [a, b, c] but 1.00000034e-06 as [c, a, b]
        a = self._snapshot_for({"h": [1.0]})
        b = self._snapshot_for({"h": [65535.000001]})
        c = self._snapshot_for({"h": [-65536.0]})
        abc = obs.merge_snapshots([a, b, c])["histograms"]["h"]
        cab = obs.merge_snapshots([c, a, b])["histograms"]["h"]
        assert abc == cab
        assert abc["total"] == math.fsum([1.0, 65535.000001, -65536.0])

    def test_merge_does_not_mutate_inputs(self):
        a = self._snapshot_for({"h": [1.0]})
        b = self._snapshot_for({"h": [2.0]})
        import copy

        a_before = copy.deepcopy(a)
        obs.merge_snapshots([a, b])
        assert a == a_before

    def test_merge_rejects_schema_mismatch(self):
        with pytest.raises(ValueError, match="schema"):
            obs.merge_snapshots([{"schema": 99}])


class TestEngineCounters:
    """The instrumented engines emit the documented metric names."""

    def _ring_pair(self):
        chip = FabricationProcess().fabricate(16, np.random.default_rng(5))
        top = ConfigurableRO(chip=chip, unit_indices=np.arange(8))
        bottom = ConfigurableRO(chip=chip, unit_indices=np.arange(8, 16))
        return top, bottom

    def test_scalar_selector_counter(self):
        obs.enable_metrics()
        rng = np.random.default_rng(0)
        select_case1(rng.normal(size=8), rng.normal(size=8))
        counters = obs.snapshot()["counters"]
        # A one-row view counts through the batch selector's counters.
        assert counters["selector.case1.calls"] == 1.0
        assert counters["selector.case1.rows"] == 1.0
        assert "selector.case1.scalar_calls" not in counters

    def test_batch_selector_counters(self):
        obs.enable_metrics()
        rng = np.random.default_rng(0)
        select_case1_batch(rng.normal(size=(6, 8)), rng.normal(size=(6, 8)))
        counters = obs.snapshot()["counters"]
        assert counters["selector.case1.calls"] == 1.0
        assert counters["selector.case1.rows"] == 6.0

    def test_enroll_noise_elements_counter(self):
        obs.enable_metrics()
        top, bottom = self._ring_pair()
        measurer = DelayMeasurer(repeats=3)
        measure_ddiffs_leave_one_out_batch(measurer, [top, bottom])
        counters = obs.snapshot()["counters"]
        # 2 rings x (8 + 1) leave-one-out configs x 3 repeats
        assert counters[f"noise.elements.{ENROLL_DRAW_ORDER}"] == 2 * 9 * 3

    def test_disabled_engines_emit_nothing(self):
        top, bottom = self._ring_pair()
        measure_ddiffs_leave_one_out_batch(DelayMeasurer(), [top, bottom])
        rng = np.random.default_rng(0)
        select_case1(rng.normal(size=8), rng.normal(size=8))
        assert obs.snapshot()["counters"] == {}


class TestThreadSafety:
    """The registry must not lose updates under concurrent recorders.

    The serve layer records counters and latency histograms from many
    connection-handler threads at once (PR 6); an unlocked
    read-modify-write silently drops increments under that load.  These
    hammer tests assert *exact* totals, which only a locked registry can
    guarantee.
    """

    THREADS = 8
    ITERATIONS = 25_000

    def _hammer(self, record):
        import threading

        start = threading.Barrier(self.THREADS)

        def body():
            start.wait()
            for _ in range(self.ITERATIONS):
                record()

        workers = [
            threading.Thread(target=body) for _ in range(self.THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    def test_concurrent_counter_adds_are_exact(self):
        obs.enable_metrics()
        self._hammer(lambda: obs.counter_add("hammer.counter"))
        total = obs.snapshot()["counters"]["hammer.counter"]
        assert total == float(self.THREADS * self.ITERATIONS)

    def test_concurrent_histogram_observes_are_exact(self):
        obs.enable_metrics()
        self._hammer(lambda: obs.histogram_observe("hammer.histogram", 2.0))
        histogram = obs.snapshot()["histograms"]["hammer.histogram"]
        expected = self.THREADS * self.ITERATIONS
        assert histogram["count"] == expected
        assert histogram["total"] == 2.0 * expected
        assert histogram["min"] == 2.0
        assert histogram["max"] == 2.0

    def test_concurrent_mixed_recording_with_snapshots(self):
        # Snapshots racing recorders must stay internally consistent:
        # a histogram's total is always count * value for a constant
        # observed value, even mid-hammer.
        import threading

        obs.enable_metrics()
        stop = threading.Event()
        inconsistencies = []

        def reader():
            while not stop.is_set():
                snap = obs.snapshot()["histograms"].get("hammer.mixed")
                if snap is not None and snap["total"] != 3.0 * snap["count"]:
                    inconsistencies.append(snap)

        observer = threading.Thread(target=reader)
        observer.start()
        try:
            self._hammer(lambda: obs.histogram_observe("hammer.mixed", 3.0))
        finally:
            stop.set()
            observer.join()
        assert not inconsistencies
        histogram = obs.snapshot()["histograms"]["hammer.mixed"]
        assert histogram["count"] == self.THREADS * self.ITERATIONS
