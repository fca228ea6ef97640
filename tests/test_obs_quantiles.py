"""Property tests of the quantile sketch: the documented rank-error
bound, merge commutativity, shard-order invariance, and the fixed-size
collapse — the contracts ``docs/observability.md`` documents and the
serve layer's live percentiles rely on."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.quantiles import (
    DEFAULT_MAX_BINS,
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
)

# Magnitudes span 12 decades — far inside the ~44-decade un-collapsed
# span at the default budget, so the error bound applies everywhere.
_magnitudes = st.floats(min_value=1e-6, max_value=1e6)
_values = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda v: -v))
_samples = st.lists(_values, min_size=1, max_size=200)
_quantile_points = st.floats(min_value=0.0, max_value=1.0)


def _exact(samples: list[float], q: float) -> float:
    """The exact inverse-CDF sample value the sketch's bound refers to."""
    rank = max(0, math.ceil(q * len(samples)) - 1)
    return sorted(samples)[rank]


class TestErrorBound:
    @given(samples=_samples, q=_quantile_points)
    def test_rank_error_bound(self, samples, q):
        sketch = QuantileSketch()
        for value in samples:
            sketch.observe(value)
        exact = _exact(samples, q)
        estimate = sketch.quantile(q)
        bound = sketch.relative_accuracy * abs(exact)
        # Float slop: boundary values may round into the adjacent bucket,
        # where the error is exactly (not strictly below) the bound.
        assert abs(estimate - exact) <= bound * (1.0 + 1e-6) + 1e-12

    @given(samples=_samples)
    def test_extremes_are_exact(self, samples):
        sketch = QuantileSketch()
        for value in samples:
            sketch.observe(value)
        assert sketch.quantile(0.0) == min(samples)
        assert sketch.quantile(1.0) == max(samples)

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            QuantileSketch().quantile(1.5)

    def test_observe_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            QuantileSketch().observe(float("nan"))


class TestMergeInvariance:
    @given(a_samples=_samples, b_samples=_samples)
    def test_merge_is_commutative(self, a_samples, b_samples):
        def build(samples):
            sketch = QuantileSketch()
            for value in samples:
                sketch.observe(value)
            return sketch

        ab = build(a_samples)
        ab.merge(build(b_samples))
        ba = build(b_samples)
        ba.merge(build(a_samples))
        assert ab.to_dict() == ba.to_dict()

    # Cancellation: a plain float sum gave 1.0000076e-06 unsharded and
    # 1.0000003e-06 over two shards.
    @example(samples=[1.0, 65535.000001, -65536.0], shard_count=2)
    @given(
        samples=st.lists(_values, min_size=1, max_size=200),
        shard_count=st.integers(min_value=1, max_value=5),
    )
    def test_sharded_equals_unsharded(self, samples, shard_count):
        unsharded = QuantileSketch()
        for value in samples:
            unsharded.observe(value)
        shards = [QuantileSketch() for _ in range(shard_count)]
        for i, value in enumerate(samples):
            shards[i % shard_count].observe(value)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        # Every field is exactly shard-order-invariant, ``total`` included:
        # it is the correctly rounded exact sum.
        assert merged.to_dict() == unsharded.to_dict()
        assert merged.total == math.fsum(samples)

    def test_merge_rejects_config_mismatch(self):
        with pytest.raises(ValueError, match="config"):
            QuantileSketch(relative_accuracy=0.01).merge(
                QuantileSketch(relative_accuracy=0.02)
            )
        with pytest.raises(ValueError, match="config"):
            QuantileSketch(max_bins=64).merge(QuantileSketch(max_bins=128))


class TestCollapse:
    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_budget_is_respected_and_counts_preserved(self, seed):
        import random

        rng = random.Random(seed)
        sketch = QuantileSketch(max_bins=8)
        samples = [rng.uniform(1e-6, 1e6) for _ in range(500)]
        for value in samples:
            sketch.observe(value)
        assert len(sketch._positive) <= 8
        assert sketch.count == len(samples)
        assert sketch.quantile(1.0) == max(samples)

    def test_collapsed_state_is_order_invariant(self):
        # Far more distinct buckets than the budget: any observation
        # order must land on the same canonical collapsed state.
        values = [10.0**k for k in range(-6, 7)]
        forward = QuantileSketch(max_bins=4)
        backward = QuantileSketch(max_bins=4)
        for value in values:
            forward.observe(value)
        for value in reversed(values):
            backward.observe(value)
        assert forward.to_dict() == backward.to_dict()

    def test_high_quantiles_survive_collapse(self):
        # Collapse folds the low-magnitude tail; the p99 end stays sharp.
        sketch = QuantileSketch(max_bins=16)
        samples = [1.5**k for k in range(200)]
        for value in samples:
            sketch.observe(value)
        exact = _exact(samples, 0.99)
        assert abs(sketch.quantile(0.99) - exact) <= (
            sketch.relative_accuracy * exact * (1.0 + 1e-6)
        )


class TestSerialization:
    # The total alone would round away the 1e-30; the partials keep it.
    @example(samples=[1e30, 1e-30])
    @given(samples=_samples)
    def test_round_trip_is_identity(self, samples):
        sketch = QuantileSketch()
        for value in samples:
            sketch.observe(value)
        payload = json.loads(json.dumps(sketch.to_dict()))
        restored = QuantileSketch.from_dict(payload)
        assert restored == sketch
        assert restored.total == sketch.total == math.fsum(samples)
        assert restored.quantile(0.99) == sketch.quantile(0.99)

    def test_empty_round_trip(self):
        restored = QuantileSketch.from_dict(QuantileSketch().to_dict())
        assert restored.count == 0
        assert restored.quantile(0.5) == 0.0

    def test_defaults(self):
        sketch = QuantileSketch()
        assert sketch.relative_accuracy == DEFAULT_RELATIVE_ACCURACY
        assert sketch.max_bins == DEFAULT_MAX_BINS

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_bins=1)
