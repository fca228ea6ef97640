"""A mergeable, fixed-size quantile sketch for live percentiles.

The metrics registry's histograms historically kept only
``{count, total, min, max}`` — enough for a mean, useless for a p99.
:class:`QuantileSketch` upgrades them: a log-bucketed sketch in the
DDSketch family that answers any quantile at any moment from a bounded
number of integer counters, merges across processes, and — crucially for
this codebase's determinism guarantees — produces **shard-order-invariant**
state, like the PR 7 streaming metrics.

Design
------

Positive values map to geometric buckets: with relative accuracy ``a``
and ``gamma = (1 + a) / (1 - a)``, value ``v > 0`` lands in bucket
``ceil(log(v) / log(gamma))`` — bucket ``i`` covers ``(gamma^(i-1),
gamma^i]``.  The estimate reported for bucket ``i`` is
``2 * gamma^i / (gamma + 1)``, which is within relative error ``a`` of
*every* value in the bucket.  Negative values use a mirrored bucket map,
and exact zeros get their own counter, so the sketch handles any real
input (latencies only ever exercise the positive side).

**Error bound (documented contract).**  Let ``r = max(0, ceil(q * n) - 1)``
be the inverse-CDF rank of quantile ``q`` over ``n`` observations, and
``x`` the ``r``-th smallest observed value.  Then ``quantile(q)`` returns
an estimate ``e`` with ``|e - x| <= relative_accuracy * |x|`` — a *value*
error bound at the exact rank (rank error is zero: the walk counts exact
integer bucket populations).  The bound holds for every bucket that has
not been collapsed (see below); ``tests/test_obs_quantiles.py`` pins it
property-style with Hypothesis.

**Fixed size.**  Each side keeps at most ``max_bins`` buckets.  On
overflow the two lowest-index buckets merge (the low-magnitude tail —
the *un*interesting end for latency telemetry).  The surviving state is a
pure function of the observed multiset: the kept indices are the top
``max_bins`` distinct indices ever seen, with all lower mass accumulated
into the lowest survivor.  That makes every path to the same multiset —
one stream, many shards, any merge order — land on byte-identical state:

* ``merge(a, b) == merge(b, a)``;
* sharded observation + merge == one unsharded stream, ``total``
  included: the sum is kept as exact ``math.fsum``-style partials and
  ``total`` is their correctly rounded sum, which no order can change.

Both invariants are pinned by Hypothesis property tests.  Inside the
collapsed region the error bound degrades to "somewhere at or below the
lowest kept bucket"; with the default ``max_bins=1024`` and 1% accuracy
the un-collapsed span covers ~44 decades, so collapse never triggers for
realistic latencies.

The sketch serialises to plain JSON (:meth:`to_dict` /
:meth:`from_dict`), which is how it rides inside metrics snapshots from
worker processes back to the parent and out through the exposition
endpoints (:mod:`repro.obs.exporter`).
"""

from __future__ import annotations

import math

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ACCURACY", "DEFAULT_MAX_BINS"]

#: Default relative accuracy: estimates within 1% of the exact value.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Default per-side bucket budget (~44 decades at 1% accuracy).
DEFAULT_MAX_BINS = 1024


class QuantileSketch:
    """Mergeable log-bucket quantile sketch with a relative-error bound.

    Args:
        relative_accuracy: documented value-error bound ``a`` in (0, 1);
            quantile estimates are within ``a * |exact|`` of the exact
            inverse-CDF sample value (un-collapsed buckets).
        max_bins: per-side bucket budget; on overflow the lowest-value
            buckets collapse together, canonically (order-invariant).
    """

    __slots__ = (
        "relative_accuracy",
        "max_bins",
        "_gamma",
        "_log_gamma",
        "_positive",
        "_negative",
        "_zero",
        "count",
        "_partials",
        "min",
        "max",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_bins: int = DEFAULT_MAX_BINS,
    ):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        self.relative_accuracy = relative_accuracy
        self.max_bins = max_bins
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._positive: dict[int, int] = {}
        self._negative: dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self._partials: list[float] = []
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _index(self, magnitude: float) -> int:
        """Bucket index of a positive magnitude."""
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _estimate(self, index: int) -> float:
        """Representative value of bucket ``index`` (positive side)."""
        return 2.0 * self._gamma**index / (self._gamma + 1.0)

    @staticmethod
    def _collapse(bins: dict[int, int], max_bins: int) -> None:
        """Fold the lowest buckets together until within budget.

        Merging the two lowest indices preserves the canonical form —
        "top ``max_bins`` distinct indices, lower mass folded into the
        lowest survivor" — which is what makes observation order and
        merge order invisible in the final state.
        """
        while len(bins) > max_bins:
            lowest, second = sorted(bins)[:2]
            bins[second] += bins.pop(lowest)

    def observe(self, value: float) -> None:
        """Fold one observation into the sketch."""
        value = float(value)
        if value != value:  # NaN: refuse quietly-corrupting input
            raise ValueError("cannot observe NaN")
        if value == 0.0:
            self._zero += 1
        elif value > 0.0:
            index = self._index(value)
            self._positive[index] = self._positive.get(index, 0) + 1
            self._collapse(self._positive, self.max_bins)
        else:
            index = self._index(-value)
            self._negative[index] = self._negative.get(index, 0) + 1
            self._collapse(self._negative, self.max_bins)
        self.count += 1
        self._add_exact(value)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (in place, commutative result).

        Raises:
            ValueError: when the sketches' accuracy/budget configs differ
                (their bucket maps would not line up).
        """
        if (
            other.relative_accuracy != self.relative_accuracy
            or other.max_bins != self.max_bins
        ):
            raise ValueError(
                "cannot merge sketches with different configs: "
                f"({self.relative_accuracy}, {self.max_bins}) vs "
                f"({other.relative_accuracy}, {other.max_bins})"
            )
        for index, n in other._positive.items():
            self._positive[index] = self._positive.get(index, 0) + n
        for index, n in other._negative.items():
            self._negative[index] = self._negative.get(index, 0) + n
        self._collapse(self._positive, self.max_bins)
        self._collapse(self._negative, self.max_bins)
        self._zero += other._zero
        self.count += other.count
        for partial in other._partials:
            self._add_exact(partial)
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def _add_exact(self, value: float) -> None:
        """Add ``value`` to the non-overlapping partials without rounding."""
        partials = self._partials
        kept = 0
        for partial in partials:
            if abs(value) < abs(partial):
                value, partial = partial, value
            high = value + partial
            low = partial - (high - value)
            if low:
                partials[kept] = low
                kept += 1
            value = high
        partials[kept:] = [value]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        """Sum of every observation, correctly rounded and order-free."""
        return math.fsum(self._partials)

    def _canonical_partials(self) -> list[float]:
        """The exact sum as the one expansion that equal sums share:
        repeatedly peel off the correctly rounded remainder."""
        rest = list(self._partials)
        canonical = []
        while (head := math.fsum(rest)) != 0.0:
            canonical.append(head)
            rest.append(-head)
        return canonical

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (inverse-CDF rank; see error bound).

        Returns 0.0 on an empty sketch.  The exact observed ``min`` /
        ``max`` clamp the estimate, so q=0/q=1 are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = max(0, math.ceil(q * self.count) - 1)
        cumulative = 0
        estimate = None
        # Ascending value order: most-negative first (descending index on
        # the mirrored side), then zeros, then positives ascending.
        for index in sorted(self._negative, reverse=True):
            cumulative += self._negative[index]
            if cumulative > rank:
                estimate = -self._estimate(index)
                break
        if estimate is None:
            cumulative += self._zero
            if cumulative > rank:
                estimate = 0.0
        if estimate is None:
            for index in sorted(self._positive):
                cumulative += self._positive[index]
                if cumulative > rank:
                    estimate = self._estimate(index)
                    break
        if estimate is None:  # unreachable unless counters were corrupted
            estimate = self.max
        return min(self.max, max(self.min, estimate))

    def quantiles(
        self, points: tuple[float, ...] = (0.5, 0.9, 0.99)
    ) -> dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` plus exact ``max``."""
        summary = {
            f"p{point * 100.0:g}": self.quantile(point) for point in points
        }
        summary["max"] = self.max if self.count else 0.0
        return summary

    # ------------------------------------------------------------------
    # Serialisation (plain JSON, travels inside metrics snapshots)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The sketch as a plain-JSON document (bucket keys as strings)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "max_bins": self.max_bins,
            "count": self.count,
            "total": self.total,
            "partials": self._canonical_partials(),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero": self._zero,
            "positive": {str(i): n for i, n in sorted(self._positive.items())},
            "negative": {str(i): n for i, n in sorted(self._negative.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuantileSketch":
        """Inverse of :meth:`to_dict`."""
        sketch = cls(
            relative_accuracy=payload["relative_accuracy"],
            max_bins=payload["max_bins"],
        )
        sketch.count = int(payload["count"])
        for partial in payload["partials"]:
            sketch._add_exact(float(partial))
        sketch.min = math.inf if payload["min"] is None else float(payload["min"])
        sketch.max = -math.inf if payload["max"] is None else float(payload["max"])
        sketch._zero = int(payload["zero"])
        sketch._positive = {
            int(i): int(n) for i, n in payload["positive"].items()
        }
        sketch._negative = {
            int(i): int(n) for i, n in payload["negative"].items()
        }
        return sketch

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"QuantileSketch(count={self.count}, "
            f"bins={len(self._positive) + len(self._negative)}, "
            f"accuracy={self.relative_accuracy})"
        )
