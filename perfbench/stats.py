"""Arithmetic shared by the benchmark: percentiles, rates, op counts.

Kept free of numpy and of the ``repro`` package so the unit tests can
pin it on known samples without building anything.
"""

from __future__ import annotations

import math

__all__ = [
    "percentile",
    "median",
    "rate",
    "timed_window",
    "OpCounter",
]


def percentile(samples, point: float) -> float:
    """Linear-interpolation percentile (numpy's default ``linear`` method).

    ``point`` is in [0, 100].  Raises ``ValueError`` on an empty sample,
    so a workload that completed no op cannot report a latency.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= point <= 100.0:
        raise ValueError(f"percentile point must be in [0, 100], got {point}")
    rank = (len(values) - 1) * point / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return values[low] + (values[high] - values[low]) * (rank - low)


def median(samples) -> float:
    return percentile(samples, 50.0)


def rate(count: int, seconds: float) -> float:
    """Completed work per second over a measured window."""
    if seconds <= 0.0:
        raise ValueError(f"rate needs a positive window, got {seconds}")
    return count / seconds


def timed_window(ops: list[tuple[float, float]], window_start: float) -> list:
    """The ops that count: those that started at or after ``window_start``.

    ``ops`` are ``(started, finished)`` stamps.  Warm-up ops run before
    the window opens and are charged to set-up, never to the timed
    metrics.
    """
    return [op for op in ops if op[0] >= window_start]


class OpCounter:
    """Attempted/failed op bookkeeping plus the first few failure notes."""

    def __init__(self, keep: int = 5) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._keep = keep

    def record(self, failure: str | None) -> None:
        """Count one op; ``failure`` is ``None`` for a correct outcome."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.notes) < self._keep:
                self.notes.append(failure)

    def merge(self, other: "OpCounter") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: self._keep - len(self.notes)])
