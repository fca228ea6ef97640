"""Streaming PUF population metrics via sufficient statistics.

The dense metrics (:mod:`repro.metrics.uniqueness` & friends) materialize
all ``m*(m-1)/2`` pairwise Hamming distances — at the fleet scales of
ROADMAP item 2 (10^5-10^6 devices) that vector alone is tens of
gigabytes.  The accumulators here fold bit matrices shard by shard into
small *sufficient statistics* from which the same population moments
follow exactly:

**Uniqueness.**  For an ``(m, b)`` bit matrix with column-ones counts
``c_j`` and the integer Gram matrix ``G = X^T X`` (``G[j, k]`` = rows
with a 1 in both columns), the pairwise-HD moments are::

    sum of HDs       S1 = sum_j c_j * (m - c_j)
    sum of HDs^2     S2 = sum_{j,k} n11*n00 + n10*n01
        with n11 = G[j,k],       n10 = c_j - G[j,k],
             n01 = c_k - G[j,k], n00 = m - c_j - c_k + G[j,k]

(``n11*n00 + n10*n01`` counts the row pairs that mismatch at *both*
columns; on the diagonal it degenerates to ``c_j * (m - c_j)``, the
pairs mismatching at column ``j``).  ``mean = S1/P`` and
``var = S2/P - mean^2`` over ``P = m*(m-1)/2`` pairs.  ``m``, ``c`` and
``G`` are all sums over rows, so shards fold by plain addition — in any
order, with bit-identical results, because every accumulator is an
integer.  State is ``O(b^2)`` (the Gram matrix), *independent of m*.

**Uniformity** needs ``c_j`` plus the row-sum first and second moments;
**reliability** needs four integer totals.  All three expose
``state_dict()/from_state()`` (plain JSON, the Gram matrix as base64
little-endian int64) so pipeline workers can ship shard states to the
parent, and ``merge()`` to fold them.

What streaming *cannot* give: the full HD histogram and the exact
minimum distance (collision detection) are not functions of these
moments — the streaming uniqueness report therefore carries moment
statistics only, where the dense report also has a histogram.

Equality with the dense implementations (exact for the integer counts,
float-tolerance for the derived moments) is pinned by
``tests/test_metrics_streaming.py``.
"""

from __future__ import annotations

import base64
from dataclasses import asdict, dataclass

import numpy as np

from ..backends import current_backend

__all__ = [
    "StreamingUniqueness",
    "StreamingUniquenessReport",
    "StreamingUniformity",
    "StreamingUniformityReport",
    "StreamingReliability",
    "StreamingReliabilityReport",
]


def _as_bit_matrix(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] == 0:
        raise ValueError(
            f"expected a 2-D bit matrix with >= 1 column, got {bits.shape}"
        )
    return bits.astype(bool)


def _encode_int64(matrix: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(matrix, dtype="<i8").tobytes()
    ).decode("ascii")


def _decode_int64(text: str, shape: tuple[int, ...]) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(text), dtype="<i8")
    return flat.reshape(shape).astype(np.int64)


# ----------------------------------------------------------------------
# Uniqueness
# ----------------------------------------------------------------------


@dataclass
class StreamingUniquenessReport:
    """Pairwise-HD moments of a device population (streamed).

    The integer fields (``total_distance``, ``total_squared_distance``,
    ``pair_count``) are exact; the floats derive from them.

    Attributes:
        bit_count: response length.
        stream_count: devices folded in.
        pair_count: ``stream_count * (stream_count - 1) / 2``.
        total_distance: exact sum of all pairwise HDs (bits).
        total_squared_distance: exact sum of squared pairwise HDs.
        mean_distance / std_distance: pairwise-HD moments in bits.
        uniqueness_percent: ``100 * mean / bits`` (ideal 50%).
    """

    bit_count: int
    stream_count: int
    pair_count: int
    total_distance: int
    total_squared_distance: int
    mean_distance: float
    std_distance: float
    uniqueness_percent: float

    def to_dict(self) -> dict:
        return asdict(self)


class StreamingUniqueness:
    """Folds bit-matrix shards into pairwise-HD sufficient statistics."""

    def __init__(self, bit_count: int):
        if bit_count < 1:
            raise ValueError(f"bit_count must be >= 1, got {bit_count}")
        self.bit_count = bit_count
        self.rows = 0
        self.column_ones = np.zeros(bit_count, dtype=np.int64)
        self.gram = np.zeros((bit_count, bit_count), dtype=np.int64)

    def update(self, bits: np.ndarray) -> None:
        """Fold one ``(devices, bit_count)`` shard in."""
        bits = _as_bit_matrix(bits)
        if bits.shape[1] != self.bit_count:
            raise ValueError(
                f"shard has {bits.shape[1]} bits, accumulator expects "
                f"{self.bit_count}"
            )
        x = bits.astype(np.int64)
        self.rows += bits.shape[0]
        self.column_ones += x.sum(axis=0)
        current_backend().gram_update(self.gram, x)

    def merge(self, other: "StreamingUniqueness") -> None:
        """Fold another accumulator in (commutative, exact)."""
        if other.bit_count != self.bit_count:
            raise ValueError(
                f"cannot merge accumulators over {other.bit_count} and "
                f"{self.bit_count} bits"
            )
        self.rows += other.rows
        self.column_ones += other.column_ones
        self.gram += other.gram

    def state_dict(self) -> dict:
        return {
            "kind": "uniqueness",
            "bit_count": self.bit_count,
            "rows": self.rows,
            "column_ones": [int(c) for c in self.column_ones],
            "gram_b64": _encode_int64(self.gram),
        }

    @classmethod
    def from_state(cls, doc: dict) -> "StreamingUniqueness":
        acc = cls(int(doc["bit_count"]))
        acc.rows = int(doc["rows"])
        acc.column_ones = np.asarray(doc["column_ones"], dtype=np.int64)
        acc.gram = _decode_int64(
            doc["gram_b64"], (acc.bit_count, acc.bit_count)
        )
        return acc

    def report(self) -> StreamingUniquenessReport:
        if self.rows < 2:
            raise ValueError(
                f"uniqueness needs >= 2 devices, have {self.rows}"
            )
        m = self.rows
        c = self.column_ones
        pair_count = m * (m - 1) // 2
        total = int(np.sum(c * (m - c)))
        n11 = self.gram
        n10 = c[:, None] - n11
        n01 = c[None, :] - n11
        n00 = m - c[:, None] - c[None, :] + n11
        total_squared = int(np.sum(n11 * n00 + n10 * n01))
        mean = total / pair_count
        # Integer numerator: P*S2 - S1^2 is exact, so E[x^2] - E[x]^2
        # never suffers catastrophic cancellation (identical devices
        # give std == 0.0 exactly, matching the dense metric).
        variance = max(
            pair_count * total_squared - total * total, 0
        ) / (pair_count * pair_count)
        return StreamingUniquenessReport(
            bit_count=self.bit_count,
            stream_count=m,
            pair_count=pair_count,
            total_distance=total,
            total_squared_distance=total_squared,
            mean_distance=mean,
            std_distance=float(np.sqrt(variance)),
            uniqueness_percent=100.0 * mean / self.bit_count,
        )


# ----------------------------------------------------------------------
# Uniformity
# ----------------------------------------------------------------------


@dataclass
class StreamingUniformityReport:
    """Uniformity / bit-aliasing moments of a device population.

    Matches :class:`repro.metrics.uniformity.UniformityReport` field for
    field, plus the population size.
    """

    stream_count: int
    bit_count: int
    mean_uniformity_percent: float
    std_uniformity_percent: float
    mean_aliasing_percent: float
    worst_aliasing_percent: float

    def to_dict(self) -> dict:
        return asdict(self)


class StreamingUniformity:
    """Row-sum moments + column counts: uniformity and aliasing."""

    def __init__(self, bit_count: int):
        if bit_count < 1:
            raise ValueError(f"bit_count must be >= 1, got {bit_count}")
        self.bit_count = bit_count
        self.rows = 0
        self.column_ones = np.zeros(bit_count, dtype=np.int64)
        self.row_ones_total = 0
        self.row_ones_sq_total = 0

    def update(self, bits: np.ndarray) -> None:
        bits = _as_bit_matrix(bits)
        if bits.shape[1] != self.bit_count:
            raise ValueError(
                f"shard has {bits.shape[1]} bits, accumulator expects "
                f"{self.bit_count}"
            )
        x = bits.astype(np.int64)
        row_ones = x.sum(axis=1)
        self.rows += bits.shape[0]
        self.column_ones += x.sum(axis=0)
        self.row_ones_total += int(row_ones.sum())
        self.row_ones_sq_total += int(np.sum(row_ones * row_ones))

    def merge(self, other: "StreamingUniformity") -> None:
        if other.bit_count != self.bit_count:
            raise ValueError(
                f"cannot merge accumulators over {other.bit_count} and "
                f"{self.bit_count} bits"
            )
        self.rows += other.rows
        self.column_ones += other.column_ones
        self.row_ones_total += other.row_ones_total
        self.row_ones_sq_total += other.row_ones_sq_total

    def state_dict(self) -> dict:
        return {
            "kind": "uniformity",
            "bit_count": self.bit_count,
            "rows": self.rows,
            "column_ones": [int(c) for c in self.column_ones],
            "row_ones_total": self.row_ones_total,
            "row_ones_sq_total": self.row_ones_sq_total,
        }

    @classmethod
    def from_state(cls, doc: dict) -> "StreamingUniformity":
        acc = cls(int(doc["bit_count"]))
        acc.rows = int(doc["rows"])
        acc.column_ones = np.asarray(doc["column_ones"], dtype=np.int64)
        acc.row_ones_total = int(doc["row_ones_total"])
        acc.row_ones_sq_total = int(doc["row_ones_sq_total"])
        return acc

    def report(self) -> StreamingUniformityReport:
        if self.rows < 1:
            raise ValueError("uniformity needs >= 1 device")
        m, b = self.rows, self.bit_count
        mean_u = self.row_ones_total / (m * b)
        # Exact integer numerator (see the uniqueness report): identical
        # rows give a spread of exactly 0.0, never a cancellation residue.
        var_u = max(
            m * self.row_ones_sq_total - self.row_ones_total**2, 0
        ) / (m * m * b * b)
        aliasing = 100.0 * self.column_ones / m
        worst = int(np.argmax(np.abs(aliasing - 50.0)))
        return StreamingUniformityReport(
            stream_count=m,
            bit_count=b,
            mean_uniformity_percent=100.0 * mean_u,
            std_uniformity_percent=100.0 * float(np.sqrt(var_u)),
            mean_aliasing_percent=float(np.mean(aliasing)),
            worst_aliasing_percent=float(aliasing[worst]),
        )


# ----------------------------------------------------------------------
# Reliability
# ----------------------------------------------------------------------


@dataclass
class StreamingReliabilityReport:
    """Population bit-flip statistics (paper Sec. IV.D, averaged).

    ``mean_flip_percent`` averages the dense per-device
    ``flip_percent`` (positions that flip at least once across the
    regenerated responses) over all devices; ``mean_intra_hd_percent``
    averages the per-observation HD to the reference over every
    (device, observation) pair.  The integer totals are exact.
    """

    device_count: int
    bit_count: int
    observation_count: int
    total_flipped_positions: int
    total_intra_hd: int
    mean_flip_percent: float
    mean_intra_hd_percent: float

    def to_dict(self) -> dict:
        return asdict(self)


class StreamingReliability:
    """Folds (reference, regenerated responses) shards into flip totals."""

    def __init__(self, bit_count: int):
        if bit_count < 1:
            raise ValueError(f"bit_count must be >= 1, got {bit_count}")
        self.bit_count = bit_count
        self.devices = 0
        self.total_flipped = 0
        self.total_hd = 0
        self.total_observations = 0

    def update(
        self, reference: np.ndarray, observations: np.ndarray
    ) -> None:
        """Fold one shard: reference ``(m, b)``, observations ``(n, m, b)``.

        ``observations`` holds the same shard's responses regenerated at
        ``n`` other corners; a device's flipped positions are the bits
        differing from its reference in *any* of them — so each shard
        must arrive with all its corners at once (devices partition
        across shards, corners do not).
        """
        reference = _as_bit_matrix(reference)
        observations = np.asarray(observations).astype(bool)
        if observations.ndim == 2:
            observations = observations[None, :, :]
        if observations.ndim != 3 or observations.shape[1:] != reference.shape:
            raise ValueError(
                f"observations shape {observations.shape} does not stack "
                f"over reference shape {reference.shape}"
            )
        if reference.shape[1] != self.bit_count:
            raise ValueError(
                f"shard has {reference.shape[1]} bits, accumulator "
                f"expects {self.bit_count}"
            )
        differs = observations ^ reference[None, :, :]
        self.devices += reference.shape[0]
        self.total_flipped += int(np.count_nonzero(np.any(differs, axis=0)))
        self.total_hd += int(np.count_nonzero(differs))
        self.total_observations += (
            observations.shape[0] * reference.shape[0]
        )

    def merge(self, other: "StreamingReliability") -> None:
        if other.bit_count != self.bit_count:
            raise ValueError(
                f"cannot merge accumulators over {other.bit_count} and "
                f"{self.bit_count} bits"
            )
        self.devices += other.devices
        self.total_flipped += other.total_flipped
        self.total_hd += other.total_hd
        self.total_observations += other.total_observations

    def state_dict(self) -> dict:
        return {
            "kind": "reliability",
            "bit_count": self.bit_count,
            "devices": self.devices,
            "total_flipped": self.total_flipped,
            "total_hd": self.total_hd,
            "total_observations": self.total_observations,
        }

    @classmethod
    def from_state(cls, doc: dict) -> "StreamingReliability":
        acc = cls(int(doc["bit_count"]))
        acc.devices = int(doc["devices"])
        acc.total_flipped = int(doc["total_flipped"])
        acc.total_hd = int(doc["total_hd"])
        acc.total_observations = int(doc["total_observations"])
        return acc

    def report(self) -> StreamingReliabilityReport:
        if self.devices < 1:
            raise ValueError("reliability needs >= 1 device")
        flip = 100.0 * self.total_flipped / (self.devices * self.bit_count)
        if self.total_observations:
            intra = 100.0 * self.total_hd / (
                self.total_observations * self.bit_count
            )
        else:
            intra = 0.0
        return StreamingReliabilityReport(
            device_count=self.devices,
            bit_count=self.bit_count,
            observation_count=self.total_observations,
            total_flipped_positions=self.total_flipped,
            total_intra_hd=self.total_hd,
            mean_flip_percent=flip,
            mean_intra_hd_percent=intra,
        )
