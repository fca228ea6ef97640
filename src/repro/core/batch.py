"""Vectorized batch response engine: the hot path behind the Fig. 4/5 sweeps.

``BoardROPUF.response`` historically re-walked a per-pair Python loop for
every operating point — two fancy-indexed ``np.sum`` calls per pair — and the
reliability experiments (Sec. IV.D) stacked those calls once per test
corner.  This module compiles an :class:`~repro.core.puf.Enrollment` into
dense ``(pair_count, stage_count)`` boolean selection-mask matrices *once*,
then evaluates every response bit as a masked row-sum (``einsum``), so a
whole operating-point sweep costs a handful of array operations instead of
``pairs x corners`` Python iterations.

Equivalence and draw-order contract
-----------------------------------

* :meth:`BatchEvaluator.response` and :meth:`BatchEvaluator.response_voted`
  make exactly the noise ``observe`` calls of the historical loop path —
  top delays ``(pair_count,)`` then bottom delays, once per evaluation — so
  seeded runs remain byte-identical with the pre-batch releases.  The
  ``BoardROPUF`` per-call API is now a thin wrapper over these methods.
* The sweep APIs (:meth:`BatchEvaluator.response_sweep`,
  :meth:`BatchEvaluator.response_voted_sweep`) draw **one noise tensor per
  sweep shape**: top ``(op_count, pair_count)`` then bottom (with a leading
  ``votes`` axis for voting).  That is an explicitly versioned draw order —
  :data:`SWEEP_DRAW_ORDER` — and intentionally differs from looping the
  single-op API, which would interleave top/bottom draws per corner.
* With :class:`~repro.variation.noise.NoiselessMeasurement` (the
  experiments' configuration) no randomness is involved and sweep rows equal
  the single-op responses exactly.

``response_loop_reference`` preserves the original per-pair loop verbatim;
the equivalence tests and the ``test_bench_batch_engine`` micro-benchmark
pin the vectorized engine against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..backends import current_backend
from ..variation.environment import OperatingPoint
from ..variation.noise import MeasurementNoise, NoiselessMeasurement
from .pairing import RingAllocation

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .puf import BoardROPUF, ChipROPUF, Enrollment

__all__ = [
    "SWEEP_DRAW_ORDER",
    "CompiledEnrollment",
    "BatchEvaluator",
    "PairDelayRequest",
    "compile_enrollment",
    "coalesce_pair_delays",
    "coalesce_responses",
    "response_loop_reference",
    "enroll_loop_reference",
    "chip_enroll_loop_reference",
]

#: Version tag of the sweep APIs' noise draw order (see module docstring).
SWEEP_DRAW_ORDER = "sweep-v1"


@dataclass
class CompiledEnrollment:
    """An :class:`Enrollment` lowered to dense selection-mask matrices.

    Attributes:
        stage_count: units per ring (mask row width).
        top_rings: ring index of each pair's top ring, shape ``(pair_count,)``.
        bottom_rings: ring index of each pair's bottom ring.
        top_masks: float 0/1 matrix ``(pair_count, stage_count)``; row ``p``
            is pair ``p``'s top configuration vector.
        bottom_masks: same for the bottom configurations.
        reference_bits: the enrollment's reference response bits.
    """

    stage_count: int
    top_rings: np.ndarray
    bottom_rings: np.ndarray
    top_masks: np.ndarray
    bottom_masks: np.ndarray
    reference_bits: np.ndarray

    @property
    def pair_count(self) -> int:
        """Number of RO pairs (= response bits) in the compiled enrollment."""
        return len(self.top_rings)


def compile_enrollment(
    enrollment: "Enrollment", allocation: RingAllocation
) -> CompiledEnrollment:
    """Lower an enrollment's per-pair selections into dense mask matrices.

    Raises:
        ValueError: when the enrollment does not fit the allocation (pair
            count or stage count mismatch).
    """
    selections = enrollment.selections
    if len(selections) != allocation.pair_count:
        raise ValueError(
            f"enrollment has {len(selections)} pairs but the allocation "
            f"provides {allocation.pair_count}"
        )
    for pair, selection in enumerate(selections):
        if len(selection.top_config) != allocation.stage_count:
            raise ValueError(
                f"pair {pair} configures {len(selection.top_config)} stages "
                f"but the allocation's rings have {allocation.stage_count}"
            )
    ring_pairs = allocation.pair_ring_matrix()
    top_masks = np.stack(
        [selection.top_config.as_array() for selection in selections]
    ).astype(float)
    bottom_masks = np.stack(
        [selection.bottom_config.as_array() for selection in selections]
    ).astype(float)
    return CompiledEnrollment(
        stage_count=allocation.stage_count,
        top_rings=ring_pairs[:, 0],
        bottom_rings=ring_pairs[:, 1],
        top_masks=top_masks,
        bottom_masks=bottom_masks,
        reference_bits=np.asarray(enrollment.bits, dtype=bool).copy(),
    )


@dataclass
class BatchEvaluator:
    """Vectorized response generation for one (PUF, enrollment) binding.

    Build one via :meth:`BoardROPUF.batch` (or :meth:`from_puf`), then call
    the single-op methods for byte-identical drop-in evaluation or the sweep
    methods to evaluate many operating points (and vote rounds) in one pass.

    Attributes:
        delay_provider: maps an operating point to per-unit delays.
        allocation: the PUF's ring carve-up.
        compiled: dense selection masks (shared, cached on the enrollment).
        response_noise: noise model applied to ring-delay sums.
        rng: generator driving the response noise.
    """

    delay_provider: Callable[[OperatingPoint], np.ndarray]
    allocation: RingAllocation
    compiled: CompiledEnrollment
    response_noise: MeasurementNoise = field(default_factory=NoiselessMeasurement)
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    @classmethod
    def from_puf(cls, puf: "BoardROPUF", enrollment: "Enrollment") -> "BatchEvaluator":
        """Bind a board PUF and one of its enrollments (masks cached)."""
        return cls(
            delay_provider=puf.delay_provider,
            allocation=puf.allocation,
            compiled=enrollment.compiled(puf.allocation),
            response_noise=puf.response_noise,
            rng=puf.rng,
        )

    @property
    def bit_count(self) -> int:
        """Response bits per evaluation (one per ring pair)."""
        return self.compiled.pair_count

    # ------------------------------------------------------------------
    # Delay evaluation
    # ------------------------------------------------------------------

    def _ring_delays(self, op: OperatingPoint) -> np.ndarray:
        unit_delays = np.asarray(self.delay_provider(op), dtype=float)
        return self.allocation.ring_delay_matrix(unit_delays)

    def pair_delays(self, op: OperatingPoint) -> tuple[np.ndarray, np.ndarray]:
        """(top, bottom) configured-ring delay sums, each ``(pair_count,)``."""
        rings = self._ring_delays(op)
        compiled = self.compiled
        backend = current_backend()
        top = backend.pair_delay_sums(rings[compiled.top_rings], compiled.top_masks)
        bottom = backend.pair_delay_sums(
            rings[compiled.bottom_rings], compiled.bottom_masks
        )
        return top, bottom

    def delay_request(self, op: OperatingPoint) -> "PairDelayRequest":
        """Gather this evaluator's delay rows for one coalescable evaluation.

        The returned request carries the fancy-indexed ring-delay rows and
        the selection masks; :func:`coalesce_pair_delays` concatenates many
        such requests (from *different* evaluators — a whole device fleet)
        and reduces them with one ``einsum`` per stage width, so a batch of
        concurrent authentications costs two array reductions instead of
        two per request.

        Raises whatever the evaluator's ``delay_provider`` raises for an
        unmeasured operating point (``KeyError`` for dataset boards), so
        callers can fail one request without poisoning a batch.
        """
        rings = self._ring_delays(op)
        compiled = self.compiled
        return PairDelayRequest(
            top_rows=rings[compiled.top_rings],
            bottom_rows=rings[compiled.bottom_rings],
            top_masks=compiled.top_masks,
            bottom_masks=compiled.bottom_masks,
        )

    def sweep_delays(
        self, ops: Sequence[OperatingPoint] | Iterable[OperatingPoint]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(top, bottom) delay sums over a sweep, each ``(op_count, pair_count)``."""
        ops = list(ops)
        if not ops:
            raise ValueError("no operating points supplied")
        stacked = np.stack([self._ring_delays(op) for op in ops])
        compiled = self.compiled
        return current_backend().sweep_pair_delay_sums(
            stacked,
            compiled.top_rings,
            compiled.bottom_rings,
            compiled.top_masks,
            compiled.bottom_masks,
        )

    # ------------------------------------------------------------------
    # Response generation
    # ------------------------------------------------------------------

    def response(
        self, op: OperatingPoint, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """One response evaluation; draw order matches the historical loop."""
        rng = self.rng if rng is None else rng
        top, bottom = self.pair_delays(op)
        top_observed = self.response_noise.observe(top, rng)
        bottom_observed = self.response_noise.observe(bottom, rng)
        obs.counter_add("noise.elements.legacy", top.size + bottom.size)
        obs.counter_add("batch.bits_evaluated", top.size)
        return top_observed > bottom_observed

    def response_voted(
        self,
        op: OperatingPoint,
        votes: int = 9,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Majority vote; per-vote interleaved draws match the legacy loop."""
        _validate_votes(votes)
        rng = self.rng if rng is None else rng
        top, bottom = self.pair_delays(op)
        totals = np.zeros(self.bit_count, dtype=int)
        for _ in range(votes):
            top_observed = self.response_noise.observe(top, rng)
            bottom_observed = self.response_noise.observe(bottom, rng)
            totals += (top_observed > bottom_observed).astype(int)
        obs.counter_add("noise.elements.legacy", votes * (top.size + bottom.size))
        obs.counter_add("batch.bits_evaluated", top.size)
        return totals * 2 > votes

    def response_sweep(
        self,
        ops: Sequence[OperatingPoint],
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Responses at many operating points, shape ``(op_count, pair_count)``.

        One noise tensor is drawn per sweep shape (top then bottom; see
        :data:`SWEEP_DRAW_ORDER`), so the whole sweep costs two ``observe``
        calls regardless of the corner count.
        """
        rng = self.rng if rng is None else rng
        ops = list(ops)
        with obs.span("batch.response_sweep", op_count=len(ops)):
            timed = obs.metrics_enabled()
            started = time.perf_counter() if timed else 0.0
            top, bottom = self.sweep_delays(ops)
            top_observed = self.response_noise.observe(top, rng)
            bottom_observed = self.response_noise.observe(bottom, rng)
            bits = top_observed > bottom_observed
            if timed:
                self._record_sweep_metrics(top.size + bottom.size, bits.size, started)
            return bits

    def response_voted_sweep(
        self,
        ops: Sequence[OperatingPoint],
        votes: int = 9,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Majority-voted responses over a sweep, shape ``(op_count, pair_count)``.

        All vote rounds for all corners draw from one
        ``(votes, op_count, pair_count)`` noise tensor (top then bottom).
        """
        _validate_votes(votes)
        rng = self.rng if rng is None else rng
        ops = list(ops)
        with obs.span("batch.response_voted_sweep", op_count=len(ops), votes=votes):
            timed = obs.metrics_enabled()
            started = time.perf_counter() if timed else 0.0
            top, bottom = self.sweep_delays(ops)
            shape = (votes,) + top.shape
            top_observed = self.response_noise.observe(np.broadcast_to(top, shape), rng)
            bottom_observed = self.response_noise.observe(
                np.broadcast_to(bottom, shape), rng
            )
            totals = (top_observed > bottom_observed).sum(axis=0)
            bits = totals * 2 > votes
            if timed:
                self._record_sweep_metrics(2 * votes * top.size, bits.size, started)
            return bits

    def _record_sweep_metrics(
        self, noise_elements: int, bits: int, started: float
    ) -> None:
        """Fold one sweep's draw volume and throughput into the registry."""
        elapsed = time.perf_counter() - started
        obs.counter_add(f"noise.elements.{SWEEP_DRAW_ORDER}", noise_elements)
        obs.counter_add("batch.bits_evaluated", bits)
        if elapsed > 0.0:
            obs.histogram_observe("batch.bits_per_second", bits / elapsed)


def _validate_votes(votes: int) -> None:
    if votes < 1 or votes % 2 == 0:
        raise ValueError(f"votes must be odd and positive, got {votes}")


# ----------------------------------------------------------------------
# Fleet coalescing: many (evaluator, op) evaluations, one einsum
# ----------------------------------------------------------------------


@dataclass
class PairDelayRequest:
    """One evaluation's delay rows and masks, ready for fleet coalescing.

    Produced by :meth:`BatchEvaluator.delay_request`; consumed (possibly
    concatenated with requests from *other* devices) by
    :func:`coalesce_pair_delays`.

    Attributes:
        top_rows / bottom_rows: ``(pair_count, stage_count)`` ring-delay
            rows, already fancy-indexed per pair.
        top_masks / bottom_masks: the matching 0/1 selection masks.
    """

    top_rows: np.ndarray
    bottom_rows: np.ndarray
    top_masks: np.ndarray
    bottom_masks: np.ndarray

    @property
    def pair_count(self) -> int:
        return self.top_rows.shape[0]

    @property
    def stage_count(self) -> int:
        return self.top_rows.shape[1]


def coalesce_pair_delays(
    requests: Sequence[PairDelayRequest],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(top, bottom) delay sums for many requests via grouped ``einsum``.

    Requests are grouped by stage width; within a group every request's top
    and bottom rows are stacked into one matrix and reduced with a *single*
    ``einsum`` call.  Because the reduction runs row-by-row over the same
    stage axis, each request's sums are **bit-identical** to evaluating it
    alone through :meth:`BatchEvaluator.pair_delays` — the serve layer's
    coalesced-equals-serial guarantee rests on this (pinned by
    ``tests/test_serve_coalescer.py``).

    Returns one ``(top, bottom)`` tuple per request, in request order.
    """
    if not requests:
        return []
    by_width: dict[int, list[int]] = {}
    for index, request in enumerate(requests):
        by_width.setdefault(request.stage_count, []).append(index)
    results: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(requests)
    for indices in by_width.values():
        group = [requests[i] for i in indices]
        rows = np.concatenate(
            [r.top_rows for r in group] + [r.bottom_rows for r in group]
        )
        masks = np.concatenate(
            [r.top_masks for r in group] + [r.bottom_masks for r in group]
        )
        sums = current_backend().pair_delay_sums(rows, masks)
        top_total = sum(r.pair_count for r in group)
        tops, bottoms = sums[:top_total], sums[top_total:]
        offset = 0
        for slot, request in zip(indices, group):
            span_end = offset + request.pair_count
            results[slot] = (tops[offset:span_end], bottoms[offset:span_end])
            offset = span_end
    obs.counter_add("batch.coalesced_requests", len(requests))
    obs.histogram_observe("batch.coalesce_size", len(requests))
    return results  # type: ignore[return-value]


def coalesce_responses(
    entries: Sequence[tuple["BatchEvaluator", OperatingPoint]],
    requests: Sequence[PairDelayRequest] | None = None,
) -> list[np.ndarray]:
    """Response bits for many (evaluator, op) evaluations in one pass.

    The delay reductions of the whole batch are coalesced through
    :func:`coalesce_pair_delays`; measurement noise is then observed
    per entry **in entry order** with each evaluator's own noise model and
    RNG — exactly the draws :meth:`BatchEvaluator.response` would make —
    so a coalesced batch is byte-identical to evaluating the entries one
    at a time in the same order.

    Args:
        entries: the evaluations to run.
        requests: pre-gathered delay requests (one per entry); supplied by
            callers that validate operating points per request before
            batching.  Gathered from ``entries`` when omitted.
    """
    if requests is None:
        requests = [ev.delay_request(op) for ev, op in entries]
    if len(requests) != len(entries):
        raise ValueError(f"{len(entries)} entries but {len(requests)} delay requests")
    with obs.span("batch.coalesce_responses", batch=len(entries)):
        delays = coalesce_pair_delays(requests)
        responses = []
        for (evaluator, _), (top, bottom) in zip(entries, delays):
            top_observed = evaluator.response_noise.observe(top, evaluator.rng)
            bottom_observed = evaluator.response_noise.observe(bottom, evaluator.rng)
            responses.append(top_observed > bottom_observed)
        obs.counter_add("batch.bits_evaluated", sum(r.size for r in responses))
        return responses


def response_loop_reference(
    puf: "BoardROPUF", enrollment: "Enrollment", op: OperatingPoint
) -> np.ndarray:
    """The pre-batch per-pair Python loop, preserved verbatim.

    Exists so the equivalence tests and the batch-engine micro-benchmark can
    pin the vectorized path against the historical implementation; not a
    production code path.
    """
    unit_delays = np.asarray(puf.delay_provider(op), dtype=float)
    rings = puf.allocation.ring_delay_matrix(unit_delays)
    top_delays = np.empty(len(enrollment.selections))
    bottom_delays = np.empty(len(enrollment.selections))
    for pair, selection in enumerate(enrollment.selections):
        top, bottom = puf.allocation.pair_rings(pair)
        top_delays[pair] = np.sum(rings[top][selection.top_config.as_array()])
        bottom_delays[pair] = np.sum(rings[bottom][selection.bottom_config.as_array()])
    top_observed = puf.response_noise.observe(top_delays, puf.rng)
    bottom_observed = puf.response_noise.observe(bottom_delays, puf.rng)
    return top_observed > bottom_observed


def enroll_loop_reference(puf: "BoardROPUF", op: OperatingPoint) -> "Enrollment":
    """The pre-batch per-pair board enrollment loop, preserved verbatim.

    One scalar selector call per ring pair — the implementation
    :meth:`BoardROPUF.enroll` used before the batch selection engine.  The
    equivalence tests and the enrollment micro-benchmark pin the vectorized
    path against it (byte-identical Enrollments); not a production code
    path.
    """
    from .puf import SELECTION_METHODS, Enrollment

    rings = puf._ring_delays(op)
    selector = SELECTION_METHODS[puf.method]
    selections = []
    for pair in range(puf.allocation.pair_count):
        top, bottom = puf.allocation.pair_rings(pair)
        selections.append(
            selector(rings[top], rings[bottom], require_odd=puf.require_odd)
        )
    margins = np.array([s.margin for s in selections])
    bits = np.array([s.bit for s in selections])
    return Enrollment(
        operating_point=op, selections=selections, bits=bits, margins=margins
    )


def chip_enroll_loop_reference(puf: "ChipROPUF", op: OperatingPoint) -> "Enrollment":
    """The per-pair chip enrollment loop, mirrored for benchmarking.

    Identical to :meth:`ChipROPUF.enroll` (which deliberately *keeps* this
    loop as its default path — the legacy noise draw order interleaves
    measurements per pair and cannot be reproduced by one batch tensor).
    The enrollment micro-benchmark times ``ChipROPUF.enroll_batch`` against
    it, and the byte-identity tests pin the default path to it.
    """
    from .puf import Enrollment

    selections = []
    margins = []
    bits = []
    for pair in range(puf.allocation.pair_count):
        top_idx, bottom_idx = puf.allocation.pair_rings(pair)
        top_ring = puf.ring(top_idx)
        bottom_ring = puf.ring(bottom_idx)
        selection = puf._select_pair(top_ring, bottom_ring, op)
        selections.append(selection)
        margins.append(selection.margin)
        top_delay = puf.measurer.chain_delay(top_ring, selection.top_config, op)
        bottom_delay = puf.measurer.chain_delay(
            bottom_ring, selection.bottom_config, op
        )
        bits.append(top_delay > bottom_delay)
    return Enrollment(
        operating_point=op,
        selections=selections,
        bits=np.array(bits),
        margins=np.array(margins),
    )
