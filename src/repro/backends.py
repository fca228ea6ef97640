"""repro.backends — the exact dense kernels every hot path reduces to.

A response bit is the sign of a difference of configured-ring delay sums
(Sec. III.D), so the response sweeps, batch enrollment, the serve
coalescer dispatch and the fleet-shard statistics all come down to a
handful of kernels: masked row sums, pair and sweep delay sums, the
leave-one-out solve, and the integer Gram update.  They live here, once.

Every kernel is *bit-for-bit* the reference computation it replaced, so
the repo's byte-identity pins (draw-order golden tests, batch==scalar
selectors, sharded==dense fleet oracles) hold through it.  The core
engines reach the kernels through :func:`current_backend`, and each call
records ``backend.numpy.calls`` plus a per-kernel element counter when
:mod:`repro.obs` metrics are enabled (no-ops otherwise).
"""

from __future__ import annotations

import numpy as np

from . import obs

__all__ = [
    "NumpyBackend",
    "current_backend",
    "exact_masked_row_sums",
    "gather_sweep_delay_sums",
]

#: numpy's pairwise summation reduces sums of fewer than 8 elements with a
#: plain left-to-right loop, so a left-packed zero-padded row of this width
#: sums bit-identically to ``np.sum`` of its compressed values.  Pinned by
#: ``tests/test_backends.py``'s ``test_sequential_sum_width_invariant``.
_SEQUENTIAL_SUM_WIDTH = 7


def exact_masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.sum(values[p, mask[p]])`` for every row ``p``, bit-for-bit.

    Rows selecting at most :data:`_SEQUENTIAL_SUM_WIDTH` entries are summed
    vectorized, as left-packed zero-padded rows (sequential-summation
    regime, where trailing zeros are exact no-ops); wider rows fall back to
    a per-row ``np.sum`` over the compressed values.  Inputs must already
    be float/bool cast and equal-shape 2-D.
    """
    counts = mask.sum(axis=1)
    sums = np.zeros(len(values), dtype=float)
    narrow = counts <= _SEQUENTIAL_SUM_WIDTH
    if narrow.any():
        sub_values = values[narrow]
        sub_mask = mask[narrow]
        sub_counts = counts[narrow]
        width = int(sub_counts.max(initial=0))
        if width:
            flat = sub_values[sub_mask]
            rows = np.repeat(np.arange(len(sub_values)), sub_counts)
            starts = np.cumsum(sub_counts) - sub_counts
            cols = np.arange(len(flat)) - np.repeat(starts, sub_counts)
            padded = np.zeros((len(sub_values), width))
            padded[rows, cols] = flat
            sums[narrow] = padded.sum(axis=1)
    if not narrow.all():
        for row in np.flatnonzero(~narrow):
            sums[row] = np.sum(values[row, mask[row]])
    return sums


def gather_sweep_delay_sums(
    stacked: np.ndarray,
    top_rings: np.ndarray,
    bottom_rings: np.ndarray,
    top_masks: np.ndarray,
    bottom_masks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The sweep as one fancy-indexed ``(op, pair, stage)`` gather per side.

    The fallback of :meth:`NumpyBackend.sweep_pair_delay_sums` when a ring
    feeds more than one mask row.
    """
    top = np.einsum("ops,ps->op", stacked[:, top_rings, :], top_masks)
    bottom = np.einsum("ops,ps->op", stacked[:, bottom_rings, :], bottom_masks)
    return top, bottom


class NumpyBackend:
    """The kernel set the core engines dispatch through."""

    #: The obs counter prefix, ``backend.<name>.*``.
    name = "numpy"

    def _count(self, kernel: str, elements: int) -> None:
        """Record one kernel invocation (no-op while obs metrics are off)."""
        obs.counter_add(f"backend.{self.name}.calls")
        obs.counter_add(f"backend.{self.name}.{kernel}.elements", elements)

    def masked_row_sums(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``np.sum(values[p, mask[p]])`` for every row ``p``.

        The rounding-sensitive reduction of the batch selectors; it
        reproduces the scalar selectors' sums bit-for-bit.
        """
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 2:
            raise ValueError(
                f"values and mask must be equal-shape 2-D, got {values.shape} "
                f"and {mask.shape}"
            )
        self._count("masked_row_sums", values.size)
        return exact_masked_row_sums(values, mask)

    def pair_delay_sums(self, rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Row-wise masked sums ``einsum("ps,ps->p", rows, masks)``.

        The single-operating-point response kernel (also the coalesced
        serve dispatch after request stacking).
        """
        self._count("pair_delay_sums", rows.size)
        return np.einsum("ps,ps->p", rows, masks)

    def sweep_pair_delay_sums(
        self,
        stacked: np.ndarray,
        top_rings: np.ndarray,
        bottom_rings: np.ndarray,
        top_masks: np.ndarray,
        bottom_masks: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(top, bottom) delay sums over an operating-point sweep.

        ``stacked`` is ``(op, ring, stage)``; each result is ``(op, pair)``
        — the response-sweep kernel behind Fig. 4/5 and the fleet-scale
        sweeps.  When every ring carries at most one mask row (the
        standard pairing), the masks scatter into one ``(ring, stage)``
        matrix and a single copy-free ``einsum("ors,rs->or")`` sums every
        ring; the sides are then column gathers.  This is bit-identical to
        :func:`gather_sweep_delay_sums`, which it falls back to when some
        ring feeds several masks (the scatter would clobber one of them).
        """
        self._count("sweep_pair_delay_sums", stacked.shape[0] * top_masks.size)
        ring_count = stacked.shape[1]
        rings = np.concatenate([top_rings, bottom_rings])
        if np.bincount(rings, minlength=ring_count).max(initial=0) > 1:
            return gather_sweep_delay_sums(
                stacked, top_rings, bottom_rings, top_masks, bottom_masks
            )
        ring_masks = np.zeros(stacked.shape[1:], dtype=float)
        ring_masks[top_rings] = top_masks
        ring_masks[bottom_rings] = bottom_masks
        sums = np.einsum("ors,rs->or", stacked, ring_masks)
        return sums.take(top_rings, axis=1), sums.take(bottom_rings, axis=1)

    def loo_delay_matrix(
        self,
        selected: np.ndarray,
        bypass: np.ndarray,
        config_masks: np.ndarray,
    ) -> np.ndarray:
        """True chain delays of every (ring, config) pair.

        ``selected``/``bypass`` are ``(ring, stage)`` path delays,
        ``config_masks`` is ``(config, stage)``; entry ``(r, c)`` sums
        ``selected[r]`` where the config selects the stage and
        ``bypass[r]`` elsewhere — the leave-one-out measurement solve.
        Each entry is the same stage vector summed along the last axis,
        hence bit-identical to the per-call ``ConfigurableRO.chain_delay``.
        """
        self._count("loo_delay_matrix", selected.size * len(config_masks))
        return np.where(
            config_masks[None, :, :], selected[:, None, :], bypass[:, None, :]
        ).sum(axis=2)

    def loo_ddiffs(self, measurements: np.ndarray) -> np.ndarray:
        """Per-unit ddiffs from ``(ring, config)`` leave-one-out delays.

        Column 0 is the all-ones configuration; ``ddiff_j`` is its delay
        minus the leave-one-out-``j`` delay.
        """
        self._count("loo_ddiffs", measurements.size)
        return measurements[:, 0:1] - measurements[:, 1:]

    def gram_update(self, gram: np.ndarray, x: np.ndarray) -> None:
        """Fold ``x.T @ x`` into ``gram`` in place (integer, exact).

        The streaming-uniqueness sufficient-statistics update.
        """
        self._count("gram_update", x.size)
        gram += x.T @ x


_BACKEND = NumpyBackend()


def current_backend() -> NumpyBackend:
    """The kernel set the core engines dispatch through."""
    return _BACKEND
