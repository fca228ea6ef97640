"""Batch selectors: the one implementation of each selection rule.

Every selection rule of Sec. III.D — Case-1, Case-2, the traditional
all-stages baseline and the unconstrained-count extension — is implemented
here once, over ``(pair, stage)`` delta *matrices*, so a whole board
enrolls in a handful of array operations.  The per-pair selectors of
:mod:`repro.core.selection` and :func:`repro.core.selection_ext.select_unconstrained`
are one-row views of these functions.

* :func:`select_case1_batch` — sign-mask reductions: both signed directions
  are materialised as boolean mask matrices, parity is repaired per row
  with masked ``argmin``/``argmax`` reductions, and the larger-magnitude
  direction wins per row.
* :func:`select_case2_batch` — per-row stable ``argsort`` plus prefix-sum
  greedy pairing, with the odd-length repair evaluated on prefix masks.
* :func:`select_traditional_batch` — all stages, with the even-stage-count
  parity drop evaluated row-wise.
* :func:`select_unconstrained_batch` — one ring all stages, the other its
  single fastest unit (no equal-count constraint).

Byte-identity contract
----------------------

Row ``p`` is, mask for mask and bit for bit in its margin, what the
original per-pair algorithm (kept as the test oracle
``tests/selection_oracle.py``) returns for pair ``p``.  Every decision is
an elementwise comparison, a stable sort, or an ``argmin``/``argmax``,
all of which vectorize exactly; the ``np.sum`` reductions over selected
subsets are reproduced bit-for-bit by :func:`masked_row_sums` (numpy sums
sequentially below 8 elements; wider rows take a per-row ``np.sum`` over
the compressed values).  ``tests/test_selection_batch.py`` pins batch ≡
oracle with Hypothesis and ``tests/test_enroll_engine.py`` pins board
enrollment against the preserved loop reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import obs
from ..backends import current_backend
from .config_vector import ConfigVector

if TYPE_CHECKING:
    from .selection import PairSelection

__all__ = [
    "BatchSelection",
    "select_case1_batch",
    "select_case2_batch",
    "select_traditional_batch",
    "select_unconstrained_batch",
    "BATCH_SELECTION_METHODS",
    "masked_row_sums",
]


def masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.sum(values[p, mask[p]])`` for every row ``p``.

    Dispatches through :func:`repro.backends.current_backend`, which keeps
    the bit-for-bit contract: rows selecting at most
    :data:`repro.backends._SEQUENTIAL_SUM_WIDTH` entries are summed in
    numpy's sequential regime exactly as ``np.sum`` over the compressed row
    would.
    """
    return current_backend().masked_row_sums(values, mask)


@dataclass(frozen=True, eq=False)
class BatchSelection:
    """The outcome of configuring many RO pairs at once.

    The dense-matrix counterpart of a list of
    :class:`~repro.core.selection.PairSelection`; produced by the batch
    selectors and consumed directly by :meth:`BoardROPUF.enroll
    <repro.core.puf.BoardROPUF.enroll>`.

    Attributes:
        top_masks: boolean ``(pair_count, stage_count)`` matrix; row ``p``
            is pair ``p``'s top configuration vector.
        bottom_masks: same for the bottom configurations (the *same array
            object* for shared-configuration methods).
        margins: per-pair signed delay margins (``PairSelection.margin``
            of each row).
        method: ``"case1"``, ``"case2"``, ``"traditional"`` or
            ``"unconstrained"``.
    """

    top_masks: np.ndarray
    bottom_masks: np.ndarray
    margins: np.ndarray
    method: str

    @property
    def pair_count(self) -> int:
        """Number of RO pairs selected."""
        return len(self.margins)

    @property
    def stage_count(self) -> int:
        """Units per ring (mask row width)."""
        return self.top_masks.shape[1]

    @property
    def bits(self) -> np.ndarray:
        """The enrolled PUF bits: True where the top ring is slower."""
        return self.margins > 0.0

    def to_selections(self) -> list["PairSelection"]:
        """Expand into per-pair :class:`PairSelection` objects.

        Shared-configuration methods reuse one :class:`ConfigVector` per
        pair for both rings.
        """
        from . import selection  # imports this module, so not at the top

        top_configs = [
            ConfigVector(bits) for bits in map(tuple, self.top_masks.tolist())
        ]
        if self.bottom_masks is self.top_masks:
            bottom_configs = top_configs
        else:
            bottom_configs = [
                ConfigVector(bits) for bits in map(tuple, self.bottom_masks.tolist())
            ]
        return [
            selection.PairSelection(
                top_config=top,
                bottom_config=bottom,
                margin=float(margin),
                method=self.method,
            )
            for top, bottom, margin in zip(top_configs, bottom_configs, self.margins)
        ]

    def to_enrollment(self, operating_point) -> "object":
        """Package as an :class:`~repro.core.puf.Enrollment` at one corner."""
        from .puf import Enrollment

        return Enrollment(
            operating_point=operating_point,
            selections=self.to_selections(),
            bits=self.bits,
            margins=self.margins.astype(float, copy=True),
        )


def _count_selector(method: str, rows: int) -> None:
    """Record one batch-selector invocation (no-op while obs is off)."""
    obs.counter_add(f"selector.{method}.calls")
    obs.counter_add(f"selector.{method}.rows", rows)


def _validate_batch(
    alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 2 or beta.ndim != 2:
        raise ValueError("batch delay matrices must be 2-D (pair, stage)")
    if alpha.shape != beta.shape:
        raise ValueError(
            f"top and bottom matrices differ in shape: {alpha.shape} vs "
            f"{beta.shape}"
        )
    if alpha.shape[1] == 0:
        raise ValueError("delay vectors cannot be empty")
    return alpha, beta


def select_case1_batch(
    alpha: np.ndarray,
    beta: np.ndarray,
    require_odd: bool = False,
) -> BatchSelection:
    """Batch Case-1: one shared configuration per pair (sign-mask optimal).

    :func:`~repro.core.selection.select_case1` is the one-row view.

    Args:
        alpha: ``(pair, stage)`` per-unit delays (ddiffs) of the top rings.
        beta: same for the bottom rings.
        require_odd: force odd selected counts (free-running rings).
    """
    alpha, beta = _validate_batch(alpha, beta)
    _count_selector("case1", len(alpha))
    delta = alpha - beta
    positive = _direction_masks(delta, 1.0, require_odd)
    negative = _direction_masks(delta, -1.0, require_odd)
    margins_positive = masked_row_sums(delta, positive)
    margins_negative = masked_row_sums(delta, negative)
    # Sign +1 is the incumbent and -1 replaces it only on strictly larger
    # magnitude, so ties keep the positive direction.
    take_negative = np.abs(margins_negative) > np.abs(margins_positive)
    masks = np.where(take_negative[:, None], negative, positive)
    margins = np.where(take_negative, margins_negative, margins_positive)
    return BatchSelection(
        top_masks=masks, bottom_masks=masks, margins=margins, method="case1"
    )


def _direction_masks(delta: np.ndarray, sign: float, require_odd: bool) -> np.ndarray:
    """Row-wise best selections whose margins point in one sign direction.

    Unconstrained, that is every unit with a positive contribution
    ``sign * delta``; rows no unit helps fall back to the single least-bad
    unit.  Under the odd-count constraint, parity is fixed by whichever is
    cheaper — dropping the weakest selected unit or adding the
    least-harmful unselected one (first-index tie-breaks via masked
    ``argmin``/``argmax``).
    """
    contributions = sign * delta
    selected = contributions > 0.0
    counts = selected.sum(axis=1)
    empty_rows = np.flatnonzero(counts == 0)
    if len(empty_rows):
        # No unit helps these rows: least-bad single unit (count 1 is odd).
        fallback = np.argmax(contributions[empty_rows], axis=1)
        selected[empty_rows, fallback] = True
        counts[empty_rows] = 1
    if require_odd:
        even_rows = np.flatnonzero(counts % 2 == 0)
        if len(even_rows):
            sub_contributions = contributions[even_rows]
            sub_selected = selected[even_rows]
            drop_cost = np.where(sub_selected, sub_contributions, np.inf).min(axis=1)
            add_cost = np.where(~sub_selected, -sub_contributions, np.inf).min(axis=1)
            add_index = np.argmax(
                np.where(~sub_selected, sub_contributions, -np.inf), axis=1
            )
            drop_index = np.argmin(
                np.where(sub_selected, sub_contributions, np.inf), axis=1
            )
            add_wins = add_cost < drop_cost
            selected[even_rows[add_wins], add_index[add_wins]] = True
            selected[even_rows[~add_wins], drop_index[~add_wins]] = False
    return selected


def select_case2_batch(
    alpha: np.ndarray,
    beta: np.ndarray,
    require_odd: bool = False,
) -> BatchSelection:
    """Batch Case-2: independent equal-count configurations per pair.

    Per-row stable argsorts, greedy positive-gain prefixes (prefix sums
    exact via :func:`masked_row_sums`), the ``sum_pos >= sum_neg``
    direction rule, and the odd-length neighbour repair (``k - 1`` wins
    ties).  The direction is chosen before the repair, so with
    ``require_odd`` a row can fall short of the odd-count optimum.
    :func:`~repro.core.selection.select_case2` is the one-row view.
    """
    alpha, beta = _validate_batch(alpha, beta)
    _count_selector("case2", len(alpha))
    pair_count, n = alpha.shape
    columns = np.arange(n)

    desc_alpha = np.argsort(-alpha, axis=1, kind="stable")
    desc_beta = np.argsort(-beta, axis=1, kind="stable")
    alpha_sorted = np.take_along_axis(alpha, desc_alpha, axis=1)
    beta_sorted = np.take_along_axis(beta, desc_beta, axis=1)
    gains_positive = alpha_sorted - beta_sorted[:, ::-1]
    gains_negative = beta_sorted - alpha_sorted[:, ::-1]

    k_positive, sum_positive = _positive_prefixes(gains_positive)
    k_negative, sum_negative = _positive_prefixes(gains_negative)

    positive_direction = sum_positive >= sum_negative
    k = np.where(
        positive_direction,
        np.maximum(k_positive, 1),
        np.maximum(k_negative, 1),
    )

    if require_odd:
        even_rows = np.flatnonzero(k % 2 == 0)
        if len(even_rows):
            gains = np.where(
                positive_direction[even_rows, None],
                gains_positive[even_rows],
                gains_negative[even_rows],
            )
            sub_k = k[even_rows]
            # k is even hence >= 2, so k - 1 is always a valid odd length;
            # k + 1 exists only below n and must win strictly (k - 1 is
            # kept on ties).
            shorter = sub_k - 1
            longer = sub_k + 1
            sum_shorter = masked_row_sums(gains, columns < shorter[:, None])
            sum_longer = masked_row_sums(
                gains, columns < np.where(longer <= n, longer, 0)[:, None]
            )
            take_longer = (longer <= n) & (sum_longer > sum_shorter)
            k[even_rows] = np.where(take_longer, longer, shorter)

    # rank_desc[p, j] = position of unit j in the descending order; the
    # ascending order is the reverse, so its rank is n - 1 - rank_desc.
    rank_alpha = _rank_matrix(desc_alpha)
    rank_beta = _rank_matrix(desc_beta)
    k_column = k[:, None]
    direction_column = positive_direction[:, None]
    top_masks = np.where(
        direction_column, rank_alpha < k_column, n - 1 - rank_alpha < k_column
    )
    bottom_masks = np.where(
        direction_column, n - 1 - rank_beta < k_column, rank_beta < k_column
    )
    margins = masked_row_sums(alpha, top_masks) - masked_row_sums(beta, bottom_masks)
    return BatchSelection(
        top_masks=top_masks,
        bottom_masks=bottom_masks,
        margins=margins,
        method="case2",
    )


def _positive_prefixes(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise longest positive prefixes and their exact sums."""
    positive = gains > 0.0
    n = gains.shape[1]
    # argmin of a boolean row is its first False; all-True rows take n.
    k = np.where(positive.all(axis=1), n, np.argmin(positive, axis=1))
    sums = masked_row_sums(gains, np.arange(n) < k[:, None])
    return k, sums


def _rank_matrix(order: np.ndarray) -> np.ndarray:
    """Invert row-wise permutations: ``rank[p, order[p, i]] = i``."""
    rank = np.empty_like(order)
    np.put_along_axis(
        rank,
        order,
        np.broadcast_to(np.arange(order.shape[1]), order.shape),
        axis=1,
    )
    return rank


def select_traditional_batch(
    alpha: np.ndarray,
    beta: np.ndarray,
    require_odd: bool = False,
) -> BatchSelection:
    """Batch traditional RO PUF: every inverter included in both rings.

    With ``require_odd`` and an even stage count, each row drops the stage
    whose removal best preserves the margin magnitude, from both rings.
    :func:`~repro.core.selection.select_traditional` is the one-row view.
    """
    alpha, beta = _validate_batch(alpha, beta)
    _count_selector("traditional", len(alpha))
    pair_count, n = alpha.shape
    selected = np.ones((pair_count, n), dtype=bool)
    if require_odd and n % 2 == 0:
        delta = alpha - beta
        totals = delta.sum(axis=1)
        drops = np.argmax(np.abs(totals[:, None] - delta), axis=1)
        selected[np.arange(pair_count), drops] = False
        margins = masked_row_sums(alpha, selected) - masked_row_sums(beta, selected)
    else:
        # All stages selected: the compressed row is the full row, whose
        # axis sum is bit-identical to np.sum over it.
        margins = alpha.sum(axis=1) - beta.sum(axis=1)
    return BatchSelection(
        top_masks=selected,
        bottom_masks=selected,
        margins=margins,
        method="traditional",
    )


def select_unconstrained_batch(alpha: np.ndarray, beta: np.ndarray) -> BatchSelection:
    """Batch maximum-margin selection with *independent* selected counts.

    With positive per-unit delays the optimum is extreme: one ring selects
    everything and the other only its single fastest unit (a ring needs at
    least one stage).  Ties keep the slow-top direction.
    :func:`~repro.core.selection_ext.select_unconstrained` is the one-row
    view.
    """
    alpha, beta = _validate_batch(alpha, beta)
    _count_selector("unconstrained", len(alpha))
    pair_count, n = alpha.shape
    margins_positive = alpha.sum(axis=1) - beta.min(axis=1)
    margins_negative = alpha.min(axis=1) - beta.sum(axis=1)
    positive = np.abs(margins_positive) >= np.abs(margins_negative)
    fast_masks = np.zeros((pair_count, n), dtype=bool)
    fastest = np.where(positive, np.argmin(beta, axis=1), np.argmin(alpha, axis=1))
    fast_masks[np.arange(pair_count), fastest] = True
    return BatchSelection(
        top_masks=fast_masks | positive[:, None],
        bottom_masks=fast_masks | ~positive[:, None],
        margins=np.where(positive, margins_positive, margins_negative),
        method="unconstrained",
    )


#: Registry of batch selection methods, keyed like
#: :data:`repro.core.puf.SELECTION_METHODS`.
BATCH_SELECTION_METHODS: dict[str, Callable[..., BatchSelection]] = {
    "case1": select_case1_batch,
    "case2": select_case2_batch,
    "traditional": select_traditional_batch,
}
