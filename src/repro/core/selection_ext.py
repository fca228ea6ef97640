"""Selection extensions beyond the paper's Sec. III.D algorithms.

* :func:`select_unconstrained` — drops the equal-selected-count security
  constraint.  It achieves the largest possible margins, but the count
  difference between the two rings leaks the bit almost perfectly — the
  attack the paper's constraint exists to prevent ("the one that uses
  fewer inverters will most likely be faster, making it easier for an
  attacker to guess the bit").  `repro.attacks` quantifies the leak.

* :func:`select_case1_offset` / :func:`select_case2_offset` — offset-aware
  variants.  On real delay units the configured chains differ not only in
  the selected ``ddiff`` terms but also by a constant bypass-path offset
  ``B = sum(d0_top) - sum(d0_bottom)`` that the paper's formulation
  neglects.  The offset-aware selectors maximise ``|margin + B|`` — the
  quantity that actually decides the bit — recovering margin the paper's
  selector leaves on the table whenever ``B`` opposes it.

The offset-aware selectors and
:func:`~repro.core.multicorner.select_case1_multicorner` work one pair at a
time and have no batch twin.  They are not duplicates of a batch rule: the
offset-aware :class:`~repro.core.puf.ChipROPUF` path measures each pair
just before selecting it, and that per-pair measurement draw order is part
of its pinned output.
"""

from __future__ import annotations

import numpy as np

from .config_vector import ConfigVector
from .selection import PairSelection, _one_row, _validate_pair
from .selection_batch import select_unconstrained_batch

__all__ = [
    "select_unconstrained",
    "select_case1_offset",
    "select_case2_offset",
]


def select_unconstrained(alpha: np.ndarray, beta: np.ndarray) -> PairSelection:
    """Maximum-margin selection with *independent* selected counts.

    With positive per-unit delays the optimum is extreme: make one ring as
    slow as possible (select everything) and the other as fast as possible
    (select only its single fastest unit; a ring needs at least one stage).
    The returned margin therefore dwarfs Case-2's — but the configuration
    itself gives the bit away, which is why the paper forbids this.  A
    one-row view of
    :func:`~repro.core.selection_batch.select_unconstrained_batch`.
    """
    return _one_row(select_unconstrained_batch, alpha, beta)


def select_case1_offset(
    alpha: np.ndarray, beta: np.ndarray, offset: float = 0.0
) -> PairSelection:
    """Case-1 selection maximising ``|sum(delta[x]) + offset|``.

    Args:
        offset: the constant chain-delay difference present regardless of
            the configuration (bypass paths; ``B_top - B_bottom``).

    The reported ``margin`` includes the offset, so its sign is the actual
    comparison outcome of the configured chains.
    """
    alpha, beta = _validate_pair(alpha, beta)
    delta = alpha - beta
    n = len(delta)

    # |sum + offset| over non-empty subsets is maximised at one of the two
    # extreme achievable sums.  The maximum sum is the positive deltas (or
    # the single largest delta when none is positive); symmetrically for
    # the minimum.
    max_selected = delta > 0.0
    if not np.any(max_selected):
        max_selected = np.zeros(n, dtype=bool)
        max_selected[int(np.argmax(delta))] = True
    min_selected = delta < 0.0
    if not np.any(min_selected):
        min_selected = np.zeros(n, dtype=bool)
        min_selected[int(np.argmin(delta))] = True

    max_margin = float(np.sum(delta[max_selected])) + offset
    min_margin = float(np.sum(delta[min_selected])) + offset
    if abs(max_margin) >= abs(min_margin):
        selected, margin = max_selected, max_margin
    else:
        selected, margin = min_selected, min_margin
    config = ConfigVector.from_array(selected)
    return PairSelection(
        top_config=config,
        bottom_config=config,
        margin=margin,
        method="case1-offset",
    )


def select_case2_offset(
    alpha: np.ndarray, beta: np.ndarray, offset: float = 0.0
) -> PairSelection:
    """Case-2 selection maximising ``|margin + offset|`` over all counts.

    Evaluates the directional prefix sums for every selected count k in
    1..n (both directions) and keeps the endpoint with the largest shifted
    magnitude.
    """
    alpha, beta = _validate_pair(alpha, beta)
    n = len(alpha)

    order_alpha_desc = np.argsort(-alpha, kind="stable")
    order_alpha_asc = order_alpha_desc[::-1]
    order_beta_desc = np.argsort(-beta, kind="stable")
    order_beta_asc = order_beta_desc[::-1]

    gains_positive = np.cumsum(alpha[order_alpha_desc] - beta[order_beta_asc])
    gains_negative = np.cumsum(alpha[order_alpha_asc] - beta[order_beta_desc])

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for sums, top_order, bottom_order in (
        (gains_positive, order_alpha_desc, order_beta_asc),
        (gains_negative, order_alpha_asc, order_beta_desc),
    ):
        shifted = sums + offset
        k = int(np.argmax(np.abs(shifted))) + 1
        margin = float(shifted[k - 1])
        if best is None or abs(margin) > abs(best[0]):
            best = (margin, top_order[:k], bottom_order[:k])

    assert best is not None
    margin, top_idx, bottom_idx = best
    top = np.zeros(n, dtype=bool)
    top[top_idx] = True
    bottom = np.zeros(n, dtype=bool)
    bottom[bottom_idx] = True
    return PairSelection(
        top_config=ConfigVector.from_array(top),
        bottom_config=ConfigVector.from_array(bottom),
        margin=margin,
        method="case2-offset",
    )
