"""Reference oracle for the selection rules (test-only).

The production selectors live in :mod:`repro.core.selection_batch`; the
per-pair functions of :mod:`repro.core.selection` are one-row views of
them.  This module keeps the original per-pair algorithms of Sec. III.D as
an independent second implementation, so the batch code is checked against
something it does not share code with:

* :func:`select_case1`, :func:`select_case2`, :func:`select_traditional`
  and :func:`select_unconstrained` — scalar loops that the batch selectors
  must match mask for mask and bit for bit in the margin;
* :func:`select_exhaustive` — brute force over every equal-count subset
  pair, an upper bound on any selector's margin and equal to Case-1's and
  (without the odd-count constraint) Case-2's;
* :func:`select_multicorner_exhaustive` — brute force over every shared
  configuration for the worst-case margin across corners, the bound on
  :func:`repro.core.multicorner.select_case1_multicorner`'s greedy.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.config_vector import ConfigVector
from repro.core.multicorner import _stack_deltas, worst_case_margin
from repro.core.selection import PairSelection, _validate_pair

__all__ = [
    "select_case1",
    "select_case2",
    "select_traditional",
    "select_unconstrained",
    "select_exhaustive",
    "select_multicorner_exhaustive",
]


def select_case1(
    alpha: np.ndarray,
    beta: np.ndarray,
    require_odd: bool = False,
) -> PairSelection:
    """Optimal shared-configuration selection (the paper's Case-1)."""
    alpha, beta = _validate_pair(alpha, beta)
    delta = alpha - beta

    best_selected: np.ndarray | None = None
    best_margin = 0.0
    # Evaluate both sign directions: with the odd-count constraint the
    # optimum can live in the direction whose unconstrained sum is smaller.
    for sign in (1.0, -1.0):
        selected = _direction_selection(delta, sign, require_odd)
        margin = float(np.sum(delta[selected]))
        if best_selected is None or abs(margin) > abs(best_margin):
            best_selected = selected
            best_margin = margin

    assert best_selected is not None
    config = ConfigVector.from_array(best_selected)
    return PairSelection(
        top_config=config,
        bottom_config=config,
        margin=best_margin,
        method="case1",
    )


def _direction_selection(
    delta: np.ndarray, sign: float, require_odd: bool
) -> np.ndarray:
    """Best selection whose margin points in one sign direction.

    Unconstrained, that is every unit with a positive contribution
    ``sign * delta``; under the odd-count constraint, parity is fixed by
    whichever is cheaper — dropping the weakest selected unit or adding the
    least-harmful unselected one (optimal for this direction, since any odd
    subset differs from the greedy one by at least that much margin).
    """
    contributions = sign * delta
    selected = contributions > 0.0
    if not np.any(selected):
        # No unit helps this direction: fall back to the least-bad single
        # unit so the pair still yields a bit (and parity is already odd).
        selected = np.zeros(len(delta), dtype=bool)
        selected[int(np.argmax(contributions))] = True
        return selected

    if require_odd and int(np.sum(selected)) % 2 == 0:
        drop_candidates = np.where(selected)[0]
        drop_cost = float(np.min(contributions[drop_candidates]))
        add_candidates = np.where(~selected)[0]
        add_cost = (
            float(np.min(-contributions[add_candidates]))
            if len(add_candidates)
            else np.inf
        )
        selected = selected.copy()
        if add_cost < drop_cost or len(drop_candidates) == 1:
            best_add = add_candidates[int(np.argmax(contributions[add_candidates]))]
            selected[best_add] = True
        else:
            best_drop = drop_candidates[int(np.argmin(contributions[drop_candidates]))]
            selected[best_drop] = False
    return selected


def select_case2(
    alpha: np.ndarray,
    beta: np.ndarray,
    require_odd: bool = False,
) -> PairSelection:
    """Independent-configuration selection (the paper's Case-2).

    The two rings may select different units but must select equally many.
    """
    alpha, beta = _validate_pair(alpha, beta)
    n = len(alpha)

    # Direction A: make the top ring as slow as possible relative to the
    # bottom -> positive margin.  Direction B is the mirror image.
    order_alpha_desc = np.argsort(-alpha, kind="stable")
    order_alpha_asc = order_alpha_desc[::-1]
    order_beta_desc = np.argsort(-beta, kind="stable")
    order_beta_asc = order_beta_desc[::-1]

    gains_positive = alpha[order_alpha_desc] - beta[order_beta_asc]
    gains_negative = beta[order_beta_desc] - alpha[order_alpha_asc]

    k_pos, sum_pos = _greedy_prefix(gains_positive)
    k_neg, sum_neg = _greedy_prefix(gains_negative)

    if sum_pos >= sum_neg:
        k, margin_sign = max(k_pos, 1), 1.0
        top_idx = order_alpha_desc[:k]
        bottom_idx = order_beta_asc[:k]
    else:
        k, margin_sign = max(k_neg, 1), -1.0
        top_idx = order_alpha_asc[:k]
        bottom_idx = order_beta_desc[:k]

    if require_odd and k % 2 == 0:
        gains = gains_positive if margin_sign > 0 else gains_negative
        k = _odd_prefix_length(gains, k, n)
        if margin_sign > 0:
            top_idx = order_alpha_desc[:k]
            bottom_idx = order_beta_asc[:k]
        else:
            top_idx = order_alpha_asc[:k]
            bottom_idx = order_beta_desc[:k]

    top = np.zeros(n, dtype=bool)
    top[top_idx] = True
    bottom = np.zeros(n, dtype=bool)
    bottom[bottom_idx] = True
    margin = float(np.sum(alpha[top]) - np.sum(beta[bottom]))
    return PairSelection(
        top_config=ConfigVector.from_array(top),
        bottom_config=ConfigVector.from_array(bottom),
        margin=margin,
        method="case2",
    )


def _greedy_prefix(gains: np.ndarray) -> tuple[int, float]:
    """Longest prefix of positive gains and its sum.

    ``gains`` is non-increasing by construction, so the best prefix sum is
    attained by taking elements while they are positive.
    """
    positive = gains > 0.0
    k = int(np.argmin(positive)) if not positive.all() else len(gains)
    if k == 0 and not positive[0]:
        return 0, 0.0
    return k, float(np.sum(gains[:k]))


def _odd_prefix_length(gains: np.ndarray, k: int, n: int) -> int:
    """Adjust an even prefix length to the better neighbouring odd length."""
    candidates = [c for c in (k - 1, k + 1) if 1 <= c <= n]
    best = candidates[0]
    best_sum = float(np.sum(gains[:best]))
    for c in candidates[1:]:
        total = float(np.sum(gains[:c]))
        if total > best_sum:
            best, best_sum = c, total
    return best


def select_traditional(
    alpha: np.ndarray, beta: np.ndarray, require_odd: bool = False
) -> PairSelection:
    """The traditional RO PUF: every inverter included in both rings.

    With ``require_odd`` and an even stage count, the single stage whose
    removal best preserves the margin magnitude is dropped from both rings.
    """
    alpha, beta = _validate_pair(alpha, beta)
    n = len(alpha)
    selected = np.ones(n, dtype=bool)
    if require_odd and n % 2 == 0:
        delta = alpha - beta
        total = float(np.sum(delta))
        # Dropping stage i leaves margin (total - delta[i]); keep the drop
        # that maximises the remaining magnitude.
        drop = int(np.argmax(np.abs(total - delta)))
        selected[drop] = False
    config = ConfigVector.from_array(selected)
    margin = float(np.sum(alpha[selected]) - np.sum(beta[selected]))
    return PairSelection(
        top_config=config, bottom_config=config, margin=margin, method="traditional"
    )


def select_unconstrained(alpha: np.ndarray, beta: np.ndarray) -> PairSelection:
    """Maximum-margin selection with *independent* selected counts."""
    alpha, beta = _validate_pair(alpha, beta)
    n = len(alpha)

    # Direction A: top slow (all selected), bottom fast (one fastest unit).
    bottom_fast = np.zeros(n, dtype=bool)
    bottom_fast[int(np.argmin(beta))] = True
    margin_positive = float(np.sum(alpha) - np.min(beta))

    # Direction B: the mirror image.
    top_fast = np.zeros(n, dtype=bool)
    top_fast[int(np.argmin(alpha))] = True
    margin_negative = float(np.min(alpha) - np.sum(beta))

    if abs(margin_positive) >= abs(margin_negative):
        top = np.ones(n, dtype=bool)
        bottom = bottom_fast
        margin = margin_positive
    else:
        top = top_fast
        bottom = np.ones(n, dtype=bool)
        margin = margin_negative
    return PairSelection(
        top_config=ConfigVector.from_array(top),
        bottom_config=ConfigVector.from_array(bottom),
        margin=margin,
        method="unconstrained",
    )


_EXHAUSTIVE_LIMIT = 12


def _subset_rows(n: int, k: int) -> np.ndarray:
    """Every k-subset of ``range(n)`` as a 0/1 row, in combinations order."""
    members = np.array(list(combinations(range(n), k)))
    rows = np.zeros((len(members), n))
    rows[np.arange(len(members))[:, None], members] = 1.0
    return rows


def select_exhaustive(
    alpha: np.ndarray,
    beta: np.ndarray,
    same_config: bool,
    require_odd: bool = False,
) -> PairSelection:
    """Brute-force optimal selection, for verifying the fast algorithms.

    For each selected count ``k`` the k-subset family is one 0/1 matrix
    ``S``; ``S @ alpha`` and ``S @ beta`` score every top and bottom
    subset at once.  Case-1's space pairs each subset with itself, Case-2's
    every top subset with every bottom subset.  The first largest
    magnitude wins, in ``(k, top subset, bottom subset)`` combinations
    order, and its margin is recomputed from the chosen masks.

    Args:
        same_config: True explores Case-1's space (one shared vector),
            False explores Case-2's (independent vectors, equal counts).
        require_odd: restrict to odd selected counts.

    Raises:
        ValueError: for rings longer than 12 units (search space explodes).
    """
    alpha, beta = _validate_pair(alpha, beta)
    n = len(alpha)
    if n > _EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive search supports up to {_EXHAUSTIVE_LIMIT} units, got {n}"
        )

    best_magnitude = -1.0
    best_top = best_bottom = None
    for k in range(1, n + 1, 2 if require_odd else 1):
        subsets = _subset_rows(n, k)
        top_sums = subsets @ alpha
        bottom_sums = subsets @ beta
        if same_config:
            magnitudes = np.abs(top_sums - bottom_sums)
            top_index = bottom_index = int(np.argmax(magnitudes))
            magnitude = magnitudes[top_index]
        else:
            magnitudes = np.abs(top_sums[:, None] - bottom_sums[None, :])
            top_index, bottom_index = np.unravel_index(
                int(np.argmax(magnitudes)), magnitudes.shape
            )
            magnitude = magnitudes[top_index, bottom_index]
        if magnitude > best_magnitude:
            best_magnitude = magnitude
            best_top = subsets[top_index].astype(bool)
            best_bottom = subsets[bottom_index].astype(bool)

    return PairSelection(
        top_config=ConfigVector.from_array(best_top),
        bottom_config=ConfigVector.from_array(best_bottom),
        margin=float(np.sum(alpha[best_top]) - np.sum(beta[best_bottom])),
        method="exhaustive-case1" if same_config else "exhaustive-case2",
    )


_MULTICORNER_LIMIT = 14


def select_multicorner_exhaustive(
    alphas: list[np.ndarray], betas: list[np.ndarray]
) -> PairSelection:
    """Brute-force worst-case-margin optimum (reference, small rings)."""
    deltas = _stack_deltas(alphas, betas)
    units = deltas.shape[1]
    if units > _MULTICORNER_LIMIT:
        raise ValueError(f"exhaustive search supports up to {_MULTICORNER_LIMIT} units")
    best_selected = None
    best_value = -1.0
    for count in range(1, units + 1):
        for subset in combinations(range(units), count):
            selected = np.zeros(units, dtype=bool)
            selected[list(subset)] = True
            value = abs(worst_case_margin(deltas, selected))
            if value > best_value:
                best_value = value
                best_selected = selected
    assert best_selected is not None
    config = ConfigVector.from_array(best_selected)
    return PairSelection(
        top_config=config,
        bottom_config=config,
        margin=worst_case_margin(deltas, best_selected),
        method="multicorner-exhaustive",
    )
