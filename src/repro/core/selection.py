"""Inverter-selection algorithms (Sec. III.D of the paper).

Given a pair of configurable ROs — *top* with per-unit delays ``alpha`` and
*bottom* with per-unit delays ``beta`` (both are the measured ``ddiff``
values, i.e. what selecting each unit adds to its chain) — choose
configuration vectors maximising the magnitude of the pair's delay
difference.  Both rings must select the same *number* of inverters, a
security constraint the paper imposes so an attacker cannot guess the bit
from the configuration sizes.

* **Case-1** — both rings share one configuration vector ``x``.  The
  objective ``|sum_i (alpha_i - beta_i) * x_i|`` is maximised by selecting
  all units whose delta shares the sign of whichever signed sum (positive
  or negative) has the larger magnitude.  This is provably optimal.

* **Case-2** — independent vectors ``x`` and ``y`` with equal selected
  counts.  Sorting both delay vectors and greedily pairing the k slowest
  top units against the k fastest bottom units (and the mirror direction)
  while the pairwise gap stays positive is optimal, because for a fixed
  count ``k`` the best achievable difference is (sum of k largest alpha) -
  (sum of k smallest beta), whose increment in k is non-increasing.  With
  ``require_odd`` the direction is chosen before the parity repair, so the
  result can fall short of the odd-count optimum (DESIGN.md §4b).

The rules are implemented once, over ``(pair, stage)`` matrices, in
:mod:`repro.core.selection_batch`.  :func:`select_case1`,
:func:`select_case2` and :func:`select_traditional` are one-row views of
those batch selectors for callers that configure a single pair.  The
original per-pair algorithms and a brute-force exhaustive search survive
only as the test suite's reference oracle (``tests/selection_oracle.py``).

The paper conjectures the optimum selects about ``n/2`` units; experiment
E10 measures that distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config_vector import ConfigVector
from .selection_batch import (
    select_case1_batch,
    select_case2_batch,
    select_traditional_batch,
)

__all__ = [
    "PairSelection",
    "select_case1",
    "select_case2",
    "select_traditional",
]


@dataclass(frozen=True)
class PairSelection:
    """The outcome of configuring one RO pair.

    Attributes:
        top_config: configuration vector of the top ring.
        bottom_config: configuration vector of the bottom ring.
        margin: signed delay difference (top minus bottom) over the selected
            units, in the delay unit of the inputs.  The PUF bit is its sign.
        method: the selection method's name, e.g. ``"case1"``, ``"case2"``
            or ``"traditional"``.
    """

    top_config: ConfigVector
    bottom_config: ConfigVector
    margin: float
    method: str

    @property
    def bit(self) -> bool:
        """The enrolled PUF bit: True when the top ring is slower."""
        return self.margin > 0.0

    @property
    def selected_count(self) -> int:
        """Inverters selected per ring (equal for both by construction)."""
        return self.top_config.selected_count

    @property
    def abs_margin(self) -> float:
        """Magnitude of the delay difference — the reliability margin."""
        return abs(self.margin)


def _validate_pair(
    alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or beta.ndim != 1:
        raise ValueError("delay vectors must be 1-D")
    if alpha.shape != beta.shape:
        raise ValueError(
            f"top and bottom rings differ in length: {alpha.shape} vs {beta.shape}"
        )
    if len(alpha) == 0:
        raise ValueError("delay vectors cannot be empty")
    return alpha, beta


def _one_row(batch_selector, alpha, beta, **kwargs) -> PairSelection:
    """Run a batch selector on a single pair and unwrap its one row."""
    alpha, beta = _validate_pair(alpha, beta)
    batch = batch_selector(alpha[None, :], beta[None, :], **kwargs)
    return batch.to_selections()[0]


def select_case1(
    alpha: np.ndarray,
    beta: np.ndarray,
    require_odd: bool = False,
) -> PairSelection:
    """Optimal shared-configuration selection (the paper's Case-1).

    Args:
        alpha: per-unit delays (ddiffs) of the top ring.
        beta: per-unit delays (ddiffs) of the bottom ring.
        require_odd: force an odd selected count so the rings can free-run
            (the paper's formulation ignores parity; see DESIGN.md).
    """
    return _one_row(select_case1_batch, alpha, beta, require_odd=require_odd)


def select_case2(
    alpha: np.ndarray,
    beta: np.ndarray,
    require_odd: bool = False,
) -> PairSelection:
    """Independent-configuration selection (the paper's Case-2).

    The two rings may select different units but must select equally many.
    Optimal without ``require_odd``; see the module docstring for the
    odd-count caveat.
    """
    return _one_row(select_case2_batch, alpha, beta, require_odd=require_odd)


def select_traditional(
    alpha: np.ndarray, beta: np.ndarray, require_odd: bool = False
) -> PairSelection:
    """The traditional RO PUF: every inverter included in both rings.

    Args:
        require_odd: force an odd selected count so the rings can free-run.
            A traditional ring over an even stage count would select all
            stages and latch instead of oscillating; parity is repaired by
            dropping the single stage (from *both* rings, keeping the
            shared-configuration property) whose removal best preserves the
            margin magnitude.  Odd stage counts are unaffected.
    """
    return _one_row(select_traditional_batch, alpha, beta, require_odd=require_odd)
