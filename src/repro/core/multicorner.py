"""Multi-corner enrollment: configurations robust at *every* corner.

Fig. 4 shows that the paper's single-corner enrollment works best when the
test corner sits mid-range ("The best configuration determined by using
the dataset at the middle voltage value often yields the lowest percentage
of bit flips").  The natural extension — enroll with measurements from
several corners and choose the configuration maximising the *worst-case*
margin — removes the enrollment-corner sensitivity altogether.

For Case-1 the worst-case-margin objective is no longer solved by the
sign rule (a unit can help at one corner and hurt at another), so we use
a greedy ascent with a provable starting point plus local improvement.
The test suite bounds the greedy's gap with a brute-force search
(``tests/selection_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from .config_vector import ConfigVector
from .selection import PairSelection, _validate_pair

__all__ = [
    "select_case1_multicorner",
    "worst_case_margin",
]


def _stack_deltas(
    alphas: list[np.ndarray], betas: list[np.ndarray]
) -> np.ndarray:
    if len(alphas) == 0 or len(alphas) != len(betas):
        raise ValueError("need the same non-zero number of alpha/beta vectors")
    deltas = []
    length = None
    for alpha, beta in zip(alphas, betas):
        alpha, beta = _validate_pair(alpha, beta)
        if length is None:
            length = len(alpha)
        elif len(alpha) != length:
            raise ValueError("all corners must describe the same ring length")
        deltas.append(alpha - beta)
    return np.stack(deltas)  # (corners, units)


def worst_case_margin(deltas: np.ndarray, selected: np.ndarray) -> float:
    """Signed worst-case margin of a shared selection across corners.

    The value is the margin whose |.| is smallest across corners if all
    corners agree in sign, else 0-crossing is reported as the signed
    margin closest to zero.
    """
    sums = deltas[:, selected].sum(axis=1)
    index = int(np.argmin(np.abs(sums)))
    return float(sums[index])


def select_case1_multicorner(
    alphas: list[np.ndarray], betas: list[np.ndarray]
) -> PairSelection:
    """Shared-configuration selection maximising the worst-corner margin.

    Args:
        alphas / betas: per-corner delay (ddiff) vectors of the two rings.

    Strategy: start from the best single-corner Case-1 solution evaluated
    under the worst-case objective (one candidate per corner and sign
    direction), then greedily toggle single units while the worst-case
    |margin| improves.  Exact for one corner; within a few percent of
    exhaustive on small rings (see tests).
    """
    deltas = _stack_deltas(alphas, betas)
    corners, units = deltas.shape

    candidates = []
    for corner in range(corners):
        for sign in (1.0, -1.0):
            selected = (sign * deltas[corner]) > 0.0
            if not np.any(selected):
                selected = np.zeros(units, dtype=bool)
                selected[int(np.argmax(sign * deltas[corner]))] = True
            candidates.append(selected)
    # Also seed with the average-corner solution.
    mean_delta = deltas.mean(axis=0)
    for sign in (1.0, -1.0):
        selected = (sign * mean_delta) > 0.0
        if np.any(selected):
            candidates.append(selected)

    best = max(
        candidates, key=lambda s: abs(worst_case_margin(deltas, s))
    ).copy()
    best_value = abs(worst_case_margin(deltas, best))

    improved = True
    while improved:
        improved = False
        for unit in range(units):
            trial = best.copy()
            trial[unit] = not trial[unit]
            if not np.any(trial):
                continue
            value = abs(worst_case_margin(deltas, trial))
            if value > best_value + 1e-18:
                best = trial
                best_value = value
                improved = True

    config = ConfigVector.from_array(best)
    return PairSelection(
        top_config=config,
        bottom_config=config,
        margin=worst_case_margin(deltas, best),
        method="case1-multicorner",
    )
