"""Configuration-leakage attack: can the stored configs reveal the bits?

The paper's Sec. III.D imposes equal selected counts on the two rings "for
security concern because the one that uses fewer inverters will most likely
be faster, making it easier for an attacker to guess the bit value".  This
module turns that sentence into an experiment: an attacker who reads the
(non-secret) configuration vectors from device memory trains a classifier
to predict the PUF bits.

* against :func:`~repro.core.selection_batch.select_unconstrained_batch`
  (counts free) the count difference is an almost perfect predictor;
* against Case-1/Case-2 (equal counts) accuracy stays at chance, validating
  the constraint.

Each scheme selects every pair in one batch call; the attacker's features
come straight from the mask matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.selection_batch import BatchSelection
from .logistic import LogisticRegression

__all__ = ["LeakageResult", "config_features", "evaluate_config_leakage"]


def config_features(selection: BatchSelection) -> np.ndarray:
    """Attacker-visible features of every pair's configuration.

    Row ``p`` holds the two selection-count summaries of pair ``p`` plus
    the raw configuration bits of both rings — everything stored in the
    clear: ``(pair, 2 + 2 * stage)``.
    """
    top = selection.top_masks.astype(float)
    bottom = selection.bottom_masks.astype(float)
    top_counts = top.sum(axis=1)
    bottom_counts = bottom.sum(axis=1)
    return np.column_stack(
        [top_counts - bottom_counts, top_counts + bottom_counts, top, bottom]
    )


@dataclass
class LeakageResult:
    """Outcome of one leakage evaluation.

    Attributes:
        scheme: name of the selection scheme attacked.
        accuracy: attacker's bit-prediction accuracy on held-out pairs.
        chance: majority-class baseline on the held-out pairs.
        train_pairs / test_pairs: split sizes.
    """

    scheme: str
    accuracy: float
    chance: float
    train_pairs: int
    test_pairs: int

    @property
    def advantage(self) -> float:
        """Accuracy above the majority-class baseline."""
        return self.accuracy - self.chance


def evaluate_config_leakage(
    selector: Callable[[np.ndarray, np.ndarray], BatchSelection],
    scheme: str,
    alpha: np.ndarray,
    beta: np.ndarray,
    train_fraction: float = 0.5,
    seed: int = 0,
) -> LeakageResult:
    """Train/evaluate the configuration-leakage attacker on delay pairs.

    Args:
        selector: the batch selection scheme under attack, e.g.
            :func:`~repro.core.selection_batch.select_case1_batch`.
        scheme: label for reports.
        alpha: ``(pair, stage)`` per-unit delays of the top rings.
        beta: same for the bottom rings.
        train_fraction: fraction of pairs used to train the attacker.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if len(alpha) < 10:
        raise ValueError("need at least 10 pairs for a meaningful attack")

    selection = selector(alpha, beta)
    features = config_features(selection)
    labels = selection.bits

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labels))
    split = int(len(labels) * train_fraction)
    train_idx, test_idx = order[:split], order[split:]

    model = LogisticRegression().fit(features[train_idx], labels[train_idx])
    accuracy = model.accuracy(features[test_idx], labels[test_idx])
    test_labels = labels[test_idx]
    chance = float(max(np.mean(test_labels), 1.0 - np.mean(test_labels)))
    return LeakageResult(
        scheme=scheme,
        accuracy=accuracy,
        chance=chance,
        train_pairs=len(train_idx),
        test_pairs=len(test_idx),
    )
