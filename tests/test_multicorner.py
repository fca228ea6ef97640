"""Tests of multi-corner enrollment selection."""

import numpy as np
import pytest

from repro.core.multicorner import select_case1_multicorner, worst_case_margin
from repro.core.selection import select_case1
from tests.selection_oracle import select_multicorner_exhaustive


def random_corners(rng, corners=3, units=6, drift=0.2):
    base_alpha = rng.normal(1.0, 0.1, units)
    base_beta = rng.normal(1.0, 0.1, units)
    alphas, betas = [], []
    for _ in range(corners):
        alphas.append(base_alpha * (1 + rng.normal(0, drift, units) * 0.1))
        betas.append(base_beta * (1 + rng.normal(0, drift, units) * 0.1))
    return alphas, betas


class TestWorstCaseMargin:
    def test_single_corner_is_plain_margin(self):
        deltas = np.array([[0.5, -0.2, 0.1]])
        selected = np.array([True, False, True])
        assert worst_case_margin(deltas, selected) == pytest.approx(0.6)

    def test_picks_weakest_corner(self):
        deltas = np.array([[1.0, 1.0], [0.1, 0.1]])
        selected = np.array([True, True])
        assert worst_case_margin(deltas, selected) == pytest.approx(0.2)

    def test_sign_flip_across_corners_reports_weakest(self):
        deltas = np.array([[1.0], [-0.3]])
        selected = np.array([True])
        assert worst_case_margin(deltas, selected) == pytest.approx(-0.3)


class TestSelectMulticorner:
    def test_single_corner_matches_case1(self, rng):
        for _ in range(30):
            alpha = rng.normal(1.0, 0.1, 6)
            beta = rng.normal(1.0, 0.1, 6)
            multi = select_case1_multicorner([alpha], [beta])
            single = select_case1(alpha, beta)
            assert abs(multi.margin) >= single.abs_margin - 1e-12

    def test_near_exhaustive_on_small_rings(self, rng):
        gaps = []
        for _ in range(25):
            alphas, betas = random_corners(rng, corners=3, units=6)
            greedy = select_case1_multicorner(alphas, betas)
            brute = select_multicorner_exhaustive(alphas, betas)
            gaps.append(abs(greedy.margin) / max(abs(brute.margin), 1e-30))
        assert np.mean(gaps) > 0.9
        assert np.min(gaps) > 0.5

    def test_beats_single_corner_worst_case(self, rng):
        wins = 0
        trials = 40
        for _ in range(trials):
            alphas, betas = random_corners(rng, corners=4, units=8, drift=1.0)
            deltas = np.stack([a - b for a, b in zip(alphas, betas)])
            multi = select_case1_multicorner(alphas, betas)
            single = select_case1(alphas[0], betas[0])
            single_worst = abs(
                worst_case_margin(deltas, single.top_config.as_array())
            )
            if abs(multi.margin) >= single_worst - 1e-15:
                wins += 1
        assert wins == trials  # never worse than first-corner enrollment

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            select_case1_multicorner([], [])
        with pytest.raises(ValueError):
            select_case1_multicorner(
                [rng.normal(1, 0.1, 4)], [rng.normal(1, 0.1, 5)]
            )
        with pytest.raises(ValueError):
            select_case1_multicorner(
                [rng.normal(1, 0.1, 4), rng.normal(1, 0.1, 5)],
                [rng.normal(1, 0.1, 4), rng.normal(1, 0.1, 5)],
            )

    def test_exhaustive_ring_limit(self, rng):
        alphas = [rng.normal(1, 0.1, 15)]
        betas = [rng.normal(1, 0.1, 15)]
        with pytest.raises(ValueError, match="exhaustive"):
            select_multicorner_exhaustive(alphas, betas)

    def test_shared_config(self, rng):
        alphas, betas = random_corners(rng)
        selection = select_case1_multicorner(alphas, betas)
        assert selection.top_config == selection.bottom_config
        assert selection.method == "case1-multicorner"
