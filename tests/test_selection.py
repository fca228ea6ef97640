"""Unit and property tests of the Sec. III.D selection algorithms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.selection import (
    select_case1,
    select_case2,
    select_traditional,
)
from tests.selection_oracle import select_exhaustive

delay_vectors = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(0.5, 1.5, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(0.5, 1.5, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ),
    )
)


class TestCase1:
    def test_paper_sign_rule(self):
        alpha = np.array([1.0, 2.0, 3.0])
        beta = np.array([0.5, 2.5, 2.0])  # deltas: +0.5, -0.5, +1.0
        selection = select_case1(alpha, beta)
        # positive sum 1.5 > negative sum 0.5 -> select positive deltas
        assert selection.top_config.to_string() == "101"
        assert selection.top_config == selection.bottom_config
        assert selection.margin == pytest.approx(1.5)
        assert selection.bit is True

    def test_negative_direction_wins(self):
        alpha = np.array([1.0, 1.0])
        beta = np.array([3.0, 0.5])  # deltas: -2.0, +0.5
        selection = select_case1(alpha, beta)
        assert selection.top_config.to_string() == "10"
        assert selection.margin == pytest.approx(-2.0)
        assert selection.bit is False

    def test_degenerate_all_equal(self):
        alpha = np.ones(5)
        selection = select_case1(alpha, alpha.copy())
        assert selection.selected_count == 1
        assert selection.margin == pytest.approx(0.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            select_case1(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_case1(np.array([]), np.array([]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            select_case1(np.ones((2, 2)), np.ones((2, 2)))

    @given(delay_vectors)
    def test_optimal_vs_exhaustive(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        fast = select_case1(alpha, beta)
        brute = select_exhaustive(alpha, beta, same_config=True)
        assert fast.abs_margin == pytest.approx(brute.abs_margin, rel=1e-9)

    @given(delay_vectors)
    def test_margin_consistent_with_config(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        selection = select_case1(alpha, beta)
        mask = selection.top_config.as_array()
        recomputed = float(np.sum(alpha[mask]) - np.sum(beta[mask]))
        assert selection.margin == pytest.approx(recomputed, rel=1e-9)

    @given(delay_vectors)
    def test_require_odd_yields_odd_count(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        selection = select_case1(alpha, beta, require_odd=True)
        assert selection.selected_count % 2 == 1

    @given(delay_vectors)
    def test_require_odd_preserves_bit_outside_near_ties(self, vectors):
        # The parity adjustment costs at most max|delta| per direction, so
        # when |sum(delta)| exceeds twice that, the direction (and hence the
        # bit) cannot flip.  Near exact ties it legitimately can.
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        delta = alpha - beta
        if abs(np.sum(delta)) <= 2.0 * np.max(np.abs(delta)) + 1e-9:
            return
        free = select_case1(alpha, beta)
        odd = select_case1(alpha, beta, require_odd=True)
        assert odd.bit == free.bit

    @given(delay_vectors)
    def test_require_odd_optimal_among_odd(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        odd = select_case1(alpha, beta, require_odd=True)
        brute = select_exhaustive(alpha, beta, same_config=True, require_odd=True)
        assert odd.abs_margin == pytest.approx(brute.abs_margin, rel=1e-9)


class TestCase2:
    def test_beats_or_matches_case1(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            alpha = rng.normal(1.0, 0.1, n)
            beta = rng.normal(1.0, 0.1, n)
            c1 = select_case1(alpha, beta)
            c2 = select_case2(alpha, beta)
            assert c2.abs_margin >= c1.abs_margin - 1e-12

    def test_equal_selected_counts(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            alpha = rng.normal(1.0, 0.1, n)
            beta = rng.normal(1.0, 0.1, n)
            selection = select_case2(alpha, beta)
            assert (
                selection.top_config.selected_count
                == selection.bottom_config.selected_count
            )

    def test_known_example(self):
        alpha = np.array([5.0, 1.0])
        beta = np.array([4.0, 4.5])
        selection = select_case2(alpha, beta)
        # best: bottom faster direction loses to top? alpha max 5 - beta min 4
        # = 1 vs beta max 4.5 - alpha min 1 = 3.5 -> negative direction
        assert selection.margin == pytest.approx(-3.5)
        assert selection.top_config.to_string() == "01"
        assert selection.bottom_config.to_string() == "01"

    def test_degenerate_all_equal(self):
        alpha = np.ones(4)
        selection = select_case2(alpha, alpha.copy())
        assert selection.selected_count == 1
        assert selection.margin == pytest.approx(0.0)

    @given(delay_vectors)
    def test_optimal_vs_exhaustive(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        fast = select_case2(alpha, beta)
        brute = select_exhaustive(alpha, beta, same_config=False)
        assert fast.abs_margin == pytest.approx(brute.abs_margin, rel=1e-9)

    @given(delay_vectors)
    def test_margin_consistent_with_configs(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        selection = select_case2(alpha, beta)
        top = selection.top_config.as_array()
        bottom = selection.bottom_config.as_array()
        recomputed = float(np.sum(alpha[top]) - np.sum(beta[bottom]))
        assert selection.margin == pytest.approx(recomputed, rel=1e-9)

    @given(delay_vectors)
    def test_require_odd_yields_odd_equal_counts(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        selection = select_case2(alpha, beta, require_odd=True)
        assert selection.top_config.selected_count % 2 == 1
        assert (
            selection.top_config.selected_count
            == selection.bottom_config.selected_count
        )


class TestTraditional:
    def test_all_selected(self):
        alpha = np.array([1.0, 2.0])
        beta = np.array([1.5, 1.0])
        selection = select_traditional(alpha, beta)
        assert selection.top_config.selected_count == 2
        assert selection.margin == pytest.approx(0.5)

    @given(delay_vectors)
    def test_margin_is_total_difference(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        selection = select_traditional(alpha, beta)
        assert selection.margin == pytest.approx(
            float(np.sum(alpha) - np.sum(beta)), rel=1e-9
        )

    @given(delay_vectors)
    def test_require_odd_yields_odd_count(self, vectors):
        """Regression: require_odd used to be silently ignored (latching rings)."""
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        selection = select_traditional(alpha, beta, require_odd=True)
        assert selection.selected_count % 2 == 1
        assert selection.top_config.can_oscillate
        assert selection.top_config == selection.bottom_config

    def test_require_odd_odd_length_selects_all(self):
        alpha = np.array([1.0, 2.0, 3.0])
        beta = np.array([1.5, 1.0, 2.5])
        selection = select_traditional(alpha, beta, require_odd=True)
        assert selection.selected_count == 3

    def test_require_odd_even_length_drops_best_stage(self):
        # deltas: -0.5, +1.0, +0.5, +1.0 -> total +2.0.  Dropping the -0.5
        # stage leaves the largest magnitude margin (+2.5).
        alpha = np.array([1.0, 2.0, 3.0, 4.0])
        beta = np.array([1.5, 1.0, 2.5, 3.0])
        selection = select_traditional(alpha, beta, require_odd=True)
        assert selection.selected_count == 3
        assert selection.top_config.to_string() == "0111"
        assert selection.margin == pytest.approx(2.5)

    @given(delay_vectors)
    def test_require_odd_drop_is_optimal(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        if len(alpha) % 2 == 1:
            return
        selection = select_traditional(alpha, beta, require_odd=True)
        delta = alpha - beta
        total = float(np.sum(delta))
        best_single_drop = float(np.max(np.abs(total - delta)))
        assert selection.abs_margin == pytest.approx(best_single_drop, rel=1e-9)


class TestBitSignIdentity:
    """Case-1, Case-2 and traditional produce the same bit (DESIGN.md).

    The identity: the Case-1 direction choice compares Delta+ with -Delta-,
    whose difference is sum(Delta); the Case-2 direction sums satisfy
    best_neg = best_pos - sum(Delta) when the count ranges over 0..n.  So
    outside exact ties all three bits equal sign(sum(alpha) - sum(beta)).
    """

    @given(delay_vectors)
    def test_all_three_bits_agree(self, vectors):
        alpha, beta = np.array(vectors[0]), np.array(vectors[1])
        traditional = select_traditional(alpha, beta)
        if abs(traditional.margin) < 1e-9:
            return  # exact tie: direction is arbitrary
        c1 = select_case1(alpha, beta)
        c2 = select_case2(alpha, beta)
        assert c1.bit == traditional.bit
        assert c2.bit == traditional.bit


class TestExhaustive:
    def test_rejects_large_rings(self):
        with pytest.raises(ValueError, match="exhaustive"):
            select_exhaustive(np.ones(13), np.ones(13), same_config=True)

    def test_case2_counts_equal(self):
        rng = np.random.default_rng(2)
        alpha = rng.normal(1, 0.1, 5)
        beta = rng.normal(1, 0.1, 5)
        brute = select_exhaustive(alpha, beta, same_config=False)
        assert (
            brute.top_config.selected_count == brute.bottom_config.selected_count
        )

    def test_require_odd(self):
        rng = np.random.default_rng(3)
        alpha = rng.normal(1, 0.1, 6)
        beta = rng.normal(1, 0.1, 6)
        brute = select_exhaustive(
            alpha, beta, same_config=True, require_odd=True
        )
        assert brute.top_config.selected_count % 2 == 1
