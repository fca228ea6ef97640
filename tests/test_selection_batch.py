"""Batch selectors: byte-identity with the reference oracle and exhaustive search."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import selection, selection_ext
from repro.core.selection_batch import (
    BATCH_SELECTION_METHODS,
    masked_row_sums,
    select_case1_batch,
    select_case2_batch,
    select_traditional_batch,
    select_unconstrained_batch,
)
from tests import selection_oracle as oracle

SCALAR_BY_METHOD = {
    "case1": oracle.select_case1,
    "case2": oracle.select_case2,
    "traditional": oracle.select_traditional,
}


# Integer-valued float delays keep every sum exact in any evaluation order,
# so batch / oracle / exhaustive must agree deterministically (including
# ties, which integers produce often).
delta_rows = st.lists(
    st.lists(
        st.integers(min_value=-50, max_value=50).map(float),
        min_size=1,
        max_size=10,
    ),
    min_size=1,
    max_size=8,
)


def _pair_matrices(rows: list[list[float]]) -> tuple[np.ndarray, np.ndarray]:
    width = len(rows[0])
    usable = [r for r in rows if len(r) == width]
    alpha = np.array(usable)
    beta = -alpha[::-1] if len(usable) > 1 else np.zeros_like(alpha)
    return alpha, beta


def _draw_pair_matrices(rows, data) -> tuple[np.ndarray, np.ndarray]:
    width = len(rows[0])
    alpha = np.array([r for r in rows if len(r) == width])
    beta = np.array(
        [
            data.draw(
                st.lists(
                    st.integers(min_value=-50, max_value=50).map(float),
                    min_size=width,
                    max_size=width,
                )
            )
            for _ in range(len(alpha))
        ]
    )
    return alpha, beta


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("method", sorted(BATCH_SELECTION_METHODS))
    @pytest.mark.parametrize("require_odd", [False, True])
    @given(rows=delta_rows, data=st.data())
    def test_batch_matches_scalar(self, method, require_odd, rows, data):
        alpha, beta = _draw_pair_matrices(rows, data)
        batch = BATCH_SELECTION_METHODS[method](alpha, beta, require_odd=require_odd)
        selections = batch.to_selections()
        scalar = SCALAR_BY_METHOD[method]
        for i in range(len(alpha)):
            expected = scalar(alpha[i], beta[i], require_odd=require_odd)
            assert selections[i] == expected
            assert batch.margins[i] == expected.margin

    @given(rows=delta_rows, data=st.data())
    def test_unconstrained_batch_matches_oracle(self, rows, data):
        alpha, beta = _draw_pair_matrices(rows, data)
        selections = select_unconstrained_batch(alpha, beta).to_selections()
        for i in range(len(alpha)):
            assert selections[i] == oracle.select_unconstrained(alpha[i], beta[i])

    @pytest.mark.parametrize(
        "view, batch_selector, kwargs",
        [
            (selection.select_case1, select_case1_batch, {}),
            (selection.select_case1, select_case1_batch, {"require_odd": True}),
            (selection.select_case2, select_case2_batch, {}),
            (selection.select_case2, select_case2_batch, {"require_odd": True}),
            (selection.select_traditional, select_traditional_batch, {}),
            (
                selection.select_traditional,
                select_traditional_batch,
                {"require_odd": True},
            ),
            (selection_ext.select_unconstrained, select_unconstrained_batch, {}),
        ],
    )
    def test_one_row_views_match_batch_rows(self, view, batch_selector, kwargs):
        rng = np.random.default_rng(7)
        alpha = rng.normal(1.0, 0.05, (16, 6))
        beta = rng.normal(1.0, 0.05, (16, 6))
        rows = batch_selector(alpha, beta, **kwargs).to_selections()
        for i in range(len(alpha)):
            assert view(alpha[i], beta[i], **kwargs) == rows[i]

    @pytest.mark.parametrize(
        "view",
        [
            selection.select_case1,
            selection.select_case2,
            selection.select_traditional,
            selection_ext.select_unconstrained,
        ],
    )
    def test_one_row_views_validate_like_pairs(self, view):
        with pytest.raises(ValueError, match="empty"):
            view(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="1-D"):
            view(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="differ in length"):
            view(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("method", ["case1", "case2"])
    @pytest.mark.parametrize("require_odd", [False, True])
    @example(rows=[[0.0, 0.0, 0.0], [-2.0, -2.0, 3.0]])
    @given(rows=delta_rows)
    def test_batch_matches_exhaustive_margin(self, method, require_odd, rows):
        alpha, beta = _pair_matrices(rows)
        batch = BATCH_SELECTION_METHODS[method](alpha, beta, require_odd=require_odd)
        greedy_optimal = not (method == "case2" and require_odd)
        for i in range(len(alpha)):
            reference = oracle.select_exhaustive(
                alpha[i],
                beta[i],
                same_config=method == "case1",
                require_odd=require_odd,
            )
            if greedy_optimal:
                assert abs(batch.margins[i]) == abs(reference.margin)
            else:
                # Case-2 picks its direction from the pre-repair prefix
                # sums, so parity repair can leave it short of exhaustive
                # (e.g. alpha=[0,0,0], beta=[2,2,-3]); exhaustive is still
                # an upper bound, and batch == oracle is pinned above.
                assert abs(batch.margins[i]) <= abs(reference.margin)


class TestEdgeCases:
    def test_all_negative_delta_case1(self):
        # Every unit hurts the positive direction: the positive branch must
        # fall back to the single least-bad unit, and the negative branch
        # should win overall.
        alpha = np.array([[1.0, 2.0, 3.0]])
        beta = np.array([[5.0, 7.0, 9.0]])
        batch = select_case1_batch(alpha, beta)
        scalar = oracle.select_case1(alpha[0], beta[0])
        assert batch.to_selections()[0] == scalar
        assert batch.margins[0] < 0

    def test_parity_add_and_drop_branches(self):
        # Row 0: cheaper to add a unit; row 1: cheaper to drop one.  Both
        # must mirror the oracle's repair (and each other's counts stay odd).
        alpha = np.array([[10.0, 8.0, -0.5, -9.0], [10.0, 8.0, -6.0, -9.0]])
        beta = np.zeros_like(alpha)
        batch = select_case1_batch(alpha, beta, require_odd=True)
        for i in range(2):
            scalar = oracle.select_case1(alpha[i], beta[i], require_odd=True)
            assert batch.to_selections()[i] == scalar
            assert batch.top_masks[i].sum() % 2 == 1

    def test_tied_delays(self):
        # Exact ties exercise every first-index tie-break at once.
        alpha = np.array([[3.0, 3.0, 3.0, 3.0], [1.0, 1.0, 2.0, 2.0]])
        beta = np.array([[3.0, 3.0, 3.0, 3.0], [2.0, 2.0, 1.0, 1.0]])
        for method, scalar in SCALAR_BY_METHOD.items():
            for require_odd in (False, True):
                batch = BATCH_SELECTION_METHODS[method](
                    alpha, beta, require_odd=require_odd
                )
                for i in range(2):
                    assert batch.to_selections()[i] == scalar(
                        alpha[i], beta[i], require_odd=require_odd
                    )
        unconstrained = select_unconstrained_batch(alpha, beta).to_selections()
        for i in range(2):
            assert unconstrained[i] == oracle.select_unconstrained(alpha[i], beta[i])

    def test_shared_config_object_for_case1(self):
        batch = select_case1_batch(np.ones((3, 5)), np.zeros((3, 5)))
        selections = batch.to_selections()
        for selection in selections:
            assert selection.top_config is selection.bottom_config

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            select_case1_batch(np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="differ in shape"):
            select_case2_batch(np.ones((2, 5)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="empty"):
            select_traditional_batch(np.ones((2, 0)), np.ones((2, 0)))

    def test_bits_follow_margin_sign(self):
        alpha = np.array([[5.0, 5.0], [1.0, 1.0]])
        beta = np.array([[1.0, 1.0], [5.0, 5.0]])
        batch = select_traditional_batch(alpha, beta)
        assert batch.bits.tolist() == [True, False]


class TestMaskedRowSums:
    def test_matches_scalar_np_sum(self):
        # Continuous data, widths straddling numpy's pairwise-summation
        # threshold: the helper must be bit-identical to np.sum over the
        # compressed row in every case (this is what the batch selectors'
        # byte-identity rests on — a numpy upgrade that changes summation
        # internals must fail here, loudly).
        rng = np.random.default_rng(42)
        for width in range(1, 17):
            values = rng.normal(1e-9, 1e-10, size=(64, width))
            mask = rng.random(size=(64, width)) < rng.random((64, 1))
            sums = masked_row_sums(values, mask)
            for i in range(64):
                assert sums[i] == np.sum(values[i, mask[i]])

    def test_empty_rows_sum_to_zero(self):
        values = np.full((3, 5), 7.0)
        mask = np.zeros((3, 5), dtype=bool)
        assert masked_row_sums(values, mask).tolist() == [0.0, 0.0, 0.0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal-shape"):
            masked_row_sums(np.ones((2, 3)), np.ones((3, 2), dtype=bool))
