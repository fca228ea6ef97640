"""The dense kernel set: bit-identity with the reference computations.

Every kernel in :mod:`repro.backends` is pinned **bit-for-bit** to the
reference it replaced — masked row sums, pair/sweep delay sums (both the
ring-mask sweep and its shared-ring gather fallback), the leave-one-out
solve, and the integer Gram update — so dispatching through it changes
no output anywhere.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import (
    _SEQUENTIAL_SUM_WIDTH,
    NumpyBackend,
    current_backend,
    gather_sweep_delay_sums,
)


def _reference_masked_row_sums(values: np.ndarray, mask: np.ndarray):
    return np.array(
        [np.sum(values[p, mask[p]]) for p in range(len(values))]
    )


@st.composite
def masked_rows(draw):
    rows = draw(st.integers(min_value=1, max_value=40))
    cols = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=draw(st.sampled_from([1.0, 1e-10])), size=(rows, cols))
    mask = rng.random((rows, cols)) < draw(st.floats(0.0, 1.0))
    return values, mask


@st.composite
def sweep_problems(draw, max_stages=8, shared_rings=False):
    ops = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(st.integers(min_value=1, max_value=24))
    stages = draw(st.integers(min_value=1, max_value=max_stages))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if shared_rings and draw(st.booleans()):
        # Fewer rings than masks: some ring feeds several mask rows.
        rings = draw(st.integers(min_value=1, max_value=2 * pairs - 1))
        top_rings = rng.integers(0, rings, size=pairs)
        bottom_rings = rng.integers(0, rings, size=pairs)
    else:
        rings = 2 * pairs + draw(st.integers(min_value=0, max_value=4))
        order = rng.permutation(rings)
        top_rings, bottom_rings = order[:pairs], order[pairs : 2 * pairs]
    stacked = rng.normal(size=(ops, rings, stages))
    top_masks = (rng.random((pairs, stages)) < 0.5).astype(float)
    bottom_masks = (rng.random((pairs, stages)) < 0.5).astype(float)
    return stacked, top_rings, bottom_rings, top_masks, bottom_masks


@st.composite
def loo_problems(draw):
    rings = draw(st.integers(min_value=1, max_value=24))
    stages = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    selected = rng.normal(loc=1.0, scale=0.05, size=(rings, stages))
    bypass = rng.normal(loc=0.4, scale=0.02, size=(rings, stages))
    config_masks = np.ones((stages + 1, stages), dtype=bool)
    config_masks[1:] ^= np.eye(stages, dtype=bool)
    return selected, bypass, config_masks


class TestNumpyBackendBitIdentity:
    """Every kernel reproduces its reference computation bit-for-bit."""

    @given(problem=masked_rows())
    def test_masked_row_sums_exact(self, problem):
        values, mask = problem
        got = NumpyBackend().masked_row_sums(values, mask)
        assert np.array_equal(got, _reference_masked_row_sums(values, mask))

    @given(problem=sweep_problems())
    def test_pair_and_sweep_sums_exact(self, problem):
        stacked, top_rings, bottom_rings, top_masks, bottom_masks = problem
        backend = NumpyBackend()
        top, bottom = backend.sweep_pair_delay_sums(
            stacked, top_rings, bottom_rings, top_masks, bottom_masks
        )
        want_top = np.einsum("ops,ps->op", stacked[:, top_rings, :], top_masks)
        want_bottom = np.einsum(
            "ops,ps->op", stacked[:, bottom_rings, :], bottom_masks
        )
        assert np.array_equal(top, want_top)
        assert np.array_equal(bottom, want_bottom)
        # the single-op kernel is the sweep's row: same reduction, same bits
        row = backend.pair_delay_sums(stacked[0, top_rings, :], top_masks)
        assert np.array_equal(row, want_top[0])

    @given(problem=sweep_problems(max_stages=15, shared_rings=True))
    def test_ring_mask_sweep_equals_gather(self, problem):
        # The production sweep (one ring-mask einsum, or the gather
        # fallback when rings are shared) against the gather form, bit
        # for bit, including stage widths past numpy's sequential regime.
        got = NumpyBackend().sweep_pair_delay_sums(*problem)
        want = gather_sweep_delay_sums(*problem)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_shared_ring_fallback_matches_gather(self):
        # One ring feeding several masks must take the gather fallback
        # (the ring-mask scatter would clobber) and match it exactly.
        rng = np.random.default_rng(11)
        stacked = rng.normal(size=(3, 8, 4))
        top_rings = np.zeros(5, dtype=int)  # everyone shares ring 0
        bottom_rings = np.arange(1, 6)
        top_masks = (rng.random((5, 4)) < 0.5).astype(float)
        bottom_masks = (rng.random((5, 4)) < 0.5).astype(float)
        got = NumpyBackend().sweep_pair_delay_sums(
            stacked, top_rings, bottom_rings, top_masks, bottom_masks
        )
        want_top = np.stack(
            [[stacked[o, 0] @ top_masks[p] for p in range(5)] for o in range(3)]
        )
        assert np.allclose(got[0], want_top)
        want = gather_sweep_delay_sums(
            stacked, top_rings, bottom_rings, top_masks, bottom_masks
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @given(problem=loo_problems())
    def test_loo_solve_exact(self, problem):
        selected, bypass, config_masks = problem
        backend = NumpyBackend()
        delays = backend.loo_delay_matrix(selected, bypass, config_masks)
        want = np.where(
            config_masks[None, :, :], selected[:, None, :], bypass[:, None, :]
        ).sum(axis=2)
        assert np.array_equal(delays, want)
        assert np.array_equal(
            backend.loo_ddiffs(delays), delays[:, 0:1] - delays[:, 1:]
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rows=st.integers(min_value=1, max_value=200),
        bits=st.integers(min_value=1, max_value=16),
    )
    def test_gram_update_integer_exact(self, seed, rows, bits):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(rows, bits)).astype(np.int64)
        gram = np.zeros((bits, bits), dtype=np.int64)
        NumpyBackend().gram_update(gram, x)
        assert np.array_equal(gram, x.T @ x)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=0, max_value=_SEQUENTIAL_SUM_WIDTH),
        width=st.integers(min_value=0, max_value=_SEQUENTIAL_SUM_WIDTH),
    )
    def test_sequential_sum_width_invariant(self, seed, count, width):
        # The fast path's premise: numpy sums rows this narrow left to
        # right, so trailing zero padding cannot change the bits.
        count = min(count, width)
        values = np.random.default_rng(seed).normal(size=count)
        padded = np.zeros(width)
        padded[:count] = values
        assert padded.sum() == np.sum(values)


def _board_puf(method: str = "case1", seed: int = 7):
    from repro.core.pairing import RingAllocation
    from repro.core.puf import BoardROPUF
    from repro.variation.noise import NoiselessMeasurement

    data_rng = np.random.default_rng(42)
    base = data_rng.normal(1.0, 0.02, 120)
    sensitivity = data_rng.normal(0.05, 0.01, 120)

    def provider(op):
        return base * (1.0 + sensitivity * (1.20 - op.voltage))

    return BoardROPUF(
        delay_provider=provider,
        allocation=RingAllocation(stage_count=5, ring_count=24),
        method=method,
        response_noise=NoiselessMeasurement(),
        rng=np.random.default_rng(seed),
    )


class TestEngineLevelIdentity:
    """Through the real engines: the kernels reproduce the loop outputs."""

    def test_sweep_engine_matches_reference_loop(self):
        from repro.core.batch import BatchEvaluator, response_loop_reference
        from repro.variation.environment import OperatingPoint

        ops = [
            OperatingPoint(voltage=v, temperature=25.0)
            for v in (0.98, 1.20, 1.44)
        ]
        puf = _board_puf(method="case2")
        enrollment = puf.enroll()
        looped = np.stack(
            [response_loop_reference(puf, enrollment, op) for op in ops]
        )
        swept = BatchEvaluator.from_puf(puf, enrollment).response_sweep(ops)
        assert np.array_equal(swept, looped)


class TestCurrentBackend:
    def test_current_backend_is_the_numpy_kernel_set(self):
        backend = current_backend()
        assert isinstance(backend, NumpyBackend)
        assert backend.name == "numpy"
        assert current_backend() is backend

    def test_backend_counters_recorded(self):
        from repro import obs

        obs.reset_metrics()
        obs.enable_metrics()
        try:
            NumpyBackend().masked_row_sums(
                np.ones((4, 3)), np.ones((4, 3), dtype=bool)
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable_metrics()
            obs.reset_metrics()
        assert counters["backend.numpy.calls"] == 1
        assert counters["backend.numpy.masked_row_sums.elements"] == 12
