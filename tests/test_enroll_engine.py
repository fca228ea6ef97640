"""The batch enrollment engine: byte-identity pins and draw-order contracts."""

import numpy as np
import pytest

from repro.core.batch import chip_enroll_loop_reference, enroll_loop_reference
from repro.core.measurement import (
    ENROLL_DRAW_ORDER,
    DelayMeasurer,
    leave_one_out_vectors,
    measure_ddiffs_leave_one_out,
    measure_ddiffs_leave_one_out_batch,
)
from repro.core.pairing import RingAllocation
from repro.core.puf import BoardROPUF, ChipROPUF
from repro.silicon.fabrication import FabricationProcess
from repro.variation.environment import NOMINAL_OPERATING_POINT, OperatingPoint
from repro.variation.noise import GaussianNoise, NoiselessMeasurement


def _board(stage_count: int, ring_count: int = 16, seed: int = 3):
    rng = np.random.default_rng(seed)
    delays = rng.normal(1e-9, 1.2e-10, size=stage_count * ring_count + 5)
    return lambda op: delays * (1.0 + 0.01 * (op.voltage - 1.20))


def _ops(count: int) -> list[OperatingPoint]:
    return [
        OperatingPoint(voltage=1.08 + 0.06 * i, temperature=25.0) for i in range(count)
    ]


class TestBoardEnrollByteIdentity:
    @pytest.mark.parametrize("method", ["case1", "case2", "traditional"])
    @pytest.mark.parametrize("require_odd", [False, True])
    @pytest.mark.parametrize("stage_count", [5, 9, 15])
    def test_enroll_equals_loop_reference(self, method, require_odd, stage_count):
        allocation = RingAllocation(stage_count=stage_count, ring_count=16)
        puf = BoardROPUF(
            delay_provider=_board(stage_count),
            allocation=allocation,
            method=method,
            require_odd=require_odd,
        )
        batch = puf.enroll()
        loop = enroll_loop_reference(puf, NOMINAL_OPERATING_POINT)
        assert np.array_equal(batch.bits, loop.bits)
        assert np.array_equal(batch.margins, loop.margins)
        assert batch.selections == loop.selections

    def test_enroll_sweep_equals_per_corner_enrolls(self):
        allocation = RingAllocation(stage_count=7, ring_count=16)
        puf = BoardROPUF(
            delay_provider=_board(7),
            allocation=allocation,
            method="case2",
            require_odd=True,
        )
        ops = _ops(4)
        sweep = puf.enroll_sweep(ops)
        assert len(sweep) == len(ops)
        for op, enrollment in zip(ops, sweep):
            single = puf.enroll(op)
            assert enrollment.operating_point == op
            assert np.array_equal(enrollment.bits, single.bits)
            assert np.array_equal(enrollment.margins, single.margins)
            assert enrollment.selections == single.selections

    def test_enroll_sweep_rejects_empty(self):
        puf = BoardROPUF(
            delay_provider=_board(5),
            allocation=RingAllocation(stage_count=5, ring_count=16),
        )
        with pytest.raises(ValueError, match="no operating points"):
            puf.enroll_sweep([])


@pytest.fixture
def small_chip():
    return FabricationProcess().fabricate(
        220, np.random.default_rng(17), name="enroll-engine"
    )


def _chip_puf(chip, method="case1", noise=None, repeats=3, seed=0, **kwargs):
    measurer = DelayMeasurer(
        noise=noise if noise is not None else NoiselessMeasurement(),
        repeats=repeats,
        rng=np.random.default_rng(seed),
    )
    allocation = RingAllocation(stage_count=5, ring_count=8)
    return ChipROPUF(
        chip=chip,
        allocation=allocation,
        method=method,
        measurer=measurer,
        **kwargs,
    )


class TestChipEnrollEngine:
    def test_default_enroll_matches_loop_reference(self, small_chip):
        # The default per-pair path must keep its legacy draw order.
        noisy = GaussianNoise(relative_sigma=5e-4)
        puf_a = _chip_puf(small_chip, noise=noisy, seed=9)
        puf_b = _chip_puf(small_chip, noise=GaussianNoise(relative_sigma=5e-4), seed=9)
        enrollment = puf_a.enroll()
        reference = chip_enroll_loop_reference(puf_b, NOMINAL_OPERATING_POINT)
        assert np.array_equal(enrollment.bits, reference.bits)
        assert np.array_equal(enrollment.margins, reference.margins)
        assert enrollment.selections == reference.selections

    @pytest.mark.parametrize("method", ["case1", "case2", "traditional"])
    def test_enroll_batch_noiseless_equals_legacy(self, small_chip, method):
        batch = _chip_puf(small_chip, method=method).enroll_batch()
        legacy = _chip_puf(small_chip, method=method).enroll()
        assert np.array_equal(batch.bits, legacy.bits)
        assert np.array_equal(batch.margins, legacy.margins)
        assert batch.selections == legacy.selections

    def test_enroll_sweep_noiseless_equals_enroll_batch(self, small_chip):
        ops = _ops(3)
        sweep = _chip_puf(small_chip, method="case2").enroll_sweep(ops)
        for op, enrollment in zip(ops, sweep):
            single = _chip_puf(small_chip, method="case2").enroll_batch(op)
            assert enrollment.operating_point == op
            assert np.array_equal(enrollment.bits, single.bits)
            assert np.array_equal(enrollment.margins, single.margins)
            assert enrollment.selections == single.selections

    def test_enroll_batch_draw_order_contract(self, small_chip):
        # "enroll-v1": the (ring, config) leave-one-out matrix is observed
        # first, then the top reference vector, then the bottom one.
        # Replicate those three draws manually with an identically-seeded
        # measurer and check enroll_batch consumed the generator the same
        # way.
        noise = GaussianNoise(relative_sigma=5e-4)
        puf = _chip_puf(small_chip, noise=noise, seed=21)
        enrollment = puf.enroll_batch()

        replica = DelayMeasurer(
            noise=GaussianNoise(relative_sigma=5e-4),
            repeats=3,
            rng=np.random.default_rng(21),
        )
        allocation = puf.allocation
        rings = [puf.ring(index) for index in range(allocation.ring_count)]
        estimate = measure_ddiffs_leave_one_out_batch(replica, rings)
        pairs = allocation.pair_ring_matrix()
        selections = enrollment.selections
        top_true = np.array(
            [
                rings[pairs[p, 0]].chain_delay(selections[p].top_config)
                for p in range(allocation.pair_count)
            ]
        )
        bottom_true = np.array(
            [
                rings[pairs[p, 1]].chain_delay(selections[p].bottom_config)
                for p in range(allocation.pair_count)
            ]
        )
        top_obs = replica.noise.observe_averaged(top_true, replica.rng, replica.repeats)
        bottom_obs = replica.noise.observe_averaged(
            bottom_true, replica.rng, replica.repeats
        )
        assert np.array_equal(enrollment.bits, top_obs > bottom_obs)
        # and the selections came from exactly those batch ddiffs
        ddiffs_top = estimate.ddiffs[pairs[:, 0]]
        assert ddiffs_top.shape == (allocation.pair_count, 5)

    def test_offset_aware_rejects_batch_paths(self, small_chip):
        puf = _chip_puf(small_chip, method="case2", offset_aware=True)
        with pytest.raises(ValueError, match="offset_aware"):
            puf.enroll_batch()
        with pytest.raises(ValueError, match="offset_aware"):
            puf.enroll_sweep(_ops(2))

    def test_enroll_sweep_rejects_empty(self, small_chip):
        with pytest.raises(ValueError, match="no operating points"):
            _chip_puf(small_chip).enroll_sweep([])


class TestBatchLeaveOneOut:
    def test_noiseless_rows_match_sequential_extraction(self, small_chip):
        measurer = DelayMeasurer(noise=NoiselessMeasurement(), repeats=1)
        allocation = RingAllocation(stage_count=5, ring_count=8)
        puf = ChipROPUF(chip=small_chip, allocation=allocation, measurer=measurer)
        rings = [puf.ring(index) for index in range(allocation.ring_count)]
        batch = measure_ddiffs_leave_one_out_batch(measurer, rings)
        assert batch.ring_count == len(rings)
        assert batch.configs == leave_one_out_vectors(5)
        for index, ring in enumerate(rings):
            single = measure_ddiffs_leave_one_out(measurer, ring)
            assert np.array_equal(batch.ddiffs[index], single.ddiffs)
            assert np.array_equal(batch.measurements[index], single.measurements)
            view = batch.estimate(index)
            assert np.array_equal(view.ddiffs, single.ddiffs)
            assert view.configs == single.configs

    def test_rejects_empty_and_mixed_rings(self, small_chip):
        measurer = DelayMeasurer(noise=NoiselessMeasurement())
        with pytest.raises(ValueError, match="at least one ring"):
            measure_ddiffs_leave_one_out_batch(measurer, [])
        allocation = RingAllocation(stage_count=5, ring_count=8)
        puf = ChipROPUF(chip=small_chip, allocation=allocation, measurer=measurer)
        other_chip = FabricationProcess().fabricate(
            64, np.random.default_rng(1), name="other"
        )
        other = ChipROPUF(
            chip=other_chip,
            allocation=RingAllocation(stage_count=5, ring_count=2),
            measurer=measurer,
        )
        with pytest.raises(ValueError, match="one chip"):
            measure_ddiffs_leave_one_out_batch(measurer, [puf.ring(0), other.ring(0)])


def test_enroll_draw_order_constant():
    assert ENROLL_DRAW_ORDER == "enroll-v1"
