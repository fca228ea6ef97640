"""E-batch — loop vs vectorized response-engine speedup.

A 128-pair board (9-stage rings, 2304 delay units) swept over 16 supply
voltages — the Fig. 4-shaped workload that used to cost
``pairs x corners`` Python iterations.  The equivalence half pins the
vectorized ``BatchEvaluator.response_sweep`` bit-identical to the
preserved per-pair loop (``response_loop_reference``) and is cheap enough
for the CI smoke job (``-k equivalence``); the timing half additionally
requires a 5x speedup and records the numbers in
``results/BENCH_response.json``.
"""

import time

import numpy as np

from repro.core.batch import response_loop_reference
from repro.core.pairing import RingAllocation
from repro.core.puf import BoardROPUF
from repro.variation.environment import OperatingPoint

PAIR_COUNT = 128
STAGE_COUNT = 9
OP_COUNT = 16
REQUIRED_SPEEDUP = 5.0


def _make_puf():
    rng = np.random.default_rng(2024)
    ring_count = 2 * PAIR_COUNT
    n_units = ring_count * STAGE_COUNT
    base = rng.normal(1.0, 0.02, n_units)
    sensitivity = rng.normal(0.05, 0.01, n_units)

    def provider(op):
        return base * (1.0 + sensitivity * (1.20 - op.voltage))

    allocation = RingAllocation(stage_count=STAGE_COUNT, ring_count=ring_count)
    return BoardROPUF(delay_provider=provider, allocation=allocation, method="case1")


def _make_ops():
    return [
        OperatingPoint(voltage, 25.0) for voltage in np.linspace(0.90, 1.50, OP_COUNT)
    ]


def _loop_sweep(puf, enrollment, ops):
    return np.stack([response_loop_reference(puf, enrollment, op) for op in ops])


def test_response_engine_equivalence():
    """Vectorized sweep bits == per-pair loop bits (no timing pin)."""
    puf = _make_puf()
    ops = _make_ops()
    enrollment = puf.enroll(ops[OP_COUNT // 2])
    sweep_bits = puf.batch(enrollment).response_sweep(ops)
    assert sweep_bits.shape == (OP_COUNT, PAIR_COUNT)
    assert np.array_equal(sweep_bits, _loop_sweep(puf, enrollment, ops))


def test_bench_batch_engine(benchmark, save_artifact, save_bench_json):
    puf = _make_puf()
    ops = _make_ops()
    enrollment = puf.enroll(ops[OP_COUNT // 2])
    evaluator = puf.batch(enrollment)
    # Warm the compiled-mask cache so the timed region measures evaluation.
    evaluator.response_sweep(ops)

    loop_rounds = 5
    round_times = []
    for _ in range(loop_rounds):
        start = time.perf_counter()
        loop_bits = _loop_sweep(puf, enrollment, ops)
        round_times.append(time.perf_counter() - start)
    loop_seconds = float(np.median(round_times))

    sweep_bits = benchmark(evaluator.response_sweep, ops)
    vectorized_seconds = benchmark.stats.stats.median
    speedup = loop_seconds / vectorized_seconds

    assert sweep_bits.shape == (OP_COUNT, PAIR_COUNT)
    assert np.array_equal(sweep_bits, loop_bits)
    save_artifact(
        "batch_engine",
        "\n".join(
            [
                "Batch response engine: "
                f"{PAIR_COUNT}-pair board, {OP_COUNT}-corner voltage sweep",
                f"per-pair loop:     {loop_seconds * 1e3:9.3f} ms/sweep",
                f"vectorized sweep:  {vectorized_seconds * 1e3:9.3f} ms/sweep",
                f"speedup:           {speedup:9.1f}x (required >= "
                f"{REQUIRED_SPEEDUP:.0f}x)",
            ]
        ),
    )
    save_bench_json(
        "response",
        {
            "engine": "response_sweep",
            "problem": {
                "pair_count": PAIR_COUNT,
                "stage_count": STAGE_COUNT,
                "op_count": OP_COUNT,
            },
            "reference_median_seconds": loop_seconds,
            "vectorized_median_seconds": vectorized_seconds,
            "speedup_vs_reference": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized sweep only {speedup:.1f}x faster than the loop"
    )
