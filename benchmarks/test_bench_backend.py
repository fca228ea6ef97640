"""B-backend — the ring-mask sweep kernel's speedup pin.

The production sweep (:meth:`repro.backends.NumpyBackend
.sweep_pair_delay_sums`) scatters the selection masks into one
``(ring, stage)`` matrix and sums every ring in a single copy-free
``einsum``; its fallback for shared rings,
:func:`repro.backends.gather_sweep_delay_sums`, first gathers an
``(op, pair, stage)`` copy per side.  Both run on the same fleet-scale
operating-point tensor and must agree bit for bit; the speedup and both
wall times land in ``results/BENCH_backend.json`` for the CI regression
gate (``ropuf bench compare --metric speedup``).  The JSON keys keep
their historical names so the committed baseline gates unchanged:
``numpy_seconds`` is the gather form, ``tiled_seconds`` the ring-mask
form.
"""

import time

import numpy as np

from repro.backends import current_backend, gather_sweep_delay_sums

# Fleet-scale sweep: every ring of a large board measured at 24 operating
# points, selections of 4096 pairs over 5-stage configurable ROs.
OPS = 24
PAIRS = 4096
STAGES = 5
RINGS = 8192

REPEATS = 20

#: The ring-mask sweep must beat the gather form by at least this factor
#: at the shape above.
REQUIRED_SPEEDUP = 1.5


def _sweep_problem():
    rng = np.random.default_rng(2014)
    stacked = rng.normal(1.0, 0.02, size=(OPS, RINGS, STAGES))
    # Disjoint top/bottom ring draws, like a compiled selection batch.
    rings = rng.permutation(RINGS)[: 2 * PAIRS]
    top_rings, bottom_rings = rings[:PAIRS], rings[PAIRS:]
    top_masks = rng.integers(0, 2, size=(PAIRS, STAGES)).astype(float)
    bottom_masks = rng.integers(0, 2, size=(PAIRS, STAGES)).astype(float)
    return stacked, top_rings, bottom_rings, top_masks, bottom_masks


def _median_seconds(kernel, problem) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel(*problem)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_bench_backend_sweep(save_artifact, save_bench_json):
    problem = _sweep_problem()
    sweep = current_backend().sweep_pair_delay_sums

    # The contract first: same sums, same bits.
    for got, want in zip(sweep(*problem), gather_sweep_delay_sums(*problem)):
        assert np.array_equal(got, want)

    gather_seconds = _median_seconds(gather_sweep_delay_sums, problem)
    ring_mask_seconds = _median_seconds(sweep, problem)
    speedup = gather_seconds / ring_mask_seconds

    save_bench_json(
        "backend",
        {
            "sweep": {
                "problem": {
                    "ops": OPS,
                    "pairs": PAIRS,
                    "stages": STAGES,
                    "rings": RINGS,
                },
                "numpy_seconds": gather_seconds,
                "tiled_seconds": ring_mask_seconds,
                "tiled_speedup": speedup,
                "required_speedup": REQUIRED_SPEEDUP,
            },
        },
    )
    save_artifact(
        "backend_sweep",
        "\n".join(
            [
                f"sweep kernel: {OPS} ops x {PAIRS} pairs x {STAGES} stages "
                f"over {RINGS} rings (median of {REPEATS})",
                f"  gather (fallback)  {gather_seconds * 1e3:8.3f} ms",
                f"  ring-mask          {ring_mask_seconds * 1e3:8.3f} ms",
                f"  speedup            x{speedup:.2f} "
                f"(required x{REQUIRED_SPEEDUP:.1f})",
            ]
        ),
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"ring-mask sweep only x{speedup:.2f} over the gather form "
        f"(required x{REQUIRED_SPEEDUP:.1f})"
    )
