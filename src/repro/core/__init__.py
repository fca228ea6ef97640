"""The paper's primary contribution: inverter-level configurable RO PUFs.

Public surface:

* :class:`ConfigVector`, :class:`DelayUnit`, :class:`ConfigurableRO` — the
  Fig. 1 / Fig. 2 hardware structures;
* measurement — the Sec. III.B chain-delay schemes that recover per-unit
  ``ddiff`` values;
* selection — the Sec. III.D Case-1 / Case-2 optimisers, one-row views of
  the batch selectors;
* :class:`RingAllocation` — Table V's carve-up of a board into rings;
* :class:`BoardROPUF` / :class:`ChipROPUF` — enrollment and response
  generation;
* :class:`BatchEvaluator` — the vectorized batch response engine behind
  ``response``/``response_sweep`` (compiled selection masks, einsum row
  sums, one noise draw per sweep shape);
* selection_batch / batch measurement — the vectorized enrollment engine:
  batch selectors over ``(pair, stage)`` matrices (the one implementation
  of each selection rule) and one-tensor leave-one-out measurement under
  the versioned ``"enroll-v1"`` draw order.
"""

from .batch import (
    SWEEP_DRAW_ORDER,
    BatchEvaluator,
    CompiledEnrollment,
    chip_enroll_loop_reference,
    compile_enrollment,
    enroll_loop_reference,
    response_loop_reference,
)
from .config_vector import ConfigVector
from .delay_unit import DelayUnit
from .multicorner import (
    select_case1_multicorner,
    worst_case_margin,
)
from .measurement import (
    ENROLL_DRAW_ORDER,
    BatchDdiffEstimate,
    DdiffEstimate,
    DelayMeasurer,
    leave_one_out_vectors,
    measure_ddiffs_least_squares,
    measure_ddiffs_leave_one_out,
    measure_ddiffs_leave_one_out_batch,
    random_config_set,
    three_stage_ddiffs,
)
from .pairing import RING_COUNT_MULTIPLE, RingAllocation, allocate_rings, rings_per_board
from .puf import SELECTION_METHODS, BoardROPUF, ChipROPUF, Enrollment
from .ring import ConfigurableRO
from .selection import (
    PairSelection,
    select_case1,
    select_case2,
    select_traditional,
)
from .selection_batch import (
    BATCH_SELECTION_METHODS,
    BatchSelection,
    select_case1_batch,
    select_case2_batch,
    select_traditional_batch,
    select_unconstrained_batch,
)
from .selection_ext import (
    select_case1_offset,
    select_case2_offset,
    select_unconstrained,
)

__all__ = [
    "SWEEP_DRAW_ORDER",
    "ENROLL_DRAW_ORDER",
    "BatchEvaluator",
    "CompiledEnrollment",
    "compile_enrollment",
    "response_loop_reference",
    "enroll_loop_reference",
    "chip_enroll_loop_reference",
    "ConfigVector",
    "DelayUnit",
    "ConfigurableRO",
    "BatchDdiffEstimate",
    "DdiffEstimate",
    "DelayMeasurer",
    "leave_one_out_vectors",
    "measure_ddiffs_least_squares",
    "measure_ddiffs_leave_one_out",
    "measure_ddiffs_leave_one_out_batch",
    "random_config_set",
    "three_stage_ddiffs",
    "RING_COUNT_MULTIPLE",
    "RingAllocation",
    "allocate_rings",
    "rings_per_board",
    "SELECTION_METHODS",
    "BoardROPUF",
    "ChipROPUF",
    "Enrollment",
    "PairSelection",
    "select_case1",
    "select_case2",
    "select_traditional",
    "BATCH_SELECTION_METHODS",
    "BatchSelection",
    "select_case1_batch",
    "select_case2_batch",
    "select_traditional_batch",
    "select_unconstrained_batch",
    "select_case1_offset",
    "select_case2_offset",
    "select_unconstrained",
    "select_case1_multicorner",
    "worst_case_margin",
]
