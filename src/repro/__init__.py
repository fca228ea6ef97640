"""repro — a reproduction of "A Highly Flexible Ring Oscillator PUF"
(Mingze Gao, Khai Lai, Gang Qu; DAC 2014, DOI 10.1145/2593069.2593072).

The package implements the paper's inverter-level configurable RO PUF and
everything it stands on:

* :mod:`repro.variation` — process variation, environment (V/T) response,
  measurement noise (the silicon substitute; DESIGN.md Sec. 2);
* :mod:`repro.silicon` — fabricated chips of delay units;
* :mod:`repro.core` — configurable ROs, the Sec. III.B measurement
  schemes, the Sec. III.D Case-1/Case-2 selection algorithms, and the
  PUF enrollment/response life cycle;
* :mod:`repro.baselines` — traditional RO PUF, 1-out-of-8, R_th masking,
  Maiti-Schaumont configurable ROs;
* :mod:`repro.distiller` — the regression-based systematic-variation
  distiller ([18]);
* :mod:`repro.nist` — the full NIST SP 800-22 statistical test suite;
* :mod:`repro.metrics` — uniqueness, reliability, uniformity, entropy;
* :mod:`repro.datasets` — synthetic equivalents of the Virginia Tech
  dataset and the paper's in-house Virtex-5 boards;
* :mod:`repro.crypto` — fuzzy extractor, BCH/repetition ECC, key
  generation, and challenge-response authentication;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    import numpy as np
    from repro import FabricationProcess, ChipROPUF, OperatingPoint

    chip = FabricationProcess().fabricate(64, np.random.default_rng(0))
    puf = ChipROPUF.deploy(chip, stage_count=4, method="case1")
    enrollment = puf.enroll()                        # test corner
    bits = puf.response(OperatingPoint(0.98, 65.0), enrollment)
"""

from .baselines import OneOutOfEightPUF, traditional_puf
from .core import (
    BatchEvaluator,
    BoardROPUF,
    ChipROPUF,
    ConfigVector,
    ConfigurableRO,
    DelayMeasurer,
    Enrollment,
    PairSelection,
    RingAllocation,
    allocate_rings,
    select_case1,
    select_case2,
    select_traditional,
)
from .crypto import Authenticator, BCHCode, FuzzyExtractor, KeyGenerator
from .datasets import (
    RODataset,
    default_inhouse_boards,
    default_vt_dataset,
    generate_vt_like,
)
from .distiller import PolynomialDistiller
from .metrics import bit_flip_report, uniqueness_report
from .nist import evaluate_sequences, run_battery
from .pipeline import run_pipeline
from .silicon import Chip, FabricationProcess
from .variation import (
    NOMINAL_OPERATING_POINT,
    EnvironmentModel,
    OperatingPoint,
    ProcessVariationModel,
)

__version__ = "1.2.0"

__all__ = [
    "OneOutOfEightPUF",
    "traditional_puf",
    "BatchEvaluator",
    "BoardROPUF",
    "ChipROPUF",
    "ConfigVector",
    "ConfigurableRO",
    "DelayMeasurer",
    "Enrollment",
    "PairSelection",
    "RingAllocation",
    "allocate_rings",
    "select_case1",
    "select_case2",
    "select_traditional",
    "Authenticator",
    "BCHCode",
    "FuzzyExtractor",
    "KeyGenerator",
    "RODataset",
    "default_inhouse_boards",
    "default_vt_dataset",
    "generate_vt_like",
    "PolynomialDistiller",
    "bit_flip_report",
    "uniqueness_report",
    "evaluate_sequences",
    "run_battery",
    "run_pipeline",
    "Chip",
    "FabricationProcess",
    "NOMINAL_OPERATING_POINT",
    "EnvironmentModel",
    "OperatingPoint",
    "ProcessVariationModel",
    "__version__",
]
