"""Extension experiments beyond the paper's evaluation (DESIGN.md A4-A6).

* A4 — configuration leakage: validates Sec. III.D's equal-count security
  constraint by attacking equal-count and unconstrained selections.
* A5 — aging: bit stability over simulated years of NBTI-style wear-out,
  configurable vs traditional.
* A6 — scheme zoo on equal hardware: bits-per-ring and flip rates of the
  configurable, traditional, 1-out-of-8, and cooperative (ordering)
  schemes, plus the offset-aware selector's margin recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.tables import Table
from ..attacks.config_leakage import LeakageResult, evaluate_config_leakage
from ..attacks.model_attack import ModelAttackResult, evaluate_model_attack
from ..baselines.cooperative import CooperativeROPUF
from ..baselines.one_out_of_eight import OneOutOfEightPUF
from ..core.pairing import RingAllocation, allocate_rings
from ..core.puf import BoardROPUF, ChipROPUF
from ..core.selection_batch import (
    select_case1_batch,
    select_case2_batch,
    select_unconstrained_batch,
)
from ..core.selection_ext import select_case2_offset
from ..datasets.base import RODataset
from ..metrics.reliability import bit_flip_report
from ..silicon.aging import AgingModel, age_chip
from ..silicon.fabrication import FabricationProcess
from ..variation.corners import full_grid
from ..variation.environment import NOMINAL_OPERATING_POINT
from .common import PipelineConfig, dataset_or_default

__all__ = [
    "LeakageStudy",
    "run_leakage_study",
    "AgingStudy",
    "run_aging_study",
    "SchemeZoo",
    "run_scheme_zoo",
    "EccCostStudy",
    "run_ecc_cost_study",
    "MarginScalingStudy",
    "run_margin_scaling_study",
    "MultiCornerStudy",
    "run_multicorner_study",
    "CorrelationStudy",
    "run_correlation_study",
]


# ----------------------------------------------------------------------
# A4 — configuration leakage + modeling attack
# ----------------------------------------------------------------------


@dataclass
class LeakageStudy:
    """Attack outcomes across selection schemes.

    Attributes:
        results: one leakage result per scheme.
        model_attack: CRP modeling attack on the Maiti-Schaumont PUF.
    """

    results: list[LeakageResult]
    model_attack: ModelAttackResult


def _dataset_pair_delays(
    dataset: RODataset, stage_count: int, max_boards: int
) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent ring pairs of each board as ``(pair, stage)`` matrices."""
    config = PipelineConfig(stage_count=stage_count, method="case1", distill=True)
    distiller = config.distiller()
    window = 2 * stage_count
    chunks = []
    for board in dataset.nominal_boards[:max_boards]:
        delays = board.delays_at(dataset.nominal)
        if distiller is not None:
            delays = distiller(delays, board.coords)
        usable = len(delays) // window * window
        chunks.append(delays[:usable].reshape(-1, window))
    pairs = np.concatenate(chunks)
    return pairs[:, :stage_count].copy(), pairs[:, stage_count:].copy()


def run_leakage_study(
    dataset: RODataset | None = None,
    stage_count: int = 7,
    max_boards: int = 60,
) -> LeakageStudy:
    """A4: attack the stored configurations of three selection schemes."""
    dataset = dataset_or_default(dataset)
    alpha, beta = _dataset_pair_delays(dataset, stage_count, max_boards)
    results = [
        evaluate_config_leakage(select_case1_batch, "case1", alpha, beta),
        evaluate_config_leakage(select_case2_batch, "case2", alpha, beta),
        evaluate_config_leakage(
            select_unconstrained_batch, "unconstrained", alpha, beta
        ),
    ]
    return LeakageStudy(results=results, model_attack=evaluate_model_attack())


def format_leakage_study(study: LeakageStudy) -> str:
    table = Table(
        headers=["scheme", "attack accuracy", "chance", "advantage"],
        title="A4 configuration-leakage attack (equal counts protect the bit)",
    )
    for result in study.results:
        table.add_row(
            result.scheme,
            f"{result.accuracy:.3f}",
            f"{result.chance:.3f}",
            f"{result.advantage:+.3f}",
        )
    model = study.model_attack
    return (
        table.render()
        + "\nCRP modeling attack on Maiti-Schaumont (reconfigurable-style) "
        + f"PUF: {model.accuracy:.3f} accuracy from {model.train_crps} CRPs "
        + f"(chance {model.chance:.3f}) - the paper's [16] vulnerability."
    )


# ----------------------------------------------------------------------
# A5 — aging
# ----------------------------------------------------------------------


@dataclass
class AgingStudy:
    """Bit stability over simulated lifetime.

    Attributes:
        years: evaluated stress times.
        flip_percent: scheme name -> flip % per year mark (mean over chips).
        chip_count: chips averaged.
    """

    years: tuple[float, ...]
    flip_percent: dict[str, np.ndarray]
    chip_count: int


def run_aging_study(
    years: tuple[float, ...] = (1.0, 5.0, 10.0, 20.0),
    chip_count: int = 6,
    unit_count: int = 224,
    stage_count: int = 7,
    seed: int = 11,
    model: AgingModel | None = None,
) -> AgingStudy:
    """A5: enroll fresh silicon, regenerate on aged copies."""
    if model is None:
        model = AgingModel()
    fab = FabricationProcess()
    rng = np.random.default_rng(seed)
    flips: dict[str, list[list[float]]] = {"case2": [], "traditional": []}
    for index in range(chip_count):
        chip = fab.fabricate(unit_count, rng, name=f"aging{index}")
        allocation = allocate_rings(
            chip.unit_count, stage_count, multiple=2, layout="interleaved"
        )
        for method in ("case2", "traditional"):
            puf = ChipROPUF(chip=chip, allocation=allocation, method=method)
            # Vectorized enrollment ("enroll-v1" draw order); the per-year
            # response comparisons stay on the per-pair measurement path.
            enrollment = puf.enroll_batch()
            per_year = []
            for year in years:
                aged = age_chip(chip, year, np.random.default_rng(seed + index), model)
                aged_puf = ChipROPUF(
                    chip=aged, allocation=allocation, method=method,
                    measurer=puf.measurer,
                )
                response = aged_puf.response(NOMINAL_OPERATING_POINT, enrollment)
                report = bit_flip_report(enrollment.bits, response)
                per_year.append(report.flip_percent)
            flips[method].append(per_year)
    return AgingStudy(
        years=years,
        flip_percent={
            method: np.mean(np.array(rows), axis=0)
            for method, rows in flips.items()
        },
        chip_count=chip_count,
    )


def format_aging_study(study: AgingStudy) -> str:
    table = Table(
        headers=["scheme"] + [f"{y:g}y" for y in study.years],
        title=(
            "A5 aging study: % bits flipped after N years "
            f"(mean over {study.chip_count} chips)"
        ),
    )
    for method, row in study.flip_percent.items():
        table.add_row(method, *[f"{v:.1f}" for v in row])
    return table.render()


# ----------------------------------------------------------------------
# A6 — scheme zoo on equal hardware
# ----------------------------------------------------------------------


@dataclass
class SchemeZooRow:
    """One scheme's yield and stability on the shared hardware.

    Attributes:
        scheme: scheme name.
        bits: response bits from the shared ring budget.
        bits_per_ring: hardware utilisation.
        flip_percent: bit flips across all non-nominal corners.
    """

    scheme: str
    bits: int
    bits_per_ring: float
    flip_percent: float


@dataclass
class SchemeZoo:
    """A6 results.

    Attributes:
        rows: per scheme.
        ring_count: rings in the shared budget.
        offset_margin_gain_percent: mean margin gain of the offset-aware
            Case-2 selector over the paper's (chip-level pipeline).
    """

    rows: list[SchemeZooRow]
    ring_count: int
    offset_margin_gain_percent: float


def run_scheme_zoo(
    dataset: RODataset | None = None,
    stage_count: int = 5,
) -> SchemeZoo:
    """A6: every scheme on one swept board's rings + offset-aware margins."""
    dataset = dataset_or_default(dataset)
    board = dataset.swept_boards[0]
    allocation = allocate_rings(board.ro_count, stage_count)
    corners = [op for op in full_grid() if op != dataset.nominal]

    rows = []
    for method in ("case1", "case2", "traditional"):
        puf = BoardROPUF(
            delay_provider=board.delay_provider(),
            allocation=allocation,
            method=method,
            require_odd=method != "traditional",
        )
        enrollment = puf.enroll(dataset.nominal)
        # One vectorized sweep over all corners (noiseless, so identical
        # to stacking per-corner response calls).
        observations = puf.response_sweep(corners, enrollment)
        report = bit_flip_report(enrollment.bits, observations)
        rows.append(
            SchemeZooRow(
                scheme=method,
                bits=enrollment.bit_count,
                bits_per_ring=enrollment.bit_count / allocation.ring_count,
                flip_percent=report.flip_percent,
            )
        )

    one_of_8 = OneOutOfEightPUF(
        delay_provider=board.delay_provider(), allocation=allocation
    )
    group_enrollment = one_of_8.enroll(dataset.nominal)
    observations = np.stack(
        [one_of_8.response(op, group_enrollment) for op in corners]
    )
    report = bit_flip_report(group_enrollment.bits, observations)
    rows.append(
        SchemeZooRow(
            scheme="1-out-of-8",
            bits=group_enrollment.bit_count,
            bits_per_ring=group_enrollment.bit_count / allocation.ring_count,
            flip_percent=report.flip_percent,
        )
    )

    cooperative = CooperativeROPUF(
        delay_provider=board.delay_provider(), allocation=allocation
    )
    coop_enrollment = cooperative.enroll(dataset.nominal)
    observations = np.stack(
        [cooperative.response(op, coop_enrollment) for op in corners]
    )
    report = bit_flip_report(coop_enrollment.bits, observations)
    rows.append(
        SchemeZooRow(
            scheme="cooperative",
            bits=coop_enrollment.bit_count,
            bits_per_ring=coop_enrollment.bit_count / allocation.ring_count,
            flip_percent=report.flip_percent,
        )
    )

    gain = _offset_margin_gain(stage_count)
    return SchemeZoo(
        rows=rows,
        ring_count=allocation.ring_count,
        offset_margin_gain_percent=gain,
    )


def _offset_margin_gain(stage_count: int, pair_count: int = 48, seed: int = 5) -> float:
    """Mean |margin| gain of offset-aware Case-2 on chip-level pairs."""
    fab = FabricationProcess()
    chip = fab.fabricate(
        2 * stage_count * pair_count, np.random.default_rng(seed), name="offset"
    )
    allocation = RingAllocation(
        stage_count=stage_count, ring_count=2 * pair_count, layout="interleaved"
    )
    ddiffs = chip.ddiffs()
    bypass = chip.mux_bypass_delays()
    unit_matrix = np.stack(
        [allocation.ring_units(ring) for ring in range(allocation.ring_count)]
    )
    pairs = allocation.pair_ring_matrix()
    alphas = ddiffs[unit_matrix[pairs[:, 0]]]
    betas = ddiffs[unit_matrix[pairs[:, 1]]]
    offsets = np.array(
        [
            float(np.sum(bypass[unit_matrix[top]]) - np.sum(bypass[unit_matrix[bot]]))
            for top, bot in pairs
        ]
    )
    # The paper's offset-blind selections for all pairs in one batch call
    # (margins bit-identical to the scalar selector).
    paper = select_case2_batch(alphas, betas)
    paper_actual = np.abs(paper.margins + offsets)
    gains = []
    for index in range(allocation.pair_count):
        aware = select_case2_offset(alphas[index], betas[index], offsets[index])
        gains.append(
            100.0
            * (abs(aware.margin) - paper_actual[index])
            / max(paper_actual[index], 1e-30)
        )
    return float(np.mean(gains))


# ----------------------------------------------------------------------
# A9 — spatially-correlated mismatch: the distiller's limits
# ----------------------------------------------------------------------
#
# The distiller removes the *smooth* systematic trend.  If the "random"
# mismatch itself carries short-range spatial correlation, neighbouring
# PUF bits stay correlated after distillation and randomness degrades —
# a failure mode silicon can exhibit that the paper's pipeline cannot fix.


@dataclass
class CorrelationPoint:
    """NIST outcome at one correlation length.

    Attributes:
        correlation_length: spatial correlation of the mismatch.
        passed: whether the distilled battery passed.
        worst_proportion: lowest per-test pass proportion.
        failing_tests: labels of failing rows.
    """

    correlation_length: float
    passed: bool
    worst_proportion: float
    failing_tests: list[str]


@dataclass
class CorrelationStudy:
    """A9 results across correlation lengths."""

    points: list[CorrelationPoint]


def run_correlation_study(
    correlation_lengths: tuple[float, ...] = (0.0, 0.15, 0.4),
    seed: int = 909,
) -> CorrelationStudy:
    """A9: sweep mismatch correlation and re-run the Table I pipeline."""
    from ..datasets.vtlike import VTLikeConfig, generate_vt_like
    from ..variation.process import ProcessParameters, ProcessVariationModel
    from .nist_tables import run_nist_experiment

    points = []
    for length in correlation_lengths:
        config = VTLikeConfig(
            process=ProcessVariationModel(
                ProcessParameters(correlation_length=length)
            ),
            seed=seed,
        )
        dataset = generate_vt_like(config)
        result = run_nist_experiment(dataset, method="case1", distilled=True)
        points.append(
            CorrelationPoint(
                correlation_length=length,
                passed=result.passed,
                worst_proportion=min(
                    row.proportion for row in result.report.rows
                ),
                failing_tests=[row.label for row in result.report.failed_rows],
            )
        )
    return CorrelationStudy(points=points)


def format_correlation_study(study: CorrelationStudy) -> str:
    table = Table(
        headers=["correlation length", "NIST verdict", "worst proportion", "failing"],
        title=(
            "A9 spatially-correlated mismatch vs the distilled pipeline "
            "(Table I setup)"
        ),
    )
    for point in study.points:
        table.add_row(
            f"{point.correlation_length:g}",
            "PASS" if point.passed else "FAIL",
            f"{point.worst_proportion:.2f}",
            ", ".join(point.failing_tests) or "-",
        )
    return (
        table.render()
        + "\nthe polynomial distiller removes smooth trends only; "
        "correlated mismatch defeats it (a known silicon risk the paper's "
        "pipeline inherits)"
    )


# ----------------------------------------------------------------------
# A10 — multi-corner enrollment
# ----------------------------------------------------------------------


@dataclass
class MultiCornerStudy:
    """Worst-enrollment-corner flips: single- vs multi-corner enrollment.

    Attributes:
        single_corner_worst_percent: flip % of the paper's scheme when
            enrolled at its *worst* corner (mean over boards).
        single_corner_best_percent: same, best corner.
        multicorner_percent: flip % of multi-corner enrollment.
        stage_count: ring length used.
    """

    single_corner_worst_percent: float
    single_corner_best_percent: float
    multicorner_percent: float
    stage_count: int


def run_multicorner_study(
    dataset: RODataset | None = None,
    stage_count: int = 3,
) -> MultiCornerStudy:
    """A10: does enrolling at every corner beat picking a lucky one?

    Uses the ring length where single-corner enrollment still flips
    (n = 3 in Fig. 4), so there is headroom to improve.
    """
    from ..core.multicorner import select_case1_multicorner
    from ..variation.corners import voltage_corners

    dataset = dataset_or_default(dataset)
    corners = voltage_corners(temperature=25.0)
    single_worst = []
    single_best = []
    multi = []
    for board in dataset.swept_boards:
        allocation = allocate_rings(board.ro_count, stage_count)
        pairs = allocation.pair_ring_matrix()
        rings_by_corner = {
            op: allocation.ring_delay_matrix(board.delays_at(op))
            for op in corners
        }

        def flips_for(select_pair) -> float:
            reference_bits = []
            flip_positions = set()
            selections = []
            for pair in range(allocation.pair_count):
                top, bottom = allocation.pair_rings(pair)
                selection = select_pair(pair, top, bottom)
                selections.append(selection)
                margin_at = {
                    op: float(
                        np.sum(
                            rings_by_corner[op][top][
                                selection.top_config.as_array()
                            ]
                        )
                        - np.sum(
                            rings_by_corner[op][bottom][
                                selection.bottom_config.as_array()
                            ]
                        )
                    )
                    for op in corners
                }
                reference = margin_at[NOMINAL_OPERATING_POINT] > 0
                reference_bits.append(reference)
                for op in corners:
                    if (margin_at[op] > 0) != reference:
                        flip_positions.add(pair)
            return 100.0 * len(flip_positions) / allocation.pair_count

        per_corner = []
        for enroll_op in corners:
            rings = rings_by_corner[enroll_op]
            selections = select_case1_batch(
                rings[pairs[:, 0]], rings[pairs[:, 1]]
            ).to_selections()

            def single_select(pair, top, bottom, selections=selections):
                return selections[pair]

            per_corner.append(flips_for(single_select))
        single_worst.append(max(per_corner))
        single_best.append(min(per_corner))

        def multi_select(pair, top, bottom):
            alphas = [rings_by_corner[op][top] for op in corners]
            betas = [rings_by_corner[op][bottom] for op in corners]
            return select_case1_multicorner(alphas, betas)

        multi.append(flips_for(multi_select))
    return MultiCornerStudy(
        single_corner_worst_percent=float(np.mean(single_worst)),
        single_corner_best_percent=float(np.mean(single_best)),
        multicorner_percent=float(np.mean(multi)),
        stage_count=stage_count,
    )


def format_multicorner_study(study: MultiCornerStudy) -> str:
    return (
        f"A10 multi-corner enrollment (n={study.stage_count}): flip % "
        "across the voltage sweep\n"
        "  single-corner enrollment, worst corner: "
        f"{study.single_corner_worst_percent:.2f}%\n"
        "  single-corner enrollment, best corner:  "
        f"{study.single_corner_best_percent:.2f}%\n"
        "  multi-corner (worst-case margin):       "
        f"{study.multicorner_percent:.2f}%\n"
        "  (the paper's Fig. 4 observation 4 recommends hunting for the "
        "best single corner; multi-corner enrollment removes the hunt)"
    )


# ----------------------------------------------------------------------
# A8 — margin scaling with ring length
# ----------------------------------------------------------------------
#
# Theory behind Fig. 4's improvement with n: the configurable margin is a
# sum of ~n/2 positive |delta| terms, so it grows linearly in n, while the
# traditional margin is |sum of n zero-mean deltas| and grows only as
# sqrt(n).  The ratio therefore opens as sqrt(n) — the quantitative reason
# the paper sees 0% flips from n = 7.


@dataclass
class MarginScalingStudy:
    """Mean |margin| versus ring length for both schemes.

    Attributes:
        stage_counts: evaluated ring lengths.
        configurable / traditional: mean |margin| (seconds) per length.
        pair_count: pairs sampled per length.
    """

    stage_counts: tuple[int, ...]
    configurable: np.ndarray
    traditional: np.ndarray
    pair_count: int

    @property
    def ratio(self) -> np.ndarray:
        """Configurable-to-traditional margin ratio per ring length."""
        return self.configurable / self.traditional


def run_margin_scaling_study(
    stage_counts: tuple[int, ...] = (3, 5, 9, 15, 25, 41),
    pair_count: int = 400,
    sigma: float = 7.5e-12,
    seed: int = 17,
) -> MarginScalingStudy:
    """A8: sample pure random-mismatch pairs and measure margin growth."""
    if pair_count < 10:
        raise ValueError("pair_count must be >= 10")
    rng = np.random.default_rng(seed)
    configurable = []
    traditional = []
    for n in stage_counts:
        # One (pair, 2, n) draw consumes the generator exactly like the
        # historical alternating per-pair draws, and the batch selector's
        # margins are bit-identical to the historical per-pair loop.
        samples = rng.normal(500e-12, sigma, (pair_count, 2, n))
        alpha = samples[:, 0, :]
        beta = samples[:, 1, :]
        margins_c = np.abs(select_case2_batch(alpha, beta).margins)
        margins_t = np.abs(alpha.sum(axis=1) - beta.sum(axis=1))
        configurable.append(float(np.mean(margins_c)))
        traditional.append(float(np.mean(margins_t)))
    return MarginScalingStudy(
        stage_counts=tuple(stage_counts),
        configurable=np.array(configurable),
        traditional=np.array(traditional),
        pair_count=pair_count,
    )


def format_margin_scaling(study: MarginScalingStudy) -> str:
    table = Table(
        headers=["n", "configurable (ps)", "traditional (ps)", "ratio"],
        title=(
            "A8 margin scaling with ring length "
            f"({study.pair_count} pairs per point): configurable ~ n, "
            "traditional ~ sqrt(n)"
        ),
    )
    for i, n in enumerate(study.stage_counts):
        table.add_row(
            n,
            f"{study.configurable[i] * 1e12:.1f}",
            f"{study.traditional[i] * 1e12:.1f}",
            f"{study.ratio[i]:.2f}",
        )
    return table.render()


# ----------------------------------------------------------------------
# A7 — the cost of ECC (Sec. III.C: "eliminate the cost of ECC circuitry")
# ----------------------------------------------------------------------


@dataclass
class EccCostStudy:
    """ECC sizing for each scheme's measured error rate.

    Attributes:
        requirements: one :class:`~repro.analysis.ecc_cost.EccRequirement`
            per scheme.
        target_failure: block-failure target the codes were sized for.
    """

    requirements: list
    target_failure: float


def run_ecc_cost_study(
    dataset: RODataset | None = None,
    stage_count: int = 5,
    target_failure: float = 1e-6,
) -> EccCostStudy:
    """A7: measure per-bit error rates, then price the ECC each needs."""
    from ..analysis.ecc_cost import required_bch_strength

    dataset = dataset_or_default(dataset)
    corners = [op for op in full_grid() if op != dataset.nominal]
    requirements = []
    for method in ("case2", "case1", "traditional"):
        error_bits = 0
        total_bits = 0
        for board in dataset.swept_boards:
            allocation = allocate_rings(board.ro_count, stage_count)
            puf = BoardROPUF(
                delay_provider=board.delay_provider(),
                allocation=allocation,
                method=method,
                require_odd=method != "traditional",
            )
            enrollment = puf.enroll(dataset.nominal)
            responses = puf.response_sweep(corners, enrollment)
            error_bits += int(np.sum(responses != enrollment.bits))
            total_bits += enrollment.bit_count * len(corners)
        bit_error_rate = error_bits / total_bits if total_bits else 0.0
        requirements.append(
            required_bch_strength(method, bit_error_rate, target_failure)
        )
    return EccCostStudy(requirements=requirements, target_failure=target_failure)


def format_ecc_cost_study(study: EccCostStudy) -> str:
    table = Table(
        headers=["scheme", "bit error rate", "BCH(n,k,t)", "stored bits/key bit"],
        title=(
            "A7 cost of ECC at block-failure target "
            f"{study.target_failure:g} (Sec. III.C's 'eliminate ECC' claim)"
        ),
    )
    for requirement in study.requirements:
        code = (
            "none needed"
            if not requirement.needs_ecc
            else f"BCH({requirement.code_length},{requirement.message_bits},"
            f"t={requirement.t})"
        )
        table.add_row(
            requirement.scheme,
            f"{requirement.bit_error_rate:.2e}",
            code,
            f"{requirement.overhead_bits_per_key_bit:.2f}",
        )
    return table.render()


def format_scheme_zoo(zoo: SchemeZoo) -> str:
    table = Table(
        headers=["scheme", "bits", "bits/ring", "flip %"],
        title=(
            f"A6 scheme zoo on {zoo.ring_count} shared rings "
            "(all 24 non-nominal corners)"
        ),
    )
    for row in zoo.rows:
        table.add_row(
            row.scheme,
            row.bits,
            f"{row.bits_per_ring:.2f}",
            f"{row.flip_percent:.1f}",
        )
    return (
        table.render()
        + "\noffset-aware Case-2 margin gain over the paper's selector: "
        + f"{zoo.offset_margin_gain_percent:+.1f}% "
        + "(accounts for the bypass-path offset the paper neglects)"
    )
