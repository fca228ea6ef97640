"""The paper's experiments as registered pipeline tasks.

Each paper table, figure and measured ablation is one named task here,
returning a plain JSON-serialisable dict (native Python scalars, string
keys); :func:`repro.analysis.report.check_claims` judges the paper's
claims from these dicts.  Importing this module populates the registry; the
experiment modules themselves are imported lazily inside each task so CLI
start-up and worker spin-up stay cheap.

Task names double as the summary-JSON keys, and registration order fixes
the summary's key order.
"""

from __future__ import annotations

from ..datasets.base import RODataset
from .registry import register_task

__all__ = ["nist_summary"]


def nist_summary(result) -> dict:
    """Flatten a NIST battery result into the summary-JSON shape."""
    return {
        "passed": result.passed,
        "sequences": int(result.streams.shape[0]),
        "bits_per_sequence": int(result.streams.shape[1]),
        "rows": [
            {
                "test": row.label,
                "proportion": row.proportion,
                "uniformity_p": row.uniformity_p,
                "uniformity_assessable": row.uniformity_assessable,
                "passed": row.passed,
            }
            for row in result.report.rows
        ],
    }


@register_task("table1_nist_case1", description="NIST battery, Case-1 (Table I)")
def task_table1(dataset: RODataset) -> dict:
    from ..experiments.nist_tables import run_nist_experiment

    return nist_summary(run_nist_experiment(dataset, method="case1"))


@register_task("table2_nist_case2", description="NIST battery, Case-2 (Table II)")
def task_table2(dataset: RODataset) -> dict:
    from ..experiments.nist_tables import run_nist_experiment

    return nist_summary(run_nist_experiment(dataset, method="case2"))


@register_task("nist_raw", description="NIST battery on undistilled bits")
def task_nist_raw(dataset: RODataset) -> dict:
    from ..experiments.nist_tables import run_nist_experiment

    return nist_summary(
        run_nist_experiment(dataset, method="case1", distilled=False)
    )


@register_task("fig3_uniqueness", description="uniqueness histograms (Fig. 3)")
def task_fig3(dataset: RODataset) -> dict:
    from ..experiments.fig3_uniqueness import run_uniqueness_experiment

    uniqueness = run_uniqueness_experiment(dataset)
    return {
        "case1_mean_hd": uniqueness.case1.mean_distance,
        "case1_std_hd": uniqueness.case1.std_distance,
        "case2_mean_hd": uniqueness.case2.mean_distance,
        "case2_std_hd": uniqueness.case2.std_distance,
        "collisions": bool(
            uniqueness.case1.has_collision or uniqueness.case2.has_collision
        ),
    }


def _config_study(dataset: RODataset, method: str) -> dict:
    from ..experiments.config_tables import run_config_study

    # The paper's n = 15 configuration study needs 16 boards' worth of RO
    # pairs; small datasets fall back to n = 7 (same rule as the old runner).
    stage_count = 15 if dataset.ro_count >= 16 * 2 * 15 else 7
    study = run_config_study(dataset, method=method, stage_count=stage_count)
    return {
        "vector_count": study.vector_count,
        "vector_bits": int(study.vectors.shape[1]),
        "hd_percent": {
            str(int(d)): float(p)
            for d, p in zip(study.hd_distances, study.hd_percentages)
            if p > 0
        },
        "duplicate_pairs": study.duplicate_pairs,
        "odd_hd_pairs": study.odd_hd_pairs,
        "mean_selected_fraction": study.mean_selected_fraction,
    }


@register_task(
    "table3_configs_case1", description="Case-1 configuration HDs (Table III)"
)
def task_table3(dataset: RODataset) -> dict:
    return _config_study(dataset, "case1")


@register_task(
    "table4_configs_case2", description="Case-2 configuration HDs (Table IV)"
)
def task_table4(dataset: RODataset) -> dict:
    return _config_study(dataset, "case2")


def _reliability_stage_counts(dataset: RODataset) -> tuple[int, ...]:
    from ..core.pairing import rings_per_board
    from ..experiments.fig4_reliability import FIG4_STAGE_COUNTS

    return tuple(
        n
        for n in FIG4_STAGE_COUNTS
        if rings_per_board(dataset.ro_count, n) >= 2
    )


def _reliability_summary(result, stage_counts: tuple[int, ...]) -> dict:
    summary: dict = {
        f"n={n}": {
            "configurable_mean_flip_percent": result.mean_configurable_flips(n),
            "traditional_mean_flip_percent": result.mean_traditional_flips(n),
        }
        for n in stage_counts
    }
    summary["one_of_8_max_flip_percent"] = result.max_one_of_8_flips()
    return summary


@register_task("fig4_voltage", description="voltage-reliability sweep (Fig. 4)")
def task_fig4_voltage(dataset: RODataset) -> dict:
    from ..experiments.fig4_reliability import run_voltage_reliability

    stage_counts = _reliability_stage_counts(dataset)
    voltage = run_voltage_reliability(dataset, stage_counts=stage_counts)
    return _reliability_summary(voltage, stage_counts)


@register_task(
    "fig4_temperature", description="temperature-reliability sweep (Sec. IV.D)"
)
def task_fig4_temperature(dataset: RODataset) -> dict:
    from ..experiments.fig4_reliability import run_temperature_reliability

    stage_counts = _reliability_stage_counts(dataset)
    temperature = run_temperature_reliability(dataset, stage_counts=stage_counts)
    return _reliability_summary(temperature, stage_counts)


@register_task(
    "table5_bits", uses_dataset=False, description="bits per board (Table V)"
)
def task_table5() -> dict:
    from ..experiments.table5_bits import run_table5

    return {
        f"n={row.stage_count}": {
            "configurable": row.configurable_bits,
            "one_of_8": row.one_of_8_bits,
            "matches_paper": row.matches_paper(),
        }
        for row in run_table5()
    }


@register_task(
    "sec4e_threshold", uses_dataset=False, description="R_th sweep (Sec. IV.E)"
)
def task_threshold() -> dict:
    from ..experiments.sec4e_threshold import run_threshold_study

    threshold = run_threshold_study()
    return {
        "thresholds": threshold.thresholds_units.tolist(),
        "traditional": threshold.traditional.tolist(),
        "configurable": threshold.configurable.tolist(),
        "unit_picoseconds": threshold.unit_seconds * 1e12,
    }


@register_task(
    "ablation_distiller", description="A1 distiller ablation (raw vs distilled)"
)
def task_ablation_distiller(dataset: RODataset) -> dict:
    from ..experiments.ablations import run_distiller_ablation

    ablation = run_distiller_ablation(dataset)
    return {
        "raw_passed": ablation.raw_passed,
        "distilled_passed": ablation.distilled_passed,
        "raw_failed_tests": ablation.raw_failed_tests,
    }


@register_task(
    "ablation_attacks", description="A4 configuration-leakage and model attacks"
)
def task_ablation_attacks(dataset: RODataset) -> dict:
    from ..experiments.extensions import run_leakage_study

    leakage = run_leakage_study(dataset)
    summary: dict = {
        result.scheme: {"accuracy": result.accuracy, "chance": result.chance}
        for result in leakage.results
    }
    summary["model_attack_accuracy"] = leakage.model_attack.accuracy
    return summary


@register_task("ecc_cost", description="A7 ECC cost per selection scheme")
def task_ecc_cost(dataset: RODataset) -> dict:
    from ..experiments.extensions import run_ecc_cost_study

    ecc = run_ecc_cost_study(dataset)
    return {
        requirement.scheme: {
            "bit_error_rate": requirement.bit_error_rate,
            "t": requirement.t,
            "overhead_bits_per_key_bit": requirement.overhead_bits_per_key_bit,
        }
        for requirement in ecc.requirements
    }


# Dynamic task families register their factories on import; pulling the
# module in here makes them resolvable wherever the static tasks are —
# including worker processes, which import repro.pipeline.tasks before
# looking any task name up.
from . import fleet as _fleet  # noqa: E402, F401  (register fleet_shard factory)
