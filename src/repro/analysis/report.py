"""The reproduction report: one pipeline run, one pure claim check.

``ropuf report`` (or :func:`build_report`) runs the experiment pipeline
(:func:`~repro.pipeline.run_pipeline`, every registered task) plus the A5
aging study, judges the paper's claims with :func:`check_claims` — a pure
function of that summary — and emits one markdown document: the claim
checklist, then every summary entry as JSON.  This is the artifact a
reviewer reads first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ClaimCheck", "ReproductionReport", "build_report", "check_claims"]

#: Summary key of the A5 aging study, which is not a registered task.
AGING_KEY = "ablation_aging"


@dataclass
class ClaimCheck:
    """One verifiable claim of the paper and its measured verdict.

    Attributes:
        claim: the paper's statement, paraphrased.
        holds: whether the reproduction confirms it.
        evidence: one-line measured summary.
    """

    claim: str
    holds: bool
    evidence: str


@dataclass
class ReproductionReport:
    """The complete report: rendered sections plus claim checks.

    Attributes:
        sections: (title, rendered text) for each experiment.
        claims: the claim checklist.
    """

    sections: list[tuple[str, str]] = field(default_factory=list)
    claims: list[ClaimCheck] = field(default_factory=list)

    @property
    def all_claims_hold(self) -> bool:
        return all(check.holds for check in self.claims)

    def to_markdown(self) -> str:
        lines = [
            "# Reproduction report — A Highly Flexible Ring Oscillator PUF",
            "",
            "## Claim checklist",
            "",
            "| verdict | claim | evidence |",
            "|---|---|---|",
        ]
        for check in self.claims:
            verdict = "PASS" if check.holds else "FAIL"
            lines.append(f"| {verdict} | {check.claim} | {check.evidence} |")
        lines.append("")
        for title, text in self.sections:
            lines.append(f"## {title}")
            lines.append("")
            lines.append("```")
            lines.append(text)
            lines.append("```")
            lines.append("")
        return "\n".join(lines)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_markdown())
        return path


def _configurable_flips(reliability: dict, min_stages: int = 0) -> list[float]:
    """Configurable mean flip % of every ring length ``>= min_stages``."""
    return [
        entry["configurable_mean_flip_percent"]
        for key, entry in reliability.items()
        if key.startswith("n=") and int(key[2:]) >= min_stages
    ]


def check_claims(summary: dict) -> list[ClaimCheck]:
    """Judge the paper's claims from a pipeline summary.

    Pure: reads only ``summary`` and does no I/O.  Fig. 4's "0% flips"
    claims read per-n means, which are 0 exactly when every flip is 0
    (flip percentages are non-negative).

    Args:
        summary: a :func:`~repro.pipeline.run_pipeline` summary of every
            registered task, plus the A5 aging study under
            ``"ablation_aging"`` (``years`` / ``flip_percent``).

    Returns:
        one :class:`ClaimCheck` per claim, in paper order.
    """
    nist_case1 = summary["table1_nist_case1"]
    nist_case2 = summary["table2_nist_case2"]
    distiller = summary["ablation_distiller"]
    uniqueness = summary["fig3_uniqueness"]
    configs = summary["table3_configs_case1"]
    voltage = summary["fig4_voltage"]
    temperature = summary["fig4_temperature"]
    threshold = summary["sec4e_threshold"]
    attacks = summary["ablation_attacks"]
    aging = summary[AGING_KEY]["flip_percent"]

    hd_percent = configs["hd_percent"]
    # lowest HD among the most frequent ones (np.argmax's tie-break)
    mode = int(max(sorted(hd_percent, key=int), key=hd_percent.get, default=0))
    duplicates = hd_percent.get("0", 0.0)
    fraction = configs["mean_selected_fraction"]
    long_rings = _configurable_flips(voltage, min_stages=7)
    n7 = voltage["n=7"]
    one_of_8 = voltage["one_of_8_max_flip_percent"]
    distances = [abs(units - 3.0) for units in threshold["thresholds"]]
    at3 = distances.index(min(distances))
    traditional_at3 = threshold["traditional"][at3]
    configurable_at3 = threshold["configurable"][at3]
    case1_attack = attacks["case1"]
    unconstrained_accuracy = attacks["unconstrained"]["accuracy"]

    return [
        ClaimCheck(
            claim="distilled PUF outputs pass the NIST battery (Tables I-II)",
            holds=nist_case1["passed"] and nist_case2["passed"],
            evidence=(
                f"case1 {'PASS' if nist_case1['passed'] else 'FAIL'}, "
                f"case2 {'PASS' if nist_case2['passed'] else 'FAIL'} over "
                f"{nist_case1['sequences']} sequences"
            ),
        ),
        ClaimCheck(
            claim="raw (undistilled) outputs fail the NIST battery",
            holds=not distiller["raw_passed"],
            evidence=(
                "raw failing tests: "
                + (", ".join(distiller["raw_failed_tests"]) or "none")
            ),
        ),
        ClaimCheck(
            claim="inter-chip HD is a bell near 48/96 bits (Fig. 3)",
            holds=abs(uniqueness["case1_mean_hd"] - 48.0) < 5.0
            and not uniqueness["collisions"],
            evidence=(
                f"mean {uniqueness['case1_mean_hd']:.2f} bits (paper 46.88), "
                + ("collisions" if uniqueness["collisions"] else "no collisions")
            ),
        ),
        ClaimCheck(
            claim="best configurations are diverse, HD mass at 6-8 (Table III)",
            holds=mode in (6, 8) and duplicates < 0.05,
            evidence=f"mode at HD {mode}, duplicates {duplicates:.3f}%",
        ),
        ClaimCheck(
            claim="optimal configurations select about n/2 inverters",
            holds=0.35 < fraction < 0.7,
            evidence=f"mean fraction {fraction:.2f}",
        ),
        ClaimCheck(
            claim="configurable PUF reaches 0% flips at n=7 (Fig. 4)",
            holds=bool(long_rings) and all(flips == 0.0 for flips in long_rings),
            evidence=(
                f"mean flips n=7: {n7['configurable_mean_flip_percent']:.2f}% vs "
                f"traditional {n7['traditional_mean_flip_percent']:.2f}%"
            ),
        ),
        ClaimCheck(
            claim="1-out-of-8 never flips but yields 1/4 the bits",
            holds=one_of_8 == 0.0,
            evidence=f"max 1-of-8 flips {one_of_8:.2f}%",
        ),
        ClaimCheck(
            claim="under temperature variation only the traditional PUF flips",
            holds=all(flips == 0.0 for flips in _configurable_flips(temperature)),
            evidence=(
                "configurable 0%, traditional mean "
                f"{temperature['n=3']['traditional_mean_flip_percent']:.2f}% at n=3"
            ),
        ),
        ClaimCheck(
            claim="Table V bit counts and the 4x hardware advantage",
            holds=all(row["matches_paper"] for row in summary["table5_bits"].values()),
            evidence="80/48/32/24 vs 20/12/8/6 reproduced exactly",
        ),
        ClaimCheck(
            claim="traditional 32->13 bits at R_th=3; configurable keeps ~32",
            holds=abs(traditional_at3 - 13.0) < 3.0 and configurable_at3 > 29.0,
            evidence=(
                f"traditional {traditional_at3:.1f}, "
                f"configurable {configurable_at3:.1f} of 32"
            ),
        ),
        ClaimCheck(
            claim="equal selected counts prevent bit leakage (Sec. III.D)",
            holds=case1_attack["accuracy"] - case1_attack["chance"] < 0.1
            and unconstrained_accuracy > 0.95,
            evidence=(
                f"attack accuracy: case1 {case1_attack['accuracy']:.2f} "
                f"vs unconstrained {unconstrained_accuracy:.2f}"
            ),
        ),
        ClaimCheck(
            claim="margin maximisation also extends lifetime (aging)",
            holds=aging["case2"][-1] <= aging["traditional"][-1],
            evidence=(
                f"20y flips: case2 {aging['case2'][-1]:.1f}% vs "
                f"traditional {aging['traditional'][-1]:.1f}%"
            ),
        ),
    ]


def build_report(dataset=None) -> ReproductionReport:
    """Run the pipeline and the aging study; check the paper's claims.

    Args:
        dataset: an :class:`~repro.datasets.base.RODataset`; defaults to the
            full paper-scale synthetic dataset (a few seconds: 3-5 s on
            a 2-vCPU host, dataset generation included).

    Raises:
        RuntimeError: when a pipeline task failed (its claims cannot be
            judged).
    """
    from ..experiments.extensions import run_aging_study
    from ..pipeline import all_tasks, run_pipeline

    summary = run_pipeline(dataset, jobs=1)
    failed = {
        name: entry["error"]
        for name, entry in summary.items()
        if isinstance(entry, dict) and "error" in entry
    }
    if failed:
        raise RuntimeError(f"pipeline tasks failed: {failed}")
    aging = run_aging_study()
    summary[AGING_KEY] = {
        "years": list(aging.years),
        "flip_percent": {
            scheme: flips.tolist() for scheme, flips in aging.flip_percent.items()
        },
        "chip_count": aging.chip_count,
    }
    titles = {spec.name: spec.description for spec in all_tasks()}
    titles[AGING_KEY] = "A5 aging study (flips over a simulated lifetime)"
    return ReproductionReport(
        sections=[
            (titles[name], json.dumps(entry, indent=2))
            for name, entry in summary.items()
            if name in titles
        ],
        claims=check_claims(summary),
    )
