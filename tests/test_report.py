"""Tests of the reproduction report: the pure claim check and the builder."""

import copy

import pytest

from repro.analysis.report import (
    ClaimCheck,
    ReproductionReport,
    build_report,
    check_claims,
)


def _reliability(traditional: float) -> dict:
    return {
        f"n={n}": {
            "configurable_mean_flip_percent": 0.0,
            "traditional_mean_flip_percent": traditional,
        }
        for n in (3, 5, 7, 9)
    } | {"one_of_8_max_flip_percent": 0.0}


def passing_summary() -> dict:
    """A synthetic pipeline summary on which every claim holds."""
    nist = {"passed": True, "sequences": 97, "bits_per_sequence": 1000}
    return {
        "dataset": "synthetic",
        "table1_nist_case1": dict(nist),
        "table2_nist_case2": dict(nist),
        "ablation_distiller": {
            "raw_passed": False,
            "distilled_passed": True,
            "raw_failed_tests": ["Runs", "Serial (delta2)"],
        },
        "fig3_uniqueness": {"case1_mean_hd": 47.85, "collisions": False},
        "table3_configs_case1": {
            "hd_percent": {"0": 0.009, "4": 10.0, "6": 30.0, "8": 45.0},
            "mean_selected_fraction": 0.58,
        },
        "fig4_voltage": _reliability(traditional=4.38),
        "fig4_temperature": _reliability(traditional=2.75),
        "table5_bits": {
            f"n={n}": {"matches_paper": True} for n in (3, 5, 7, 9)
        },
        "sec4e_threshold": {
            "thresholds": [0.0, 2.5, 3.1, 6.0],
            "traditional": [32.0, 16.0, 13.0, 5.0],
            "configurable": [32.0, 32.0, 31.3, 27.0],
        },
        "ablation_attacks": {
            "case1": {"accuracy": 0.46, "chance": 0.5},
            "unconstrained": {"accuracy": 1.0, "chance": 0.5},
        },
        "ablation_aging": {
            "years": [1.0, 5.0, 10.0, 20.0],
            "flip_percent": {
                "case2": [0.0, 0.0, 0.0, 0.0],
                "traditional": [2.1, 6.5, 10.2, 14.6],
            },
        },
    }


#: (index of the claim that must fail, summary field path, flipped value).
FLIPS = [
    (0, ("table2_nist_case2", "passed"), False),
    (1, ("ablation_distiller", "raw_passed"), True),
    (2, ("fig3_uniqueness", "collisions"), True),
    (3, ("table3_configs_case1", "hd_percent", "4"), 50.0),
    (4, ("table3_configs_case1", "mean_selected_fraction"), 0.9),
    (5, ("fig4_voltage", "n=9", "configurable_mean_flip_percent"), 0.5),
    (6, ("fig4_voltage", "one_of_8_max_flip_percent"), 1.0),
    (7, ("fig4_temperature", "n=3", "configurable_mean_flip_percent"), 0.1),
    (8, ("table5_bits", "n=5", "matches_paper"), False),
    (9, ("sec4e_threshold", "traditional", 2), 20.0),
    (10, ("ablation_attacks", "case1", "accuracy"), 0.7),
    (11, ("ablation_aging", "flip_percent", "case2", -1), 20.0),
]


class TestCheckClaims:
    def test_all_hold_on_passing_summary(self):
        claims = check_claims(passing_summary())
        assert len(claims) == len(FLIPS) == 12
        assert all(check.holds for check in claims)

    @pytest.mark.parametrize(
        "index, path, value", FLIPS, ids=[str(flip[1]) for flip in FLIPS]
    )
    def test_one_flipped_field_fails_exactly_its_claim(self, index, path, value):
        summary = passing_summary()
        target = summary
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        holds = [check.holds for check in check_claims(summary)]
        assert holds == [i != index for i in range(len(FLIPS))]

    def test_uniqueness_evidence_reports_collisions(self):
        summary = passing_summary()
        assert check_claims(summary)[2].evidence.endswith(", no collisions")
        summary["fig3_uniqueness"]["collisions"] = True
        assert check_claims(summary)[2].evidence.endswith(", collisions")

    def test_does_not_mutate_summary(self):
        summary = passing_summary()
        before = copy.deepcopy(summary)
        check_claims(summary)
        assert summary == before

    def test_table3_mode_ties_go_to_the_lowest_hd(self):
        summary = passing_summary()
        summary["table3_configs_case1"]["hd_percent"] = {"8": 40.0, "10": 40.0}
        table3 = check_claims(summary)[3]
        assert table3.holds
        assert table3.evidence == "mode at HD 8, duplicates 0.000%"


class TestReproductionReport:
    def test_markdown_structure(self):
        report = ReproductionReport(
            sections=[("Sec", "body text")],
            claims=[
                ClaimCheck(claim="c1", holds=True, evidence="e1"),
                ClaimCheck(claim="c2", holds=False, evidence="e2"),
            ],
        )
        text = report.to_markdown()
        assert "# Reproduction report" in text
        assert "| PASS | c1 | e1 |" in text
        assert "| FAIL | c2 | e2 |" in text
        assert "## Sec" in text and "body text" in text

    def test_all_claims_hold(self):
        good = ReproductionReport(
            claims=[ClaimCheck(claim="c", holds=True, evidence="e")]
        )
        bad = ReproductionReport(
            claims=[ClaimCheck(claim="c", holds=False, evidence="e")]
        )
        assert good.all_claims_hold
        assert not bad.all_claims_hold

    def test_save(self, tmp_path):
        report = ReproductionReport(
            claims=[ClaimCheck(claim="c", holds=True, evidence="e")]
        )
        path = report.save(tmp_path / "report.md")
        assert path.read_text().startswith("# Reproduction report")


class TestBuildReport:
    def test_builds_on_small_dataset(self, small_dataset):
        report = build_report(small_dataset)
        # every pipeline task plus the aging study, as JSON
        assert len(report.sections) == 14
        assert len(report.claims) == 12
        text = report.to_markdown()
        assert "(Table V)" in text
        assert "NIST battery" in text
        # 8 boards of 128 ROs are too few for the paper's uniqueness,
        # configuration-diversity and n=7 reliability figures; the other
        # nine claims hold (Table V and Sec. IV.E run at paper scale).
        assert [check.claim for check in report.claims if not check.holds] == [
            "inter-chip HD is a bell near 48/96 bits (Fig. 3)",
            "best configurations are diverse, HD mass at 6-8 (Table III)",
            "configurable PUF reaches 0% flips at n=7 (Fig. 4)",
        ]
