"""SARIF 2.1.0 emission: structure, suppressions, CLI integration."""

import json

from repro.qa.diagnostics import Baseline, Finding, Severity
from repro.qa.runner import main as qa_main
from repro.qa.sarif import SARIF_VERSION, render_sarif, write_sarif

FINDINGS = [
    Finding(
        rule="QA501",
        severity=Severity.ERROR,
        file="src/repro/core/cache.py",
        line=188,
        message="bare except: catches KeyboardInterrupt and SystemExit",
    ),
    Finding(
        rule="QA302",
        severity=Severity.WARNING,
        file="scripts/demo.py",
        line=3,
        message="print in library code",
    ),
]


def render(findings=FINDINGS, baseline=None):
    return json.loads(render_sarif(findings, baseline))


class TestSarifStructure:
    def test_version_and_single_run(self):
        log = render()
        assert log["version"] == SARIF_VERSION
        assert len(log["runs"]) == 1
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-qa"

    def test_every_registered_rule_has_metadata(self):
        rules = {
            entry["id"]
            for entry in render()["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"QA001", "QA501", "QA701", "QA502"} <= rules

    def test_result_fields(self):
        results = render()["runs"][0]["results"]
        assert len(results) == 2
        by_rule = {entry["ruleId"]: entry for entry in results}
        qa501 = by_rule["QA501"]
        assert qa501["level"] == "error"
        location = qa501["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == (
            "src/repro/core/cache.py"
        )
        assert location["region"]["startLine"] == 188
        assert by_rule["QA302"]["level"] == "warning"

    def test_rule_index_points_into_rules_array(self):
        run = render()["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_fingerprint_matches_baseline_identity(self):
        results = render()["runs"][0]["results"]
        by_rule = {entry["ruleId"]: entry for entry in results}
        assert by_rule["QA501"]["partialFingerprints"]["reproQa/v1"] == (
            FINDINGS[0].fingerprint
        )

    def test_zero_line_findings_render_line_one(self):
        contract = Finding(
            rule="QA431",
            severity=Severity.ERROR,
            file="registry:dm",
            line=0,
            message="contract violated",
        )
        log = render([contract])
        region = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        assert region["startLine"] == 1


class TestSarifSuppressions:
    def test_baselined_findings_carry_suppressions(self):
        baseline = Baseline.from_findings([FINDINGS[0]])
        results = render(baseline=baseline)["runs"][0]["results"]
        by_rule = {entry["ruleId"]: entry for entry in results}
        assert by_rule["QA501"]["suppressions"][0]["kind"] == "external"
        assert "suppressions" not in by_rule["QA302"]

    def test_unbaselined_log_has_no_suppressions(self):
        for result in render()["runs"][0]["results"]:
            assert "suppressions" not in result


class TestSarifWriting:
    def test_write_sarif_round_trips(self, tmp_path):
        out = tmp_path / "qa.sarif"
        write_sarif(out, FINDINGS)
        log = json.loads(out.read_text())
        assert log["version"] == SARIF_VERSION

    def test_cli_emits_sarif_and_still_gates(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "dirty.py").write_text(
            "import random\n\n\ndef pick(items):\n    return items\n"
        )
        out = tmp_path / "qa.sarif"
        code = qa_main(
            ["--no-contracts", "--sarif", str(out), str(tree)]
        )
        assert code == 1  # findings still fail the gate
        log = json.loads(out.read_text())
        rules_fired = {
            result["ruleId"]
            for result in log["runs"][0]["results"]
        }
        assert "QA201" in rules_fired

    def test_cli_sarif_includes_suppressed_findings(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "dirty.py").write_text(
            "import random\n\n\ndef pick(items):\n    return items\n"
        )
        baseline = tmp_path / "baseline.json"
        assert (
            qa_main(
                [
                    "--no-contracts",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                    str(tree),
                ]
            )
            == 0
        )
        out = tmp_path / "qa.sarif"
        code = qa_main(
            [
                "--no-contracts",
                "--baseline",
                str(baseline),
                "--sarif",
                str(out),
                str(tree),
            ]
        )
        assert code == 0  # baseline covers everything
        results = json.loads(out.read_text())["runs"][0]["results"]
        assert results, "suppressed findings must still be emitted"
        assert all("suppressions" in result for result in results)
