"""The qa gate end to end: runner, baseline workflow, CLI subcommand."""

import json

import pytest

from repro.cli import main as cli_main
from repro.qa.diagnostics import parse_json_report
from repro.qa.runner import main as qa_main

CLEAN_MODULE = '__all__ = ["answer"]\n\nanswer = 42\n'
DIRTY_MODULE = "import random\n\n\ndef pick(items):\n    return items\n"


@pytest.fixture
def clean_tree(tmp_path):
    (tmp_path / "clean.py").write_text(CLEAN_MODULE)
    return tmp_path


@pytest.fixture
def dirty_tree(tmp_path):
    (tmp_path / "dirty.py").write_text(DIRTY_MODULE)
    return tmp_path


class TestRunnerMain:
    def test_clean_tree_exits_zero(self, clean_tree):
        assert qa_main(
            ["--no-contracts", str(clean_tree)]
        ) == 0

    def test_lint_violation_exits_nonzero(self, dirty_tree, capsys):
        code = qa_main(["--no-contracts", str(dirty_tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "QA201" in out
        assert "QA303" in out

    def test_json_report_round_trips(self, dirty_tree, capsys):
        code = qa_main(["--no-contracts", "--json", str(dirty_tree)])
        assert code == 1
        findings = parse_json_report(capsys.readouterr().out)
        assert {f.rule for f in findings} >= {"QA201", "QA303"}

    def test_list_rules(self, capsys):
        assert qa_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("QA101", "QA201", "QA301", "QA303"):
            assert rule_id in out

    def test_both_passes_disabled_is_usage_error(self, capsys):
        assert qa_main(["--no-lint", "--no-contracts"]) == 2

    def test_contracts_only_on_shipped_registry(self, capsys):
        # The shipped registry must satisfy the contract checker.
        assert qa_main(["--no-lint", "--quick"]) == 0


class TestBaselineWorkflow:
    def test_write_baseline_then_clean(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "qa-baseline.json"
        assert (
            qa_main(
                [
                    "--no-contracts",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                    str(dirty_tree),
                ]
            )
            == 0
        )
        payload = json.loads(baseline.read_text())
        assert payload["suppress"]
        # Re-running against the accepted baseline passes...
        assert (
            qa_main(
                [
                    "--no-contracts",
                    "--baseline",
                    str(baseline),
                    str(dirty_tree),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "baseline-suppressed" in out
        # ...but a new violation still fails.
        (dirty_tree / "worse.py").write_text("x = 1.0 == y\n")
        assert (
            qa_main(
                [
                    "--no-contracts",
                    "--baseline",
                    str(baseline),
                    str(dirty_tree),
                ]
            )
            == 1
        )


class TestCliSubcommand:
    def test_qa_via_cli_clean(self, clean_tree):
        assert cli_main(
            ["qa", "--no-contracts", str(clean_tree)]
        ) == 0

    def test_qa_via_cli_dirty(self, dirty_tree):
        assert cli_main(
            ["qa", "--no-contracts", str(dirty_tree)]
        ) == 1

    def test_qa_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        assert "qa" in capsys.readouterr().out


class TestSelfCheck:
    def test_shipped_source_tree_passes_committed_baseline(self):
        # src/repro, scripts/ and benchmarks/ must pass the linter with
        # at most the committed baseline's waivers.
        import pathlib

        from repro.qa.diagnostics import Baseline
        from repro.qa.runner import run_qa

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        baseline = Baseline.load(repo_root / "qa_baseline.json")
        report = run_qa(contracts=False, baseline=baseline)
        assert report.new == [], "\n".join(
            f.render() for f in report.new
        )
