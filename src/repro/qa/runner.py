"""Orchestration for the QA gate: lint + contracts + baseline + reporting.

Used two ways: ``repro-decluster qa`` (the subparser in :mod:`repro.cli`
calls :func:`add_qa_arguments` / :func:`run_from_args`) and
``python -m repro.qa`` (:func:`main`).  Exit code 0 means no findings
outside the baseline; 1 means new findings; 2 means a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.qa.contracts import (
    ContractConfig,
    check_backends,
    check_engine,
    check_registry,
)
from repro.qa.diagnostics import (
    Baseline,
    Finding,
    render_json_report,
    render_text_report,
)
from repro.qa.linter import lint_paths
from repro.qa.rules import all_rules
from repro.qa.sarif import write_sarif

__all__ = [
    "QAReport",
    "add_qa_arguments",
    "default_lint_targets",
    "main",
    "run_from_args",
    "run_qa",
]

#: Default baseline filename, resolved against the working directory.
#: Committed at the repository root; pre-existing waived findings live
#: there, new findings fail the gate.
DEFAULT_BASELINE = "qa_baseline.json"


def default_lint_target() -> Path:
    """The installed ``repro`` package directory — the core lint target."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_lint_targets() -> "tuple[List[Path], Path]":
    """``(paths, root)`` that ``qa`` lints when no paths are given.

    Always the ``repro`` package; when it is a checkout (``src/repro``
    with sibling ``scripts/``/``benchmarks/`` directories), those ride
    along and the repository root becomes the display root — finding
    fingerprints then read ``src/repro/...``/``scripts/...`` on every
    machine, which is what keeps the committed baseline portable.
    """
    package = default_lint_target()
    if package.parent.name == "src":
        repo_root = package.parent.parent
        extras = [
            repo_root / name
            for name in ("scripts", "benchmarks")
            if (repo_root / name).is_dir()
        ]
        if extras:
            return [package, *extras], repo_root
    return [package], package.parent


@dataclass
class QAReport:
    """Everything one QA run produced, pre-baseline and post-baseline."""

    findings: List[Finding] = field(default_factory=list)
    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def render(self, as_json: bool = False) -> str:
        if as_json:
            return render_json_report(self.new, suppressed=len(self.suppressed))
        if not self.findings:
            return "qa: clean — no findings"
        return render_text_report(self.new, suppressed=len(self.suppressed))


def run_qa(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    root: Optional[Union[str, Path]] = None,
    lint: bool = True,
    contracts: bool = True,
    schemes: Optional[Sequence[str]] = None,
    contract_config: Optional[ContractConfig] = None,
    baseline: Optional[Baseline] = None,
) -> QAReport:
    """Run the requested passes and partition findings against the baseline."""
    findings: List[Finding] = []
    if lint:
        if paths is None:
            paths, default_root = default_lint_targets()
            root = root if root is not None else default_root
        findings.extend(lint_paths(paths, root=root))
    if contracts:
        findings.extend(check_registry(contract_config, names=schemes))
        findings.extend(check_engine(contract_config))
        findings.extend(check_backends(contract_config))
    findings.sort()
    report = QAReport(findings=findings)
    baseline = baseline or Baseline()
    report.new, report.suppressed = baseline.split(findings)
    return report


def add_qa_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``qa`` options to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: the repro package, "
        "plus scripts/ and benchmarks/ when run from a checkout)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline suppression file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="OUT.json",
        help="also write a SARIF 2.1.0 log (baseline-suppressed findings "
        "are included with suppression records)",
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the AST linter"
    )
    parser.add_argument(
        "--no-contracts",
        action="store_true",
        help="skip the scheme-contract checker",
    )
    parser.add_argument(
        "--schemes",
        default=None,
        help="comma-separated registry names to contract-check "
        "(default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller contract-check matrix (fast smoke configuration)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list lint rules and exit",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed ``qa`` invocation; returns the exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(
                f"{rule.rule_id}  {rule.severity.value:7s} "
                f"[{rule.scope}] {rule.title}"
            )
        return 0
    if args.no_lint and args.no_contracts:
        print("qa: nothing to do (both passes disabled)", file=sys.stderr)
        return 2
    config = ContractConfig()
    if args.quick:
        config = config.scaled_down()
    schemes = None
    if args.schemes is not None:
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    baseline_path = Path(args.baseline)
    baseline = Baseline.load(baseline_path)
    try:
        report = run_qa(
            paths=args.paths or None,
            lint=not args.no_lint,
            contracts=not args.no_contracts,
            schemes=schemes,
            contract_config=config,
            baseline=baseline,
        )
    except OSError as exc:
        print(f"qa: error: {exc}", file=sys.stderr)
        return 2
    if args.sarif:
        write_sarif(args.sarif, report.findings, baseline)
    if args.write_baseline:
        accepted = Baseline.from_findings(report.findings)
        accepted.save(baseline_path, report.findings)
        print(
            f"qa: baseline written to {baseline_path} "
            f"({len(report.findings)} finding(s) accepted)"
        )
        return 0
    print(report.render(as_json=args.json))
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.qa``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description=(
            "Project-specific static analysis: AST lint rules plus the "
            "declustering scheme-contract checker"
        ),
    )
    add_qa_arguments(parser)
    return run_from_args(parser.parse_args(argv))
