"""Project-specific static analysis and scheme-contract checking.

The ``repro.qa`` package is the repository's correctness-tooling layer.
It has four parts:

* :mod:`repro.qa.diagnostics` — the shared :class:`~repro.qa.diagnostics.Finding`
  vocabulary, text/JSON reporters, and the baseline-suppression file that
  lets existing findings be burned down incrementally.
* :mod:`repro.qa.linter` + :mod:`repro.qa.rules` — an AST linter with rules
  specific to this reproduction (scheme/registry hygiene, seeded randomness,
  float comparisons in response-time code, ``__all__`` coverage).
* :mod:`repro.qa.sarif` — renders any run as a SARIF 2.1.0 log for
  code-scanning UIs.
* :mod:`repro.qa.contracts` — a runtime checker that verifies, for every
  registered declustering scheme, the ``disk_of``/``allocate`` contract the
  paper's results depend on: total, deterministic, in ``[0, M)``, and
  self-consistent.

Run everything with ``repro-decluster qa`` or ``python -m repro.qa``.
"""

from __future__ import annotations

from repro.qa.contracts import ContractConfig, check_registry, check_scheme
from repro.qa.diagnostics import (
    Baseline,
    Finding,
    Severity,
    parse_json_report,
    render_json_report,
    render_text_report,
)
from repro.qa.linter import lint_paths, lint_source
from repro.qa.runner import main, run_qa
from repro.qa.sarif import render_sarif, write_sarif

__all__ = [
    "Baseline",
    "ContractConfig",
    "Finding",
    "Severity",
    "check_registry",
    "check_scheme",
    "lint_paths",
    "lint_source",
    "main",
    "parse_json_report",
    "render_json_report",
    "render_sarif",
    "render_text_report",
    "run_qa",
    "write_sarif",
]
