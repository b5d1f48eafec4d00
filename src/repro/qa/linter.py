"""AST-linter driver: load sources, run every rule, collect findings.

The linter parses each file exactly once into a :class:`~repro.qa.rules.Project`
and hands that to the rules — module-scope rules see one file at a time,
project-scope rules (registry sync, scheme reachability) see all of them.
Files that fail to parse produce a ``QA001`` finding instead of aborting the
run, so one syntax error cannot hide every other diagnostic.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.qa.diagnostics import Finding, Severity
from repro.qa.rules import LintRule, ModuleSource, Project, all_rules

__all__ = [
    "lint_paths",
    "lint_project",
    "lint_source",
    "load_project",
]

#: Rule id for files the parser rejects outright.
SYNTAX_RULE_ID = "QA001"


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.exists():
            yield path
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def load_project(
    paths: Sequence[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
) -> Tuple[Project, List[Finding]]:
    """Parse every ``.py`` file under ``paths``.

    Returns the project plus ``QA001`` findings for unparseable files.
    Display paths are made relative to ``root`` when given, which keeps
    finding fingerprints stable across machines and working directories.
    """
    root_path = Path(root) if root is not None else None
    project = Project()
    errors: List[Finding] = []
    for path in _iter_python_files(paths):
        display = _display_path(path, root_path)
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule=SYNTAX_RULE_ID,
                    severity=Severity.ERROR,
                    file=display,
                    line=exc.lineno or 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        project.modules[display] = ModuleSource(
            path=display, source=source, tree=tree, file=path.resolve()
        )
    return project, errors


def lint_project(
    project: Project, rules: Optional[Sequence[LintRule]] = None
) -> List[Finding]:
    """Run every rule over an already-loaded project."""
    findings: List[Finding] = []
    for rule in rules if rules is not None else all_rules():
        if rule.scope == "project":
            findings.extend(rule.check_project(project))
        else:
            for module in project:
                findings.extend(rule.check_module(module, project))
    return sorted(findings)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Load ``paths`` and lint them; the main library entry point."""
    project, errors = load_project(paths, root=root)
    return sorted(errors + lint_project(project, rules=rules))


def lint_source(
    source: str,
    path: str = "snippet.py",
    extra_modules: Optional[Dict[str, str]] = None,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint an in-memory snippet — the harness the rule tests are built on.

    ``extra_modules`` maps display paths to additional sources (e.g. a fake
    ``core/registry.py``) so project-scope rules can be exercised without
    touching the filesystem.
    """
    project = Project()
    sources = {path: source, **(extra_modules or {})}
    errors: List[Finding] = []
    for display, text in sources.items():
        try:
            tree = ast.parse(text, filename=display)
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule=SYNTAX_RULE_ID,
                    severity=Severity.ERROR,
                    file=display,
                    line=exc.lineno or 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        project.modules[display] = ModuleSource(
            path=display, source=text, tree=tree
        )
    return sorted(errors + lint_project(project, rules=rules))
