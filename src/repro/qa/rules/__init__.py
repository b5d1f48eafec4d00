"""Lint-rule infrastructure and the built-in rule registry.

A rule is a small class with a stable ``rule_id``, a severity, and either a
per-module or a project-wide ``check``.  Project-wide rules see every parsed
module at once — that is what lets repo-specific invariants ("every concrete
scheme class is registered", "registry names and ``PAPER_LABELS`` agree") be
checked statically instead of at import time.

Rules register themselves with :func:`register_rule`; :func:`all_rules`
returns one fresh instance of each, sorted by id.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Type

from repro.qa.diagnostics import Finding, Severity

__all__ = [
    "LintRule",
    "ModuleSource",
    "PragmaStatus",
    "Project",
    "all_rules",
    "dotted_name",
    "pragma_status",
    "register_rule",
]


@dataclass
class ModuleSource:
    """One parsed source file presented to the rules."""

    path: str
    source: str
    tree: ast.Module
    #: Absolute location on disk; ``None`` for in-memory sources.  Rules
    #: that read files next to a module (``pyproject.toml``) need it.
    file: Optional[Path] = None

    @property
    def is_public(self) -> bool:
        """Public modules (no leading-underscore basename) need ``__all__``."""
        basename = self.path.rsplit("/", 1)[-1]
        return not basename.startswith("_")


@dataclass
class Project:
    """All modules under analysis, keyed by display path."""

    modules: Dict[str, ModuleSource] = field(default_factory=dict)
    #: Scratch space for cross-rule analyses (the QA7xx hot-region
    #: marks live here, built once per module).
    analysis: Dict[str, object] = field(default_factory=dict)

    def find(self, suffix: str) -> Optional[ModuleSource]:
        """The unique module whose path ends with ``suffix``, if any."""
        matches = [
            module
            for path, module in self.modules.items()
            if path == suffix or path.endswith("/" + suffix)
        ]
        return matches[0] if len(matches) == 1 else None

    def __iter__(self) -> Iterator[ModuleSource]:
        return iter(self.modules.values())


class PragmaStatus(enum.Enum):
    """How a source line relates to a rule's ``allow`` pragma."""

    NONE = "none"  #: no pragma on the line
    ALLOWED = "allowed"  #: pragma with a non-empty reason — suppressed
    REASONLESS = "reasonless"  #: pragma with no reason — itself a finding


_PRAGMA_CACHE: Dict[str, "re.Pattern[str]"] = {}


def _pragma_pattern(rule_id: str) -> "re.Pattern[str]":
    pattern = _PRAGMA_CACHE.get(rule_id)
    if pattern is None:
        pattern = re.compile(
            rf"#\s*{re.escape(rule_id.lower())}:\s*allow"
            r"(?:\s*[—–-]+\s*(?P<reason>\S.*))?",
            re.IGNORECASE,
        )
        _PRAGMA_CACHE[rule_id] = pattern
    return pattern


def pragma_status(
    module: ModuleSource, lineno: int, rule_id: str
) -> PragmaStatus:
    """Inspect line ``lineno`` for ``# qaNNN: allow — <reason>``.

    The waiver convention introduced for QA502 generalizes to every rule
    that opts in: a pragma comment on the flagged line suppresses the
    finding, but only when a non-empty reason follows the ``allow`` —
    the whole point is that the waiver documents *why*.  A reasonless
    pragma is reported by the rule itself.
    """
    lines = module.source.splitlines()
    if not 1 <= lineno <= len(lines):
        return PragmaStatus.NONE
    match = _pragma_pattern(rule_id).search(lines[lineno - 1])
    if match is None:
        return PragmaStatus.NONE
    reason = match.group("reason")
    if reason and reason.strip():
        return PragmaStatus.ALLOWED
    return PragmaStatus.REASONLESS


class LintRule:
    """Base class for all lint rules.

    Subclasses set ``rule_id``/``title``/``severity`` and override either
    :meth:`check_module` (``scope = "module"``) or :meth:`check_project`
    (``scope = "project"``).
    """

    rule_id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    scope: str = "module"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        """Findings for one module (module-scope rules)."""
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Findings over the whole project (project-scope rules)."""
        return ()

    def finding(
        self, module_path: str, line: int, message: str
    ) -> Finding:
        """Construct a finding attributed to this rule."""
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            file=module_path,
            line=line,
            message=message,
        )

    def pragma_gate(
        self, module: ModuleSource, lineno: int
    ) -> "tuple[bool, Optional[Finding]]":
        """``(suppressed, replacement)`` for this rule's pragma on a line.

        ``suppressed`` is True when a pragma is present (with or without
        a reason); ``replacement`` is the reasonless-pragma finding to
        emit instead of the original when the reason is missing.
        """
        status = pragma_status(module, lineno, self.rule_id)
        if status is PragmaStatus.ALLOWED:
            return True, None
        if status is PragmaStatus.REASONLESS:
            rid = self.rule_id.lower()
            return True, self.finding(
                module.path,
                lineno,
                f"{rid} allow pragma without a reason; write "
                f"'# {rid}: allow — <why this is safe>'",
            )
        return False, None


_RULE_CLASSES: List[Type[LintRule]] = []


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding ``cls`` to the built-in rule registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if any(existing.rule_id == cls.rule_id for existing in _RULE_CLASSES):
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _RULE_CLASSES.append(cls)
    return cls


def all_rules() -> List[LintRule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_builtin_rules()
    return [cls() for cls in sorted(_RULE_CLASSES, key=lambda c: c.rule_id)]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _load_builtin_rules() -> None:
    # Imported lazily so `import repro.qa.rules` has no side-effect cost;
    # each module registers its rules on first import.
    from repro.qa.rules import (  # noqa: F401
        determinism,
        robustness,
        schemes,
        style,
        vectorization,
    )
