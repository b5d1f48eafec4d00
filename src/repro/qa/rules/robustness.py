"""Robustness rules: no silent failure swallowing.

With the fault-injection subsystem in place (:mod:`repro.faults`), error
handling is itself load-bearing correctness logic: a swallowed exception
in the runner, the degraded planner, or a checkpoint write turns a
recoverable fault into a silently wrong report.  Two rules ban
the patterns that make failures invisible:

* **QA501** — a bare ``except:`` catches ``KeyboardInterrupt`` and
  ``SystemExit`` along with everything else; the handler cannot even name
  what it intercepted.
* **QA502** — ``except Exception:`` (or ``BaseException``) whose body is
  only ``pass``/``...`` discards the failure without recording or
  re-raising.  Broad catches are fine — the runner re-raises every
  experiment failure as a ``RunnerError`` through one — but only when
  the handler *does* something with the failure.

QA502 supports an **explicit whitelist pragma** for the rare handler
whose swallowing is deliberate and audited (e.g. a best-effort cleanup
that logs through :mod:`repro.obs`): a comment on the ``except`` line of the form ::

    except Exception as exc:  # qa502: allow — <reason>

suppresses the finding, but only when a non-empty reason follows the
``allow``.  A bare ``# qa502: allow`` is itself reported — the whole
point is that the waiver documents *why*.  The same mechanism (shared
via :func:`repro.qa.rules.pragma_status`) backs the QA503 waivers and
the QA7xx vectorization rules.

* **QA503** — loading a cache-controlled artifact (``np.load``,
  ``open_memmap``, ``ctypes.CDLL``) anywhere outside the
  integrity-verified helpers (:mod:`repro.core.integrity`).  A mapped
  ``.npy`` or a ``CDLL``-loaded ``.so`` that skipped verification is
  exactly the silent-wrong-answers path the integrity layer exists to
  close; the few legitimate call sites (the verified open itself, a
  build writing its own staged partial) carry a reasoned
  ``# qa503: allow — <why>`` waiver on the call's first or last line.

* **QA504** — an import under ``src/``, at any depth, of a third-party
  top-level module that ``[project].dependencies`` in the nearest
  ``pyproject.toml`` does not declare.  A clean install has only the
  declared dependencies, so such an import crashes there however well
  it works in a development environment.  Standard-library modules,
  ``repro`` itself, relative imports, and imports inside a ``try`` whose
  handler catches ``ImportError``/``ModuleNotFoundError`` (an optional
  backend's graceful-unavailable path) are allowed.  The search for
  ``pyproject.toml`` walks up from the module's file on disk; in-memory
  sources and files with no ``pyproject.toml`` above them are not
  checked.  Distribution names
  are compared with ``-``/``.`` folded to ``_``, so a dependency whose
  import name differs from its distribution name needs a reasoned
  ``# qa504: allow — <why>`` waiver on the import line.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path, PurePosixPath
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.qa.diagnostics import Finding, Severity
from repro.qa.rules import (
    LintRule,
    ModuleSource,
    Project,
    dotted_name,
    register_rule,
)

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11: QA504 stays silent
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "BareExceptRule",
    "SilentBroadExceptRule",
    "UndeclaredDependencyRule",
    "UnverifiedArtifactLoadRule",
]

#: Exception names whose silent swallowing is always a hazard.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _names_broad_exception(node: ast.expr) -> bool:
    """Whether an ``except`` type expression includes Exception/BaseException."""
    if isinstance(node, ast.Tuple):
        return any(_names_broad_exception(element) for element in node.elts)
    dotted = dotted_name(node)
    return (
        dotted is not None
        and dotted.split(".")[-1] in _BROAD_EXCEPTIONS
    )


def _body_is_silent(body: Iterable[ast.stmt]) -> bool:
    """Whether a handler body does nothing: only ``pass``, ``...``, docstrings."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # bare string/Ellipsis expression
        return False
    return True


@register_rule
class BareExceptRule(LintRule):
    """QA501: no bare ``except:`` clauses."""

    rule_id = "QA501"
    title = "bare except clause"
    severity = Severity.ERROR

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module.path,
                    node.lineno,
                    "bare except catches everything including "
                    "KeyboardInterrupt/SystemExit; name the exception "
                    "type(s) being handled",
                )


@register_rule
class SilentBroadExceptRule(LintRule):
    """QA502: no ``except Exception: pass`` silent swallowing."""

    rule_id = "QA502"
    title = "broad exception silently swallowed"
    severity = Severity.ERROR

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                continue  # QA501's finding; don't double-report
            if not _names_broad_exception(node.type):
                continue
            suppressed, replacement = self.pragma_gate(
                module, node.lineno
            )
            if replacement is not None:
                yield replacement
                continue
            if suppressed:
                continue  # explicitly whitelisted, with a reason
            if _body_is_silent(node.body):
                yield self.finding(
                    module.path,
                    node.lineno,
                    "except Exception with an empty body swallows every "
                    "failure silently; record, retry, re-raise, or narrow "
                    "the exception type",
                )


#: Dotted call names that load cache-controlled artifacts.  Exact
#: matches only — a generic ``.load`` suffix would flag ``json.load``
#: and friends, which carry no integrity contract here.
_ARTIFACT_LOADERS = {
    "np.load",
    "numpy.load",
    "CDLL",
    "ctypes.CDLL",
    "open_memmap",
    "np.lib.format.open_memmap",
    "numpy.lib.format.open_memmap",
}

#: The module allowed to perform raw artifact reads: it IS the verifier.
_INTEGRITY_MODULE = "repro/core/integrity.py"


@register_rule
class UnverifiedArtifactLoadRule(LintRule):
    """QA503: no raw artifact loads outside the integrity layer."""

    rule_id = "QA503"
    title = "artifact loaded without integrity verification"
    severity = Severity.ERROR

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        if module.path.endswith(_INTEGRITY_MODULE):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted not in _ARTIFACT_LOADERS:
                continue
            # The waiver may sit on the call's first or last physical
            # line — multi-line calls put the closing paren (and the
            # room for a comment) on a different line than the name.
            suppressed, replacement = self.pragma_gate(
                module, node.lineno
            )
            if not suppressed and replacement is None:
                end = getattr(node, "end_lineno", None)
                if end is not None and end != node.lineno:
                    suppressed, replacement = self.pragma_gate(
                        module, end
                    )
            if replacement is not None:
                yield replacement
                continue
            if suppressed:
                continue
            yield self.finding(
                module.path,
                node.lineno,
                f"{dotted} on a cache-controlled artifact bypasses "
                f"integrity verification; go through "
                f"repro.core.integrity / SummedAreaTable.open_mmap, or "
                f"waive with '# qa503: allow — <why this is safe>'",
            )


#: Exceptions whose handler makes an import optional rather than required.
_IMPORT_GUARDS = {"ImportError", "ModuleNotFoundError"}

#: ``try`` statements, including ``try``/``except*`` where it exists.
_TRY_STATEMENTS = tuple(
    getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name)
)

#: The project's own top-level package.
_OWN_PACKAGE = "repro"

#: The leading name of a PEP 508 requirement string.
_REQUIREMENT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    """Whether a handler names ImportError/ModuleNotFoundError."""
    if handler.type is None:
        return False
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        (dotted_name(node) or "").split(".")[-1] in _IMPORT_GUARDS
        for node in types
    )


def _imports(
    node: ast.AST, guarded: bool = False
) -> Iterator[Tuple[ast.stmt, str, bool]]:
    """``(statement, top-level module, guarded)`` for every absolute import."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield node, alias.name.split(".")[0], guarded
        return
    if isinstance(node, ast.ImportFrom):
        if not node.level and node.module:
            yield node, node.module.split(".")[0], guarded
        return
    if isinstance(node, _TRY_STATEMENTS):
        body_guarded = guarded or any(
            _catches_import_error(handler) for handler in node.handlers
        )
        for statement in node.body:
            yield from _imports(statement, body_guarded)
        for part in (node.handlers, node.orelse, node.finalbody):
            for child in part:
                yield from _imports(child, guarded)
        return
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, guarded)


def _normalize(name: str) -> str:
    return re.sub(r"[-.]+", "_", name).lower()


@register_rule
class UndeclaredDependencyRule(LintRule):
    """QA504: every third-party import under ``src/`` is declared."""

    rule_id = "QA504"
    title = "import of an undeclared dependency"
    severity = Severity.ERROR

    def __init__(self) -> None:
        self._declared: Dict[Path, FrozenSet[str]] = {}

    @staticmethod
    def _pyproject(module: ModuleSource) -> Optional[Path]:
        """The ``pyproject.toml`` nearest above the module's file."""
        if module.file is None:
            return None
        for directory in module.file.parents:
            candidate = directory / "pyproject.toml"
            if candidate.is_file():
                return candidate
        return None

    def _dependencies(self, pyproject: Path) -> FrozenSet[str]:
        declared = self._declared.get(pyproject)
        if declared is None:
            assert tomllib is not None
            with pyproject.open("rb") as handle:
                config = tomllib.load(handle)
            requirements = config.get("project", {}).get(
                "dependencies", []
            )
            declared = frozenset(
                _normalize(match.group(0))
                for match in map(_REQUIREMENT_NAME.match, requirements)
                if match is not None
            )
            self._declared[pyproject] = declared
        return declared

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        stdlib = getattr(sys, "stdlib_module_names", None)
        if tomllib is None or stdlib is None:
            return  # cannot tell stdlib from third party here
        if "src" not in PurePosixPath(module.path).parts[:-1]:
            return
        pyproject = self._pyproject(module)
        if pyproject is None:
            return
        declared = self._dependencies(pyproject)
        for node, top, guarded in _imports(module.tree):
            if (
                guarded
                or top in stdlib
                or top == _OWN_PACKAGE
                or _normalize(top) in declared
            ):
                continue
            suppressed, replacement = self.pragma_gate(
                module, node.lineno
            )
            if replacement is not None:
                yield replacement
                continue
            if suppressed:
                continue
            yield self.finding(
                module.path,
                node.lineno,
                f"import of {top!r}, which [project].dependencies in "
                f"{pyproject.name} does not declare; a clean install "
                f"crashes here — declare it, guard the import with "
                f"'except ImportError', or waive with "
                f"'# qa504: allow — <why>'",
            )
