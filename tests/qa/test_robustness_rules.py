"""QA501/QA502/QA504: the no-silent-failure and declared-dependency rules."""

import pathlib
import sys
import textwrap

import pytest

from repro.qa.linter import lint_paths, lint_source
from repro.qa.rules import robustness
from repro.qa.rules.robustness import UndeclaredDependencyRule


def codes(findings):
    return {finding.rule for finding in findings}


def lint(source):
    return lint_source(textwrap.dedent(source))


class TestBareExceptRule:
    def test_bare_except_flagged(self):
        findings = lint(
            """
            try:
                risky()
            except:
                recover()
            """
        )
        assert "QA501" in codes(findings)

    def test_named_exception_clean(self):
        findings = lint(
            """
            try:
                risky()
            except ValueError:
                recover()
            """
        )
        assert "QA501" not in codes(findings)

    def test_finding_points_at_the_handler_line(self):
        findings = lint("try:\n    x()\nexcept:\n    y()\n")
        finding = next(f for f in findings if f.rule == "QA501")
        assert finding.line == 3


class TestSilentBroadExceptRule:
    def test_swallowed_exception_flagged(self):
        findings = lint(
            """
            try:
                risky()
            except Exception:
                pass
            """
        )
        assert "QA502" in codes(findings)

    def test_swallowed_base_exception_flagged(self):
        findings = lint(
            """
            try:
                risky()
            except BaseException:
                ...
            """
        )
        assert "QA502" in codes(findings)

    def test_broad_member_of_tuple_flagged(self):
        findings = lint(
            """
            try:
                risky()
            except (ValueError, Exception):
                pass
            """
        )
        assert "QA502" in codes(findings)

    def test_docstring_only_body_still_silent(self):
        findings = lint(
            '''
            try:
                risky()
            except Exception:
                """Deliberately ignored."""
            '''
        )
        assert "QA502" in codes(findings)

    def test_broad_catch_that_acts_is_allowed(self):
        # The self-healing runner's pattern: broad, but the failure is
        # recorded and retried — that must stay legal.
        findings = lint(
            """
            try:
                risky()
            except Exception as exc:
                failures.append(exc)
            """
        )
        assert "QA502" not in codes(findings)

    def test_narrow_silent_catch_is_allowed(self):
        findings = lint(
            """
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            """
        )
        assert codes(findings) & {"QA501", "QA502"} == set()

    def test_dotted_exception_name_recognized(self):
        findings = lint(
            """
            try:
                risky()
            except builtins.Exception:
                pass
            """
        )
        assert "QA502" in codes(findings)

    def test_bare_except_not_double_reported(self):
        findings = lint(
            """
            try:
                risky()
            except:
                pass
            """
        )
        assert "QA501" in codes(findings)
        assert "QA502" not in codes(findings)


class TestQA502AllowPragma:
    def test_pragma_with_reason_suppresses(self):
        findings = lint(
            """
            try:
                risky()
            except Exception:  # qa502: allow — deliberate, logged upstream
                pass
            """
        )
        assert "QA502" not in codes(findings)

    def test_pragma_with_ascii_dash_reason_suppresses(self):
        findings = lint(
            """
            try:
                risky()
            except Exception:  # qa502: allow - counted via obs metrics
                pass
            """
        )
        assert "QA502" not in codes(findings)

    def test_pragma_without_reason_is_itself_a_finding(self):
        findings = lint(
            """
            try:
                risky()
            except Exception:  # qa502: allow
                handle()
            """
        )
        finding = next(f for f in findings if f.rule == "QA502")
        assert "without a reason" in finding.message

    def test_pragma_applies_to_its_handler_only(self):
        findings = lint(
            """
            try:
                risky()
            except Exception:  # qa502: allow — first handler is audited
                pass

            try:
                risky()
            except Exception:
                pass
            """
        )
        qa502 = [f for f in findings if f.rule == "QA502"]
        assert len(qa502) == 1
        assert qa502[0].line == 9

    def test_pragma_on_acting_handler_is_harmless(self):
        findings = lint(
            """
            try:
                risky()
            except Exception as exc:  # qa502: allow — belt and braces
                log(exc)
            """
        )
        assert "QA502" not in codes(findings)

    def test_pragma_is_case_insensitive(self):
        findings = lint(
            """
            try:
                risky()
            except Exception:  # QA502: Allow — shouting is still a waiver
                pass
            """
        )
        assert "QA502" not in codes(findings)


PYPROJECT = '[project]\nname = "demo"\ndependencies = ["numpy>=1.21"]\n'

#: QA504 reads ``tomllib`` and ``sys.stdlib_module_names`` (3.11+).
needs_qa504 = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="QA504 needs tomllib and sys.stdlib_module_names",
)


@pytest.fixture
def lint_src(tmp_path):
    """Lint a snippet written to ``src/repro/fixture.py`` of a demo tree."""
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)

    def run(source):
        (package / "fixture.py").write_text(textwrap.dedent(source))
        return lint_paths(
            [package], root=tmp_path, rules=[UndeclaredDependencyRule()]
        )

    return run


def qa504_lines(findings):
    return [f.line for f in findings if f.rule == "QA504"]


@needs_qa504
class TestUndeclaredDependencyRule:
    def test_unguarded_networkx_import_flagged(self, lint_src):
        findings = lint_src("import networkx as nx\n")
        assert qa504_lines(findings) == [1]
        message = next(f for f in findings if f.rule == "QA504").message
        assert "'networkx'" in message

    def test_import_at_any_depth_flagged(self, lint_src):
        findings = lint_src(
            """
            def solve(graph):
                if graph:
                    from networkx.algorithms import flow
                    return flow
            """
        )
        assert qa504_lines(findings) == [4]

    def test_declared_stdlib_own_and_relative_imports_clean(self, lint_src):
        findings = lint_src(
            """
            import os.path
            import numpy as np
            from collections import deque
            from repro.core.grid import Grid
            from . import sibling
            from .sibling import helper
            """
        )
        assert qa504_lines(findings) == []

    def test_import_error_guard_allows_optional_dependency(self, lint_src):
        findings = lint_src(
            """
            try:
                import numba
            except ImportError:
                numba = None
            try:
                from scipy import sparse
            except (OSError, ModuleNotFoundError):
                sparse = None
            """
        )
        assert qa504_lines(findings) == []

    def test_other_handlers_and_fallback_imports_flagged(self, lint_src):
        findings = lint_src(
            """
            try:
                import networkx
            except ValueError:
                networkx = None
            try:
                import numba
            except ImportError:
                import llvmlite
            """
        )
        assert qa504_lines(findings) == [3, 9]

    def test_only_src_modules_checked(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(PYPROJECT)
        (tmp_path / "scripts").mkdir()
        (tmp_path / "scripts" / "tool.py").write_text("import networkx\n")
        findings = lint_paths(
            [tmp_path / "scripts"],
            root=tmp_path,
            rules=[UndeclaredDependencyRule()],
        )
        assert qa504_lines(findings) == []

    def test_in_memory_source_without_pyproject_is_silent(self):
        findings = lint_source(
            "import networkx\n", path="src/repro/fixture.py"
        )
        assert qa504_lines(findings) == []

    def test_tree_without_pyproject_is_silent(self, tmp_path):
        package = tmp_path / "src" / "demo"
        package.mkdir(parents=True)
        (package / "graph.py").write_text("import networkx\n")
        findings = lint_paths(
            [package], root=tmp_path, rules=[UndeclaredDependencyRule()]
        )
        assert qa504_lines(findings) == []

    def test_pragma_needs_a_reason(self, lint_src):
        waived = lint_src(
            "import networkx  # qa504: allow — test-only helper\n"
        )
        assert qa504_lines(waived) == []
        reasonless = lint_src("import networkx  # qa504: allow\n")
        assert qa504_lines(reasonless) == [1]
        assert "without a reason" in next(
            f for f in reasonless if f.rule == "QA504"
        ).message

    def test_nearest_pyproject_declares_dependencies(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[project]\nname = "demo"\n'
            'dependencies = ["NetworkX>=3", "numpy"]\n'
        )
        package = tmp_path / "src" / "demo"
        package.mkdir(parents=True)
        (package / "graph.py").write_text(
            "import networkx\nimport scipy\n__all__ = []\n"
        )
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [
            (f.file, f.line) for f in findings if f.rule == "QA504"
        ] == [("src/demo/graph.py", 2)]

    def test_repository_sources_are_clean(self):
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        findings = lint_paths(
            [repo_root / "src"],
            root=repo_root,
            rules=[UndeclaredDependencyRule()],
        )
        assert findings == []


def test_qa504_silent_without_tomllib(lint_src, monkeypatch):
    """Older interpreters (no ``tomllib``) get no QA504 findings at all."""
    monkeypatch.setattr(robustness, "tomllib", None)
    assert qa504_lines(lint_src("import networkx\n")) == []


def test_qa504_silent_without_stdlib_module_names(lint_src, monkeypatch):
    """Nor do interpreters without ``sys.stdlib_module_names``."""
    monkeypatch.delattr(sys, "stdlib_module_names", raising=False)
    assert qa504_lines(lint_src("import networkx\n")) == []
