"""Each lint rule exercised against inline good/bad fixture snippets."""

import pathlib
import textwrap

from repro.qa.linter import lint_paths, lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

def codes(findings):
    return {finding.rule for finding in findings}


def lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), **kwargs)


#: A minimal registry module for the project-scope rules; mirrors the real
#: core/registry.py shape (literal names, factories, PAPER_LABELS).
REGISTRY_GOOD = textwrap.dedent(
    """
    PAPER_LABELS = {"good": "Good"}

    def register_scheme(name, factory, replace=False):
        pass

    def _register_builtins():
        register_scheme("good", GoodScheme)
    """
)


class TestSyntaxError:
    def test_unparseable_file_is_a_finding(self):
        findings = lint("def broken(:\n")
        assert codes(findings) == {"QA001"}

    def test_broken_file_in_a_tree_yields_one_qa001(self):
        base = FIXTURES / "syntax"
        qa001 = [
            f for f in lint_paths([base], root=base) if f.rule == "QA001"
        ]
        assert len(qa001) == 1
        assert qa001[0].file == "broken.py"
        assert "syntax error" in qa001[0].message

    def test_sibling_findings_still_reported(self):
        base = FIXTURES / "syntax"
        sibling = {
            f.rule for f in lint_paths([base], root=base)
            if f.file == "sibling.py"
        }
        assert "QA201" in sibling  # the stdlib random import


class TestSchemeNameRule:
    def test_missing_name_flagged(self):
        findings = lint(
            """
            class BadScheme(DeclusteringScheme):
                def disk_of(self, coords, grid, num_disks):
                    return 0
            """
        )
        assert "QA101" in codes(findings)

    def test_empty_name_flagged(self):
        findings = lint(
            """
            class BadScheme(DeclusteringScheme):
                name = ""
            """
        )
        assert "QA101" in codes(findings)

    def test_named_scheme_ok(self):
        findings = lint(
            """
            class GoodScheme(DeclusteringScheme):
                name = "good"
            """
        )
        assert "QA101" not in codes(findings)

    def test_inherited_name_ok(self):
        findings = lint(
            """
            class _Base(DeclusteringScheme):
                name = "base"

            class Derived(_Base):
                pass
            """
        )
        assert "QA101" not in codes(findings)

    def test_private_and_abstract_exempt(self):
        findings = lint(
            """
            import abc

            class _Intermediate(DeclusteringScheme):
                pass

            class AbstractScheme(DeclusteringScheme):
                @abc.abstractmethod
                def disk_of(self, coords, grid, num_disks):
                    ...
            """
        )
        assert "QA101" not in codes(findings)

    def test_transitive_subclass_detected(self):
        findings = lint(
            """
            class Mid(DeclusteringScheme):
                name = "mid"

            class Leaf(Mid):
                name = "leaf"

            class BadLeaf(Mid):
                name = ""
            """
        )
        # BadLeaf overrides the inherited name with an empty literal — the
        # nearest resolvable assignment wins, so it is flagged even though
        # an ancestor carries a usable name.
        flagged = [f for f in findings if f.rule == "QA101"]
        assert len(flagged) == 1
        assert "BadLeaf" in flagged[0].message


class TestSchemeRegisteredRule:
    def test_unregistered_scheme_flagged(self):
        findings = lint(
            """
            class OrphanScheme(DeclusteringScheme):
                name = "orphan"
            """,
            path="schemes/orphan.py",
            extra_modules={"core/registry.py": REGISTRY_GOOD},
        )
        assert "QA102" in codes(findings)

    def test_registered_scheme_ok(self):
        findings = lint(
            """
            class GoodScheme(DeclusteringScheme):
                name = "good"
            """,
            path="schemes/good.py",
            extra_modules={"core/registry.py": REGISTRY_GOOD},
        )
        assert "QA102" not in codes(findings)

    def test_lambda_registration_counts(self):
        registry = REGISTRY_GOOD.replace(
            'register_scheme("good", GoodScheme)',
            'register_scheme("good", lambda: GoodScheme(policy="x"))',
        )
        findings = lint(
            """
            class GoodScheme(DeclusteringScheme):
                name = "good"
            """,
            path="schemes/good.py",
            extra_modules={"core/registry.py": registry},
        )
        assert "QA102" not in codes(findings)

    def test_no_registry_module_no_findings(self):
        findings = lint(
            """
            class OrphanScheme(DeclusteringScheme):
                name = "orphan"
            """
        )
        assert "QA102" not in codes(findings)


class TestRegistryLabelSyncRule:
    def test_registered_name_without_label_flagged(self):
        registry = REGISTRY_GOOD.replace(
            '{"good": "Good"}', "{}"
        )
        findings = lint(
            "X = 1\n__all__ = ['X']\n",
            extra_modules={"core/registry.py": registry},
        )
        assert "QA103" in codes(findings)

    def test_label_without_registration_flagged(self):
        registry = REGISTRY_GOOD.replace(
            '{"good": "Good"}', '{"good": "Good", "ghost": "Ghost"}'
        )
        findings = lint(
            "X = 1\n__all__ = ['X']\n",
            extra_modules={"core/registry.py": registry},
        )
        assert "QA103" in codes(findings)

    def test_in_sync_ok(self):
        findings = lint(
            "X = 1\n__all__ = ['X']\n",
            extra_modules={"core/registry.py": REGISTRY_GOOD},
        )
        assert "QA103" not in codes(findings)


class TestStdlibRandomRule:
    def test_import_random_flagged(self):
        assert "QA201" in codes(lint("import random\n"))

    def test_from_random_flagged(self):
        assert "QA201" in codes(lint("from random import choice\n"))

    def test_aliased_import_flagged(self):
        assert "QA201" in codes(lint("import random as rnd\n"))

    def test_numpy_random_import_ok(self):
        assert "QA201" not in codes(lint("from numpy import random\n"))


class TestLegacyNumpyRandomRule:
    def test_legacy_call_flagged(self):
        assert "QA202" in codes(
            lint("import numpy as np\nx = np.random.rand(3)\n")
        )

    def test_global_seed_flagged(self):
        assert "QA202" in codes(
            lint("import numpy\nnumpy.random.seed(0)\n")
        )

    def test_default_rng_ok(self):
        assert "QA202" not in codes(
            lint("import numpy as np\nrng = np.random.default_rng(0)\n")
        )

    def test_unrelated_random_attr_ok(self):
        assert "QA202" not in codes(
            lint("x = workload.random.sample(3)\n")
        )


class TestUnseededDefaultRngRule:
    def test_no_args_flagged(self):
        assert "QA203" in codes(
            lint("import numpy as np\nrng = np.random.default_rng()\n")
        )

    def test_seeded_ok(self):
        assert "QA203" not in codes(
            lint("import numpy as np\nrng = np.random.default_rng(42)\n")
        )

    def test_keyword_seed_ok(self):
        assert "QA203" not in codes(
            lint(
                "import numpy as np\n"
                "rng = np.random.default_rng(seed=42)\n"
            )
        )


class TestFloatEqualityRule:
    def test_float_literal_eq_flagged(self):
        assert "QA301" in codes(lint("ok = x == 0.5\n__all__ = []\n"))

    def test_float_literal_ne_flagged(self):
        assert "QA301" in codes(lint("ok = 1.0 != x\n"))

    def test_float_call_flagged(self):
        assert "QA301" in codes(lint("ok = float(x) == y\n"))

    def test_negative_float_flagged(self):
        assert "QA301" in codes(lint("ok = x == -0.0\n"))

    def test_integer_eq_ok(self):
        assert "QA301" not in codes(lint("ok = x == 1\n"))

    def test_float_ordering_ok(self):
        assert "QA301" not in codes(lint("ok = x < 0.5\n"))


class TestMutableDefaultRule:
    def test_list_default_flagged(self):
        assert "QA302" in codes(lint("def f(a=[]):\n    pass\n"))

    def test_dict_default_flagged(self):
        assert "QA302" in codes(lint("def f(a={}):\n    pass\n"))

    def test_factory_call_default_flagged(self):
        assert "QA302" in codes(lint("def f(a=list()):\n    pass\n"))

    def test_kwonly_default_flagged(self):
        assert "QA302" in codes(lint("def f(*, a=[]):\n    pass\n"))

    def test_none_default_ok(self):
        assert "QA302" not in codes(lint("def f(a=None):\n    pass\n"))

    def test_tuple_default_ok(self):
        assert "QA302" not in codes(lint("def f(a=()):\n    pass\n"))


class TestDunderAllRules:
    def test_missing_all_flagged(self):
        assert "QA303" in codes(lint("def public():\n    pass\n"))

    def test_private_module_exempt(self):
        findings = lint(
            "def public():\n    pass\n", path="repro/_private.py"
        )
        assert "QA303" not in codes(findings)

    def test_only_private_names_exempt(self):
        assert "QA303" not in codes(lint("def _helper():\n    pass\n"))

    def test_with_all_ok(self):
        findings = lint(
            "__all__ = ['public']\n\ndef public():\n    pass\n"
        )
        assert codes(findings) == set()

    def test_undefined_entry_flagged(self):
        findings = lint("__all__ = ['ghost']\nX = 1\n")
        assert "QA304" in codes(findings)

    def test_imported_entry_ok(self):
        findings = lint(
            "from os.path import join\n__all__ = ['join']\n"
        )
        assert "QA304" not in codes(findings)
