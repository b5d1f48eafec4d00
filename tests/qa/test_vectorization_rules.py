"""QA701-QA704: the vectorization/perf rule family."""

import pathlib
import textwrap

from repro.qa.linter import lint_paths, lint_source

VECTORIZATION_RULES = ("QA701", "QA702", "QA703", "QA704")
CORPUS = pathlib.Path(__file__).parent / "fixtures" / "vectorization"


def codes(findings):
    return {finding.rule for finding in findings}


def lint(source, path="snippet.py"):
    return lint_source(textwrap.dedent(source), path=path)


class TestHotRegionSelection:
    LOOP = """
    import numpy as np

    def walk(table):
        table = np.asarray(table)
        total = 0
        for value in table:
            total += value
        return total
    """

    def test_cold_module_silent(self):
        assert "QA701" not in codes(lint(self.LOOP))

    def test_engine_module_is_hot_by_path(self):
        findings = lint(self.LOOP, path="src/repro/core/engine.py")
        assert "QA701" in codes(findings)

    def test_cost_module_is_hot_by_path(self):
        findings = lint(self.LOOP, path="src/repro/core/cost.py")
        assert "QA701" in codes(findings)

    def test_scheme_disk_array_function_is_hot(self):
        findings = lint(
            """
            import numpy as np

            def disk_array_kernel(table):
                table = np.asarray(table)
                total = 0
                for value in table:
                    total += value
                return total

            def unrelated(table):
                table = np.asarray(table)
                for value in table:
                    pass
            """,
            path="src/repro/schemes/fancy.py",
        )
        qa701 = [f for f in findings if f.rule == "QA701"]
        assert len(qa701) == 1  # only the disk_array kernel is hot

    def test_marker_comment_opts_a_function_in(self):
        findings = lint(
            """
            import numpy as np

            def walk(table):  # qa7: hot
                table = np.asarray(table)
                total = 0
                for value in table:
                    total += value
                return total
            """
        )
        assert "QA701" in codes(findings)

    def test_jit_decorator_does_not_exempt_a_hot_loop(self):
        # No backend compiles python loops, so a decorator named like a
        # JIT compiler leaves the loop as interpreted as any other.
        findings = lint(
            """
            import numpy as np
            from numba import njit

            @njit
            def walk(table):
                table = np.asarray(table)
                total = 0
                for value in table:
                    total += value
                return total

            @njit(cache=True)
            def walk_cached(table: np.ndarray):
                total = 0
                for value in table:
                    total += value
                return total
            """,
            path="src/repro/core/backends/jitted.py",
        )
        qa701 = [f for f in findings if f.rule == "QA701"]
        assert len(qa701) == 2


class TestHotNdarrayLoopRule:
    def test_range_loop_not_flagged(self):
        # The engine's own idiom: python loop over *indices*, numpy
        # math on whole arrays inside — must stay legal.
        findings = lint(
            """
            import numpy as np

            def corners(lo, hi, ndim):  # qa7: hot
                lo = np.asarray(lo)
                hi = np.asarray(hi)
                total = 0
                for corner in range(1 << ndim):
                    total += int((hi - lo).sum())
                return total
            """
        )
        assert "QA701" not in codes(findings)

    def test_zip_over_arrays_flagged(self):
        findings = lint(
            """
            import numpy as np

            def pair(a, b):  # qa7: hot
                a = np.asarray(a)
                b = np.asarray(b)
                return [x + y for x in a for y in b]

            def pairwise(a, b):  # qa7: hot
                a = np.asarray(a)
                b = np.asarray(b)
                total = 0
                for x, y in zip(a, b):
                    total += x * y
                return total
            """
        )
        assert "QA701" in codes(findings)

    def test_annotated_parameter_counts_as_array(self):
        findings = lint(
            """
            import numpy as np

            def walk(table: np.ndarray):  # qa7: hot
                total = 0
                for value in table:
                    total += value
                return total
            """
        )
        assert "QA701" in codes(findings)

    def test_pragma_with_reason_suppresses(self):
        findings = lint(
            """
            import numpy as np

            def walk(table):  # qa7: hot
                table = np.asarray(table)
                for row in table:  # qa701: allow — rows feed a generator API
                    yield row
            """
        )
        assert "QA701" not in codes(findings)


class TestUntypedArrayConstructionRule:
    def test_fromiter_without_dtype_and_count_flagged(self):
        findings = lint(
            """
            import numpy as np

            def build(values):  # qa7: hot
                return np.fromiter(v * 2 for v in values)
            """
        )
        qa702 = [f for f in findings if f.rule == "QA702"]
        assert len(qa702) == 1
        assert "dtype=" in qa702[0].message
        assert "count=" in qa702[0].message

    def test_fromiter_fully_typed_clean(self):
        findings = lint(
            """
            import numpy as np

            def build(values):  # qa7: hot
                return np.fromiter(
                    (v * 2 for v in values),
                    dtype=np.int64,
                    count=len(values),
                )
            """
        )
        assert "QA702" not in codes(findings)

    def test_array_without_dtype_flagged_only_when_hot(self):
        source = """
        import numpy as np

        def build(values):
            return np.array(values)
        """
        assert "QA702" not in codes(lint(source))
        assert "QA702" in codes(
            lint(source, path="src/repro/core/engine.py")
        )

    def test_positional_dtype_recognized(self):
        findings = lint(
            """
            import numpy as np

            def build(values):  # qa7: hot
                return np.array(values, np.float64)
            """
        )
        assert "QA702" not in codes(findings)

    def test_pragma_with_reason_suppresses(self):
        findings = lint(
            """
            import numpy as np

            def build(values):  # qa7: hot
                return np.array(values)  # qa702: allow — ragged input, dtype varies
            """
        )
        assert "QA702" not in codes(findings)


class TestObjectDtypeRule:
    def test_dtype_object_keyword_flagged_anywhere(self):
        findings = lint(
            """
            import numpy as np

            def pack(rows):
                return np.array(rows, dtype=object)
            """
        )
        assert "QA703" in codes(findings)

    def test_dtype_object_string_flagged(self):
        findings = lint(
            """
            import numpy as np

            def pack(rows):
                return np.empty(len(rows), dtype="object")
            """
        )
        assert "QA703" in codes(findings)

    def test_np_object_attribute_flagged(self):
        findings = lint(
            """
            import numpy as np

            def pack(rows):
                return np.array(rows, dtype=np.object_)
            """
        )
        assert "QA703" in codes(findings)

    def test_numeric_dtype_clean(self):
        findings = lint(
            """
            import numpy as np

            def pack(rows):
                return np.array(rows, dtype=np.float64)
            """
        )
        assert "QA703" not in codes(findings)

    def test_pragma_with_reason_suppresses(self):
        findings = lint(
            """
            import numpy as np

            def pack(rows):
                return np.array(rows, dtype=object)  # qa703: allow — heterogeneous report cells
            """
        )
        assert "QA703" not in codes(findings)


class TestLoopElementGatherRule:
    def test_elementwise_gather_flagged(self):
        findings = lint(
            """
            import numpy as np

            def gather(table, indices):  # qa7: hot
                table = np.asarray(table)
                out = []
                for i in range(len(indices)):
                    out.append(table[i] * 2)
                return out
            """
        )
        qa704 = [f for f in findings if f.rule == "QA704"]
        assert len(qa704) == 1
        assert "table[i]" in qa704[0].message

    def test_loop_var_first_in_tuple_flagged(self):
        findings = lint(
            """
            import numpy as np

            def gather(table, n):  # qa7: hot
                table = np.asarray(table)
                total = 0
                for i in range(n):
                    total += table[i, 0]
                return total
            """
        )
        assert "QA704" in codes(findings)

    def test_slice_first_in_tuple_not_flagged(self):
        # The engine's corner-assembly idiom: ``lo[:, axis]`` inside a
        # loop over ``axis`` is a whole-column gather already.
        findings = lint(
            """
            import numpy as np

            def assemble(lo, ndim):  # qa7: hot
                lo = np.asarray(lo)
                index = ()
                for axis in range(ndim):
                    index += (lo[:, axis],)
                return index
            """
        )
        assert "QA704" not in codes(findings)

    def test_batched_gather_clean(self):
        findings = lint(
            """
            import numpy as np

            def gather(table, indices):  # qa7: hot
                table = np.asarray(table)
                indices = np.asarray(indices, dtype=np.intp)
                return table[indices] * 2
            """
        )
        assert "QA704" not in codes(findings)

    def test_plain_list_indexing_not_flagged(self):
        findings = lint(
            """
            def gather(rows, n):  # qa7: hot
                out = []
                for i in range(n):
                    out.append(rows[i])
                return out
            """
        )
        assert "QA704" not in codes(findings)

    def test_pragma_with_reason_suppresses(self):
        findings = lint(
            """
            import numpy as np

            def gather(table, n):  # qa7: hot
                table = np.asarray(table)
                total = 0
                for i in range(n):
                    total += table[i]  # qa704: allow — early-exit search, gather would over-read
                return total
            """
        )
        assert "QA704" not in codes(findings)


class TestShippedHotModulesStayClean:
    def test_engine_and_cost_pass_their_own_gate(self):
        # The modules the rules exist to protect must currently pass
        # them — the batch engine's loops are index loops, not
        # element loops.
        import pathlib

        import repro

        package = pathlib.Path(repro.__file__).parent
        for name in ("engine", "cost"):
            source = (package / "core" / f"{name}.py").read_text()
            findings = lint_source(
                source, path=f"src/repro/core/{name}.py"
            )
            hot = [
                f
                for f in findings
                if f.rule in ("QA701", "QA702", "QA703", "QA704")
            ]
            assert hot == [], "\n".join(f.render() for f in hot)


class TestFixtureCorpus:
    """Every QA7xx rule fires on the known-bad file and stays silent on
    its batched rewrite."""

    @staticmethod
    def _findings(subdir):
        base = CORPUS / subdir
        return [
            finding for finding in lint_paths([base], root=base)
            if finding.rule in VECTORIZATION_RULES
        ]

    def test_every_rule_fires_on_the_scalar_kernels(self):
        fired = {
            (finding.file, finding.rule)
            for finding in self._findings("bad")
        }
        assert fired == {
            ("hot_scalar.py", rule) for rule in VECTORIZATION_RULES
        }

    def test_batched_rewrites_are_silent(self):
        findings = self._findings("good")
        assert findings == [], "\n".join(
            finding.render() for finding in findings
        )
