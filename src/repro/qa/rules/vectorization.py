"""Vectorization/perf rules (QA7xx): keep the hot paths batch-shaped.

PR 4's batch engine made query evaluation ~7x faster (BENCH_batch.json)
by replacing per-record python loops with whole-array numpy kernels.
That win erodes silently: a scalar ``for`` loop or an untyped
``np.fromiter`` creeping into ``core/engine.py`` costs nothing at review
time and everything at benchmark time.  These rules guard the designated
**hot regions**:

* ``core/engine.py`` and ``core/cost.py`` — whole modules;
* ``core/backends/`` — the whole directory: every kernel backend is a
  hot path by definition;
* ``schemes/*.py`` functions whose name contains ``disk_array`` (the
  per-scheme allocation kernels the engine batches over);
* any function carrying a ``# qa7: hot`` marker comment (opt-in for new
  kernels before they earn a dedicated path here).

The rules:

* **QA701** — a python-level ``for`` loop iterates an ndarray (or a
  ``zip``/``enumerate`` over one) in a hot region.  Iterate in numpy,
  not in python.
* **QA702** — ``np.fromiter``/``np.array`` without an explicit
  ``dtype=`` (and ``fromiter`` without ``count=``) in a hot region:
  dtype inference walks the input twice and can land on ``object``.
* **QA703** — object-dtype array creation (``dtype=object``): an object
  array is a python list wearing an ndarray costume; every ufunc on it
  falls back to scalar dispatch.
* **QA704** — element-wise fancy indexing ``arr[i]`` inside a loop over
  ``i`` in a hot region, where a single batched gather (``arr[idx]``
  with an index array) does the same work in one kernel.

Array-ness is tracked by lightweight local **provenance**: names bound
from numpy-alias calls, array-returning methods (``reshape``/``astype``
/...), array arithmetic, sliced subscripts, and parameters annotated
``np.ndarray``/``NDArray``.  Approximate by design — false negatives
are acceptable (the benchmarks still gate), false positives get the
reason-bearing ``# qa70N: allow — <why>`` pragma.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.qa.diagnostics import Finding, Severity
from repro.qa.rules import (
    LintRule,
    ModuleSource,
    Project,
    dotted_name,
    register_rule,
)

__all__ = [
    "HotNdarrayLoopRule",
    "LoopElementGatherRule",
    "ObjectDtypeRule",
    "UntypedArrayConstructionRule",
]

#: Modules that are hot in their entirety.
_HOT_MODULE_SUFFIXES = ("repro/core/engine.py", "repro/core/cost.py")

#: Directories hot in their entirety — every kernel backend is a hot
#: path by definition, whatever its file name.
_HOT_DIR_FRAGMENTS = ("repro/core/backends/",)

#: Scheme allocation kernels: hot when the function name says so.
_SCHEMES_DIR = "repro/schemes/"
_HOT_SCHEME_TOKEN = "disk_array"

#: Opt-in marker for functions not covered by the path rules.
_HOT_MARKER = re.compile(r"#\s*qa7:\s*hot\b")

#: Methods whose result on an array is still an array.
_ARRAY_METHODS = frozenset(
    {
        "astype", "clip", "compress", "copy", "cumprod", "cumsum",
        "flatten", "ravel", "repeat", "reshape", "round", "squeeze",
        "swapaxes", "take", "transpose", "view",
    }
)

#: numpy functions returning scalars (drop provenance through them).
_SCALAR_NUMPY_FUNCS = frozenset(
    {
        "all", "allclose", "any", "array_equal", "count_nonzero",
        "isscalar", "max", "mean", "median", "min", "ndim", "prod",
        "ptp", "size", "std", "sum", "var",
    }
)

#: Builtins that iterate their array arguments element-wise.
_ITER_WRAPPERS = frozenset({"enumerate", "reversed", "zip"})


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the numpy package (``np``, ``numpy``, ...)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith(
                    "numpy."
                ):
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases


def _is_ndarray_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "ndarray" in node.value or "NDArray" in node.value
    if isinstance(node, ast.Subscript):
        return _is_ndarray_annotation(node.value)
    dotted = dotted_name(node)
    if dotted is None:
        return False
    last = dotted.split(".")[-1]
    return last in ("ndarray", "NDArray")


class HotRegions:
    """Which lines of a module the QA7xx rules apply to."""

    def __init__(self, module: ModuleSource) -> None:
        normalized = module.path.replace("\\", "/")
        self.module_hot = any(
            normalized.endswith(suffix)
            for suffix in _HOT_MODULE_SUFFIXES
        ) or any(
            fragment in normalized for fragment in _HOT_DIR_FRAGMENTS
        )
        self.spans: List[Tuple[int, int]] = []
        lines = module.source.splitlines()
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        function_lines: Set[int] = set()
        for func in functions:
            end = func.end_lineno or func.lineno
            function_lines.update(range(func.lineno, end + 1))
        if not self.module_hot:
            # A marker outside every function makes the module hot.
            for index, line in enumerate(lines, start=1):
                if index not in function_lines and _HOT_MARKER.search(
                    line
                ):
                    self.module_hot = True
                    break
        in_schemes = (
            _SCHEMES_DIR in module.path
            or module.path.startswith(_SCHEMES_DIR.split("/", 1)[-1])
        )
        for func in functions:
            end = func.end_lineno or func.lineno
            hot = in_schemes and _HOT_SCHEME_TOKEN in func.name
            if not hot:
                hot = any(
                    _HOT_MARKER.search(lines[i - 1])
                    for i in range(func.lineno, min(end, len(lines)) + 1)
                )
            if hot:
                self.spans.append((func.lineno, end))

    def is_hot(self, lineno: int) -> bool:
        if self.module_hot:
            return True
        return any(start <= lineno <= end for start, end in self.spans)

    @property
    def any_hot(self) -> bool:
        return self.module_hot or bool(self.spans)


def get_hot_regions(module: ModuleSource, project: Project) -> HotRegions:
    cache = project.analysis.setdefault("hot_regions", {})
    assert isinstance(cache, dict)
    regions = cache.get(module.path)
    if not isinstance(regions, HotRegions):
        regions = HotRegions(module)
        cache[module.path] = regions
    return regions


class Provenance:
    """Array-valued local names of one scope, by fixpoint over assigns."""

    def __init__(
        self,
        statements: Sequence[ast.stmt],
        aliases: Set[str],
        func: Optional[ast.AST] = None,
    ) -> None:
        self.aliases = aliases
        self.names: Set[str] = set()
        if func is not None:
            args = func.args  # type: ignore[attr-defined]
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                if arg.annotation is not None and _is_ndarray_annotation(
                    arg.annotation
                ):
                    self.names.add(arg.arg)
        changed = True
        while changed:
            changed = False
            for stmt in statements:
                for node in ast.walk(stmt):
                    target: Optional[str] = None
                    value: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign):
                        value = node.value
                        for t in node.targets:
                            if isinstance(t, ast.Name):
                                target = t.id
                    elif isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name
                    ):
                        target = node.target.id
                        if _is_ndarray_annotation(node.annotation):
                            value = None
                            if target not in self.names:
                                self.names.add(target)
                                changed = True
                            continue
                        value = node.value
                    elif isinstance(node, ast.AugAssign) and isinstance(
                        node.target, ast.Name
                    ):
                        target = node.target.id
                        value = node.value
                    if (
                        target is not None
                        and value is not None
                        and target not in self.names
                        and self.is_array(value)
                    ):
                        self.names.add(target)
                        changed = True

    def is_array(self, expr: ast.expr) -> bool:
        """Whether ``expr`` plausibly evaluates to an ndarray."""
        if isinstance(expr, ast.Name):
            return expr.id in self.names
        if isinstance(expr, ast.Attribute):
            if expr.attr == "T":
                return self.is_array(expr.value)
            return False
        if isinstance(expr, ast.Subscript):
            # Sliced views stay arrays; a plain ``arr[i]`` may be scalar.
            if not self.is_array(expr.value):
                return False
            return self._slice_keeps_array(expr.slice)
        if isinstance(expr, ast.BinOp):
            return self.is_array(expr.left) or self.is_array(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self.is_array(expr.operand)
        if isinstance(expr, ast.IfExp):
            return self.is_array(expr.body) or self.is_array(expr.orelse)
        if isinstance(expr, ast.Call):
            chain = dotted_name(expr.func)
            if chain is not None:
                parts = chain.split(".")
                if parts[0] in self.aliases and len(parts) > 1:
                    return parts[-1] not in _SCALAR_NUMPY_FUNCS
            if isinstance(expr.func, ast.Attribute):
                if expr.func.attr in _ARRAY_METHODS:
                    return self.is_array(expr.func.value)
            return False
        return False

    @staticmethod
    def _slice_keeps_array(node: ast.expr) -> bool:
        if isinstance(node, ast.Slice):
            return True
        if isinstance(node, ast.Tuple):
            return any(
                isinstance(element, ast.Slice) for element in node.elts
            )
        return False


def _scopes(
    module: ModuleSource,
) -> Iterable[Tuple[Optional[ast.AST], List[ast.stmt]]]:
    """(function, statements) pairs: each def, plus module top level."""
    top = [
        stmt
        for stmt in module.tree.body
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    yield None, top
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = [
                stmt
                for stmt in node.body
                if not isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
            ]
            yield node, body


class _HotRuleBase(LintRule):
    """Shared scaffolding: skip modules with no hot region at all."""

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        regions = get_hot_regions(module, project)
        if not regions.any_hot:
            return
        aliases = _numpy_aliases(module.tree)
        if not aliases:
            return
        yield from self.check_hot(module, project, regions, aliases)

    def check_hot(
        self,
        module: ModuleSource,
        project: Project,
        regions: HotRegions,
        aliases: Set[str],
    ) -> Iterable[Finding]:
        return ()

    def gated(
        self, module: ModuleSource, lineno: int, message: str
    ) -> Iterable[Finding]:
        suppressed, replacement = self.pragma_gate(module, lineno)
        if replacement is not None:
            yield replacement
            return
        if suppressed:
            return
        yield self.finding(module.path, lineno, message)


@register_rule
class HotNdarrayLoopRule(_HotRuleBase):
    """QA701: python ``for`` loop iterating an ndarray on a hot path."""

    rule_id = "QA701"
    title = "python loop over an ndarray in a hot region"
    severity = Severity.ERROR

    def check_hot(
        self,
        module: ModuleSource,
        project: Project,
        regions: HotRegions,
        aliases: Set[str],
    ) -> Iterable[Finding]:
        for func, statements in _scopes(module):
            prov = Provenance(statements, aliases, func)
            for stmt in statements:
                for node in ast.walk(stmt):
                    if not isinstance(node, (ast.For, ast.AsyncFor)):
                        continue
                    if not regions.is_hot(node.lineno):
                        continue
                    described = self._describe_iteration(node.iter, prov)
                    if described is None:
                        continue
                    yield from self.gated(
                        module,
                        node.lineno,
                        f"python-level for loop iterates {described} in "
                        f"a hot region; each iteration pays scalar "
                        f"dispatch — replace with whole-array numpy ops "
                        f"(the batch engine's speedup depends on it)",
                    )

    @staticmethod
    def _describe_iteration(
        iter_expr: ast.expr, prov: Provenance
    ) -> Optional[str]:
        if prov.is_array(iter_expr):
            chain = dotted_name(iter_expr)
            return f"ndarray {chain!r}" if chain else "an ndarray"
        if isinstance(iter_expr, ast.Call):
            chain = dotted_name(iter_expr.func)
            last = chain.split(".")[-1] if chain else None
            if last in _ITER_WRAPPERS and any(
                prov.is_array(arg) for arg in iter_expr.args
            ):
                return f"an ndarray through {last}()"
        return None


@register_rule
class UntypedArrayConstructionRule(_HotRuleBase):
    """QA702: ``np.fromiter``/``np.array`` without dtype on a hot path."""

    rule_id = "QA702"
    title = "untyped array construction in a hot region"
    severity = Severity.ERROR

    def check_hot(
        self,
        module: ModuleSource,
        project: Project,
        regions: HotRegions,
        aliases: Set[str],
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not regions.is_hot(node.lineno):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            if parts[0] not in aliases or len(parts) < 2:
                continue
            name = parts[-1]
            if name not in ("array", "fromiter"):
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg}
            missing: List[str] = []
            if "dtype" not in keywords and len(node.args) < 2:
                missing.append("dtype=")
            if name == "fromiter":
                if "count" not in keywords and len(node.args) < 3:
                    missing.append("count=")
            if not missing:
                continue
            wanted = " and ".join(missing)
            detail = (
                "dtype inference materializes the iterable twice and can "
                "land on object dtype"
                if name == "fromiter"
                else "dtype inference can land on float64/object "
                "surprises"
            )
            yield from self.gated(
                module,
                node.lineno,
                f"{chain}() without {wanted} in a hot region; {detail} "
                f"— state the element type (and length) explicitly",
            )


@register_rule
class ObjectDtypeRule(LintRule):
    """QA703: object-dtype array creation (anywhere)."""

    rule_id = "QA703"
    title = "object-dtype ndarray creation"
    severity = Severity.ERROR

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        aliases = _numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._creates_object_array(node, aliases):
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
                "object-dtype array creation: an object array is a "
                "python list in ndarray costume — every ufunc falls "
                "back to per-element dispatch; use a numeric dtype or "
                "a plain list",
            )

    @staticmethod
    def _is_object_dtype(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name) and expr.id == "object":
            return True
        if isinstance(expr, ast.Constant) and expr.value in (
            "object",
            "O",
        ):
            return True
        dotted = dotted_name(expr)
        return dotted is not None and dotted.split(".")[-1] in (
            "object_",
            "object",
        )

    def _creates_object_array(
        self, node: ast.Call, aliases: Set[str]
    ) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "dtype" and self._is_object_dtype(
                keyword.value
            ):
                return True
        chain = dotted_name(node.func)
        if chain is not None:
            parts = chain.split(".")
            if (
                parts[0] in aliases
                and len(parts) > 1
                and parts[-1] in ("array", "empty", "full", "zeros",
                                  "ones", "fromiter")
                and len(node.args) >= 2
                and self._is_object_dtype(node.args[1])
            ):
                return True
        return False


@register_rule
class LoopElementGatherRule(_HotRuleBase):
    """QA704: element-wise ``arr[i]`` in a loop where a gather batches."""

    rule_id = "QA704"
    title = "element-wise indexing inside a loop in a hot region"
    severity = Severity.ERROR

    def check_hot(
        self,
        module: ModuleSource,
        project: Project,
        regions: HotRegions,
        aliases: Set[str],
    ) -> Iterable[Finding]:
        for func, statements in _scopes(module):
            prov = Provenance(statements, aliases, func)
            for stmt in statements:
                for node in ast.walk(stmt):
                    if not isinstance(node, (ast.For, ast.AsyncFor)):
                        continue
                    if not isinstance(node.target, ast.Name):
                        continue
                    if not regions.is_hot(node.lineno):
                        continue
                    yield from self._check_loop(module, node, prov)

    def _check_loop(
        self, module: ModuleSource, loop: ast.For, prov: Provenance
    ) -> Iterable[Finding]:
        loop_var = loop.target.id  # type: ignore[union-attr]
        seen_lines: Set[int] = set()
        for node in ast.walk(loop):
            if node is loop:
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                # The inner loop's own variable gets its own pass.
                continue
            if not isinstance(node, ast.Subscript):
                continue
            if not self._indexes_by(node, loop_var):
                continue
            if not prov.is_array(node.value):
                continue
            if node.lineno in seen_lines:
                continue
            seen_lines.add(node.lineno)
            base = dotted_name(node.value) or "the array"
            yield from self.gated(
                module,
                node.lineno,
                f"{base}[{loop_var}] gathers one element per loop "
                f"iteration in a hot region; index once with the whole "
                f"index array ({base}[indices]) or vectorize the loop "
                f"body",
            )

    @staticmethod
    def _indexes_by(node: ast.Subscript, loop_var: str) -> bool:
        index = node.slice
        if isinstance(index, ast.Name):
            return index.id == loop_var
        if isinstance(index, ast.Tuple) and index.elts:
            first = index.elts[0]
            return isinstance(first, ast.Name) and first.id == loop_var
        return False
