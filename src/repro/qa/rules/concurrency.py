"""Concurrency-safety rules (QA6xx): spawn workers, shm lifetimes, pools.

Process-parallel code here runs *spawn* workers (the ``repro serve``
fleet) and shares allocation tables over ``/dev/shm``.  That code keeps
being bitten by the same small family of bugs, which these rules catch
statically:

* **QA601** — a worker-reachable function writes module-level state.
  Under the spawn start method every worker rebuilds module globals on
  import, so such writes silently diverge per process: the parent never
  sees them, and parallel and serial runs drift apart.  Uses the
  :mod:`repro.qa.flow` reference graph to follow the chain from
  ``pool.submit``/``initializer=`` seeds across modules.
* **QA602** — an shm resource (``share_allocation``/``attach_allocation``
  /``_open_segment``/``SharedMemory(create=True)``/arena ``try_create``)
  is acquired without *guaranteed* teardown: no context manager, no
  ``close``/``unlink`` in a ``finally``/``except``, and the handle never
  escapes the function (returned, stored on ``self`` or in a
  module-level ledger).  Exactly the leak class
  ``scripts/check_shm_leaks.py`` exists to catch at runtime — this rule
  catches it before the segment ever leaks.
* **QA603** — a lambda or nested function is submitted to a *process*
  pool (``ProcessPoolExecutor``/``multiprocessing.Pool``/``Process``).
  Spawn pickles the callable by qualified name; closures and lambdas
  fail at runtime, often only on the platform whose default start
  method differs from the developer's.
* **QA604** — fork-only assumptions: ``os.fork()`` or an explicit
  ``"fork"`` start method.  The worker fleet is spawn-safe by
  construction (every worker re-imports the package); fork would resurrect exactly
  the implicit-inheritance globals QA601 bans.

All four accept the reason-mandatory waiver pragma, e.g.
``# qa601: allow — per-process segment ledger, results are returned``.
"""

from __future__ import annotations

import ast
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
    "ForkAssumptionRule",
    "ShmTeardownRule",
    "UnpicklableSubmissionRule",
    "WorkerGlobalWriteRule",
]

#: Method calls that mutate a container in place.
_MUTATOR_METHODS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert",
        "pop", "popitem", "remove", "setdefault", "update",
    }
)

#: Callables that hand back an shm resource needing deterministic
#: teardown.  Matched on the last component of the dotted callee.
_SHM_ACQUIRERS = frozenset(
    {"share_allocation", "attach_allocation", "_open_segment",
     "try_create"}
)

#: Methods whose call on a handle counts as teardown.
_TEARDOWN_METHODS = frozenset(
    {"close", "unlink", "shutdown", "terminate", "release"}
)

#: Free functions whose call (with the handle as an argument) counts as
#: teardown or an ownership transfer to a ledger.
_TEARDOWN_FUNCTIONS = frozenset({"unlink_segment", "detach_all"})

#: Constructors whose ``target=``/``initializer=`` (and submitted
#: callables) must pickle under spawn.
_PROCESS_POOL_TYPES = frozenset(
    {"ProcessPoolExecutor", "Pool", "Process"}
)

_SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply_async", "starmap", "imap", "imap_unordered"}
)


def _last(chain: Optional[str]) -> Optional[str]:
    return chain.split(".")[-1] if chain else None


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _walk_scope(root: ast.AST) -> Iterable[ast.AST]:
    """Descendants of ``root`` that belong to its own scope.

    Like :func:`ast.walk` but does not descend into nested function
    definitions or lambdas — those are separate scopes and get their own
    pass, so a call inside a nested def is never scanned twice.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class WorkerGlobalWriteRule(LintRule):
    """QA601: worker-reachable code writes module-level state."""

    rule_id = "QA601"
    title = "module global written by worker-reachable code"
    severity = Severity.ERROR
    scope = "project"
    uses_flow = True

    def check_project(self, project: Project) -> Iterable[Finding]:
        from repro.qa.flow import get_flow

        flow = get_flow(project)
        for fq, info in flow.worker_functions():
            mf = flow.modules.get(info.module.path)
            if mf is None:
                continue
            module = info.module
            globals_ = mf.globals
            declared: Set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Global):
                    declared.update(node.names)
            locals_: Set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    if node.id not in declared:
                        locals_.add(node.id)

            def is_global(name: str) -> bool:
                if name in declared:
                    return True
                return name in globals_ and name not in locals_

            seed = flow.worker_seed_of(fq) or fq
            seen_lines: Set[Tuple[str, int]] = set()

            def emit(
                name: str, lineno: int, how: str
            ) -> Iterable[Finding]:
                if (name, lineno) in seen_lines:
                    return
                seen_lines.add((name, lineno))
                suppressed, replacement = self.pragma_gate(module, lineno)
                if replacement is not None:
                    yield replacement
                    return
                if suppressed:
                    return
                var = globals_.get(name)
                kind = (
                    "mutable module global"
                    if var is not None and var.mutable
                    else "module global"
                )
                yield self.finding(
                    module.path,
                    lineno,
                    f"{kind} {name!r} is {how} by {info.display!r}, "
                    f"which is worker-reachable (from pool entry point "
                    f"{seed!r}); spawn workers rebuild module state, so "
                    f"this write silently diverges per process — return "
                    f"the result instead of mutating shared state",
                )

            for node in ast.walk(info.node):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name) and (
                            target.id in declared
                        ):
                            yield from emit(
                                target.id, node.lineno, "rebound"
                            )
                        elif isinstance(
                            target, (ast.Subscript, ast.Attribute)
                        ):
                            base = target.value
                            while isinstance(
                                base, (ast.Subscript, ast.Attribute)
                            ):
                                base = base.value
                            if isinstance(base, ast.Name) and is_global(
                                base.id
                            ):
                                yield from emit(
                                    base.id, node.lineno, "mutated"
                                )
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        base = target
                        while isinstance(
                            base, (ast.Subscript, ast.Attribute)
                        ):
                            base = base.value
                        if isinstance(base, ast.Name) and is_global(
                            base.id
                        ):
                            yield from emit(base.id, node.lineno, "mutated")
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr not in _MUTATOR_METHODS:
                        continue
                    base = node.func.value
                    if isinstance(base, ast.Name) and is_global(base.id):
                        yield from emit(
                            base.id,
                            node.lineno,
                            f"mutated (.{node.func.attr}())",
                        )


def _is_shm_acquirer(node: ast.Call) -> bool:
    last = _last(dotted_name(node.func))
    if last is None:
        return False
    if last == "SharedMemory":
        for keyword in node.keywords:
            if keyword.arg == "create" and isinstance(
                keyword.value, ast.Constant
            ):
                return bool(keyword.value.value)
        return False
    return last in _SHM_ACQUIRERS


def _names_in(expr: ast.AST) -> Set[str]:
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name)
    }


@register_rule
class ShmTeardownRule(LintRule):
    """QA602: shm acquisition without guaranteed teardown."""

    rule_id = "QA602"
    title = "shared-memory resource without guaranteed teardown"
    severity = Severity.ERROR

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        # Each function is its own scope; module top-level statements
        # form one more (scripts acquire segments outside any def).
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _check_scope(
        self, module: ModuleSource, func: ast.AST
    ) -> Iterable[Finding]:
        parents = _parent_map(func)
        # Names torn down inside a finally/except, and names that escape
        # the function (ownership transferred), collected up front.
        torn_down = self._teardown_names(func)
        escaping = self._escaping_names(func)
        module_globals = self._module_global_names(module)

        for node in _walk_scope(func):
            if not isinstance(node, ast.Call) or not _is_shm_acquirer(node):
                continue
            if self._is_protected(
                node, parents, torn_down, escaping, module_globals
            ):
                continue
            suppressed, replacement = self.pragma_gate(module, node.lineno)
            if replacement is not None:
                yield replacement
                continue
            if suppressed:
                continue
            callee = _last(dotted_name(node.func))
            yield self.finding(
                module.path,
                node.lineno,
                f"shm resource from {callee}() has no guaranteed "
                f"teardown: wrap the use in try/finally (or a context "
                f"manager) calling close()/unlink(), or transfer "
                f"ownership explicitly (return it / record it on a "
                f"module-level ledger)",
            )

    @staticmethod
    def _module_global_names(module: ModuleSource) -> Set[str]:
        names: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
        return names

    @staticmethod
    def _teardown_names(func: ast.AST) -> Set[str]:
        """Names ``v`` with ``v.close()``-style calls in finally/except."""
        names: Set[str] = set()
        for node in ast.walk(func):
            cleanup_bodies: List[List[ast.stmt]] = []
            if isinstance(node, ast.Try):
                if node.finalbody:
                    cleanup_bodies.append(node.finalbody)
                for handler in node.handlers:
                    cleanup_bodies.append(handler.body)
            for body in cleanup_bodies:
                for stmt in body:
                    for call in ast.walk(stmt):
                        if not isinstance(call, ast.Call):
                            continue
                        if isinstance(call.func, ast.Attribute):
                            if call.func.attr in _TEARDOWN_METHODS:
                                base = call.func.value
                                if isinstance(base, ast.Name):
                                    names.add(base.id)
                        last = _last(dotted_name(call.func))
                        if last in _TEARDOWN_FUNCTIONS:
                            for arg in call.args:
                                names.update(_names_in(arg))
        return names

    def _escaping_names(self, func: ast.AST) -> Set[str]:
        """Names whose value leaves the function's ownership.

        Only *top-level* names count: ``return handle`` transfers the
        handle, ``return handle.name`` returns a string and still leaks
        the mapping.
        """
        escaping: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None:
                    escaping.update(self._top_level_names(value))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        # Stored into a container/attribute that outlives
                        # the call frame (self.x, LEDGER[k], obj.attr).
                        escaping.update(
                            self._top_level_names(node.value)
                        )
        return escaping

    @classmethod
    def _top_level_names(cls, expr: ast.expr) -> Set[str]:
        """Names handed over whole by ``expr`` (not mere subexpressions)."""
        if isinstance(expr, ast.Name):
            return {expr.id}
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            names: Set[str] = set()
            for element in expr.elts:
                names.update(cls._top_level_names(element))
            return names
        if isinstance(expr, ast.Dict):
            names = set()
            for value in expr.values:
                if value is not None:
                    names.update(cls._top_level_names(value))
            return names
        if isinstance(expr, ast.IfExp):
            return cls._top_level_names(expr.body) | cls._top_level_names(
                expr.orelse
            )
        return set()

    def _is_protected(
        self,
        call: ast.Call,
        parents: Dict[ast.AST, ast.AST],
        torn_down: Set[str],
        escaping: Set[str],
        module_globals: Set[str],
    ) -> bool:
        # 1. Managed directly: the acquirer is a `with` context expression.
        node: ast.AST = call
        assigned: Optional[str] = None
        direct_escape = False
        while node in parents:
            parent = parents[node]
            if isinstance(parent, ast.withitem):
                if parent.context_expr is node:
                    return True  # the acquirer IS the context manager
            if isinstance(parent, ast.Try) and node in parent.body:
                if parent.finalbody:
                    return True  # acquired inside try-with-finally
            if isinstance(parent, ast.Assign) and parent.value is node:
                for target in parent.targets:
                    if isinstance(target, ast.Name):
                        assigned = target.id
                    elif isinstance(
                        target, (ast.Subscript, ast.Attribute)
                    ):
                        direct_escape = True
            if isinstance(
                parent, (ast.Return, ast.Yield, ast.YieldFrom)
            ):
                direct_escape = True
            if isinstance(parent, ast.Call) and parent is not call:
                # The handle feeds another call whose result is consumed
                # (e.g. ``return attach(share(...))``) — keep climbing;
                # protection is decided by what happens above.
                pass
            node = parent
        if direct_escape:
            return True
        if assigned is not None:
            if assigned in torn_down or assigned in escaping:
                return True
            if assigned in module_globals:
                return True  # rebinding a module-level ledger name
        return False


@register_rule
class UnpicklableSubmissionRule(LintRule):
    """QA603: lambdas/closures submitted to a process pool."""

    rule_id = "QA603"
    title = "unpicklable callable submitted to a process pool"
    severity = Severity.ERROR

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _check_scope(
        self, module: ModuleSource, scope: ast.AST
    ) -> Iterable[Finding]:
        own = list(_walk_scope(scope))
        pool_names = self._pool_names(own)
        lambda_names = {
            target.id
            for node in own
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Lambda)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        # A def nested anywhere inside a *function* scope pickles by a
        # qualified name spawn cannot import; module-level defs are fine.
        if isinstance(scope, ast.Module):
            nested_defs: Set[str] = set()
        else:
            nested_defs = {
                node.name
                for node in ast.walk(scope)
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and node is not scope
            }
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            submitted: List[ast.expr] = []
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pool_names
                and node.args
            ):
                submitted.append(node.args[0])
            if _last(dotted_name(node.func)) in _PROCESS_POOL_TYPES:
                for keyword in node.keywords:
                    if keyword.arg in ("target", "initializer"):
                        submitted.append(keyword.value)
            for expr in submitted:
                yield from self._check_callable(
                    module, expr, nested_defs, lambda_names
                )

    @staticmethod
    def _pool_names(own: Sequence[ast.AST]) -> Set[str]:
        """Scope-local names bound to process-pool objects."""
        names: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if _last(
                    dotted_name(node.value.func)
                ) in _PROCESS_POOL_TYPES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and _last(dotted_name(expr.func))
                        in _PROCESS_POOL_TYPES
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        names.add(item.optional_vars.id)
        return names

    def _check_callable(
        self,
        module: ModuleSource,
        expr: ast.expr,
        nested_defs: Set[str],
        lambda_names: Set[str],
    ) -> Iterable[Finding]:
        problem: Optional[str] = None
        if isinstance(expr, ast.Lambda):
            problem = "a lambda"
        elif isinstance(expr, ast.Name):
            if expr.id in nested_defs:
                problem = f"nested function {expr.id!r}"
            elif expr.id in lambda_names:
                problem = f"lambda-valued name {expr.id!r}"
        elif isinstance(expr, ast.Call) and _last(
            dotted_name(expr.func)
        ) == "partial":
            if expr.args:
                yield from self._check_callable(
                    module, expr.args[0], nested_defs, lambda_names
                )
            return
        if problem is None:
            return
        suppressed, replacement = self.pragma_gate(module, expr.lineno)
        if replacement is not None:
            yield replacement
            return
        if suppressed:
            return
        yield self.finding(
            module.path,
            expr.lineno,
            f"{problem} is submitted to a process pool; spawn pickles "
            f"callables by qualified name, so closures and lambdas fail "
            f"at runtime — move the callable to module level",
        )


@register_rule
class ForkAssumptionRule(LintRule):
    """QA604: fork-only multiprocessing in a spawn-safe codebase."""

    rule_id = "QA604"
    title = "fork-only multiprocessing assumption"
    severity = Severity.ERROR

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._violation(node)
            if message is None:
                continue
            suppressed, replacement = self.pragma_gate(
                module, node.lineno
            )
            if replacement is not None:
                yield replacement
                continue
            if suppressed:
                continue
            yield self.finding(module.path, node.lineno, message)

    @staticmethod
    def _violation(node: ast.Call) -> Optional[str]:
        chain = dotted_name(node.func)
        last = _last(chain)
        if chain is not None and (
            chain == "os.fork" or chain.endswith(".os.fork")
        ):
            return (
                "os.fork() assumes forked children inherit module "
                "state; the runner is spawn-safe by construction — use "
                "a spawn-context pool and pass state explicitly"
            )
        if last in ("get_context", "set_start_method") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and first.value == "fork":
                return (
                    f"{last}('fork') pins the fork start method; "
                    f"workers must stay spawn-safe (fork silently "
                    f"inherits globals that diverge from the parent) — "
                    f"use 'spawn'"
                )
        return None
