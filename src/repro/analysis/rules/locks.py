"""RX04 — lock/race.

PlanCache counters and the serve shard state are
mutated from multiple threads/tasks; an attribute that is guarded by a
lock in one method and mutated bare in another is a race the tests will
never reliably reproduce. Per class, this rule collects every
``self.<attr>`` mutation (assignment, augmented assignment, mutating
method call) and whether it happened inside a ``with self._lock`` /
``async with self._locks[...]`` scope. If an attribute has at least one
locked *and* one unlocked mutation site, the unlocked sites are flagged.
``__init__`` is exempt — construction happens-before sharing.

Scope: ``runtime/``, ``serve/server.py``, and ``telemetry/metrics.py``
(the registry shared across threads).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.rules.base import FileContext, Finding, Rule

_SCOPE_PREFIXES = ("runtime/",)
_SCOPE_FILES = ("serve/server.py", "telemetry/metrics.py")

_MUTATING_METHODS = {
    "append",
    "add",
    "clear",
    "pop",
    "popitem",
    "popleft",
    "appendleft",
    "update",
    "discard",
    "remove",
    "extend",
    "insert",
    "setdefault",
    "move_to_end",
    "difference_update",
    "intersection_update",
    "symmetric_difference_update",
}


def _is_lock_context(expr: ast.expr) -> bool:
    """Does a with-item context expression reference a lock attribute?"""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
    return False


@dataclass
class _Site:
    node: ast.AST
    attr: str
    locked: bool
    kind: str  # "assignment" or "call"


@dataclass
class _ClassState:
    sites: list[_Site] = field(default_factory=list)


class LockRaceRule(Rule):
    rule_id = "RX04"
    title = "lock/race"

    def applies(self, relpath: str) -> bool:
        return relpath in _SCOPE_FILES or relpath.startswith(_SCOPE_PREFIXES)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node))
        return findings

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> list[Finding]:
        state = _ClassState()
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "__init__":
                    continue  # construction happens-before sharing
                collector = _SiteCollector(state)
                for inner in stmt.body:
                    collector.visit(inner)
        guarded = {s.attr for s in state.sites if s.locked}
        bare = {s.attr for s in state.sites if not s.locked}
        racy = guarded & bare
        findings = []
        for site in state.sites:
            if site.locked or site.attr not in racy:
                continue
            findings.append(
                self.finding(
                    ctx,
                    site.node,
                    f"self.{site.attr} is mutated under a lock elsewhere in this "
                    f"class but this {site.kind} is unguarded — wrap it in the "
                    "same lock scope",
                )
            )
        return findings


class _SiteCollector(ast.NodeVisitor):
    """Collects self.<attr> mutation sites with their lock depth."""

    def __init__(self, state: _ClassState) -> None:
        self.state = state
        self._lock_depth = 0

    # Nested defs get their own `self`-binding semantics only if they
    # take self; in this codebase closures over self inside methods run
    # on the same object, so we keep walking into them.

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        locked = any(_is_lock_context(item.context_expr) for item in node.items)
        if locked:
            self._lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self._lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _record_targets(self, node: ast.AST, targets: list[ast.expr], kind: str) -> None:
        for target in targets:
            inner = target
            while isinstance(inner, (ast.Subscript, ast.Starred)):
                inner = inner.value
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                self.state.sites.append(
                    _Site(node=node, attr=inner.attr, locked=self._lock_depth > 0, kind=kind)
                )
            elif isinstance(target, ast.Tuple):
                self._record_targets(node, list(target.elts), kind)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_targets(node, node.targets, "assignment")
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_targets(node, [node.target], "assignment")
        self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            self.state.sites.append(
                _Site(
                    node=node,
                    attr=func.value.attr,
                    locked=self._lock_depth > 0,
                    kind="call",
                )
            )
        self.generic_visit(node)
