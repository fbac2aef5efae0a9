"""RX01 — exactness-taint.

The PTIME cells of the paper's Table 2 are only correct because every
probability flows through exact ``Fraction`` arithmetic; one stray
float silently turns the referee into an estimate. This rule bans float
literals, ``float(...)`` conversions, and ``math.*`` usage inside the
exact zone: every file in ``confidence/``, ``core/``, ``runtime/``,
``store/``, and ``approx/product.py``. The FPRAS sampler
(``approx/fpras.py``) is the one blessed float zone and sits outside
the scope.

Built-in exemptions (patterns that are float-by-contract, not taint):

* float expressions passed to telemetry recording calls — wall-clock
  metrics are observational, they never touch a probability;
* statements that call ``time.perf_counter``/``monotonic``/… — timing
  instrumentation around the exact math;
* values whose annotation (variable, parameter, or enclosing function
  return type) says ``float`` — an explicitly declared float is a
  reviewed API decision, not silent creep.
"""

from __future__ import annotations

import ast

from repro.analysis.rules.base import FileContext, Finding, Rule, call_name, dotted_name

_SCOPE_PREFIXES = ("confidence/", "core/", "runtime/", "store/")
_SCOPE_FILES = ("approx/product.py",)

_TELEMETRY_RECEIVERS = {"telemetry", "recorder"}
_TELEMETRY_METHODS = {"count", "gauge", "observe", "span", "observe_span"}
_CLOCK_CALLS = {
    "time.perf_counter",
    "time.monotonic",
    "time.process_time",
    "time.time",
    "time.perf_counter_ns",
    "time.monotonic_ns",
}


def _is_telemetry_call(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _TELEMETRY_METHODS:
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id in _TELEMETRY_RECEIVERS
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in _TELEMETRY_RECEIVERS
    return False


def _mentions_clock(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call) and call_name(sub) in _CLOCK_CALLS for sub in ast.walk(node)
    )


def _annotation_is_float(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name) and sub.id == "float":
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and "float" in sub.value:
            return True
    return False


class ExactnessTaintRule(Rule):
    rule_id = "RX01"
    title = "exactness-taint"

    def applies(self, relpath: str) -> bool:
        if relpath in _SCOPE_FILES:
            return True
        return relpath.startswith(_SCOPE_PREFIXES)

    def check(self, ctx: FileContext) -> list[Finding]:
        collector = _Collector(self, ctx)
        collector.visit(ctx.tree)
        return collector.findings


class _Collector(ast.NodeVisitor):
    """Walks a module, skipping exempt subtrees, flagging float taint."""

    def __init__(self, rule: ExactnessTaintRule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: list[Finding] = []
        # Whether the innermost enclosing function is annotated -> float.
        self._returns_float: list[bool] = [False]

    # -- exemption plumbing -------------------------------------------

    def _skip_if_clocked(self, node: ast.stmt) -> None:
        if not _mentions_clock(node):
            self.generic_visit(node)

    visit_Expr = _skip_if_clocked
    visit_Assign = _skip_if_clocked
    visit_AugAssign = _skip_if_clocked

    def visit_Return(self, node: ast.Return) -> None:
        if self._returns_float[-1]:
            return
        self._skip_if_clocked(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _annotation_is_float(node.annotation):
            return
        if node.value is not None and not _mentions_clock(node):
            self.visit(node.value)

    def _visit_defaults(self, args: ast.arguments) -> None:
        positional = list(args.posonlyargs) + list(args.args)
        offset = len(positional) - len(args.defaults)
        pairs = [
            (arg, args.defaults[i - offset])
            for i, arg in enumerate(positional)
            if i >= offset
        ]
        pairs += [
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if not _annotation_is_float(arg.annotation):
                self.visit(default)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._visit_defaults(node.args)
        self._returns_float.append(_annotation_is_float(node.returns))
        for stmt in node.body:
            self.visit(stmt)
        self._returns_float.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_defaults(node.args)
        self._returns_float.append(False)
        self.visit(node.body)
        self._returns_float.pop()

    # -- the actual taint checks --------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self.findings.append(
                self.rule.finding(
                    self.ctx,
                    node,
                    f"float literal {node.value!r} in exact-Fraction zone "
                    "(use Fraction, or move to the blessed FPRAS float zone)",
                )
            )

    def visit_Call(self, node: ast.Call) -> None:
        if _is_telemetry_call(node):
            return  # telemetry values are observational, not probabilities
        if call_name(node) == "float":
            self.findings.append(
                self.rule.finding(
                    self.ctx,
                    node,
                    "float(...) conversion in exact-Fraction zone "
                    "(keep probabilities as Fraction end to end)",
                )
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if name is not None and name.startswith("math."):
            self.findings.append(
                self.rule.finding(
                    self.ctx,
                    node,
                    f"{name} in exact-Fraction zone "
                    "(math.* is floating point; exact cells must stay rational)",
                )
            )
            return
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "math":
            self.findings.append(
                self.rule.finding(self.ctx, node, "import from math in exact-Fraction zone")
            )
