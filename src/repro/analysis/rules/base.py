"""Shared machinery for analysis rules: findings, contexts, the Rule ABC.

A rule sees one :class:`FileContext` at a time (path, source, parsed
AST) and yields :class:`Finding` records. Rules that need whole-run
state (RX05 cross-checks every file's metric literals against the
documented catalogue) collect during :meth:`Rule.check` and emit the
aggregate from :meth:`Rule.finalize`.

Path scoping works on *package-relative* paths: for a file inside a
``repro`` package directory the context's ``relpath`` is the part after
``repro/`` (``confidence/layered.py``), so rules scope themselves the way
the invariants are stated — by subsystem, not by checkout layout. Tests
inject synthetic locations via ``lint_source(..., virtual_path=...)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: Rule id reserved for pragma hygiene and parse failures.
META_RULE = "RX00"


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: str
    relpath: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


class Rule:
    """Base class for analysis rules.

    Subclasses set ``rule_id`` / ``title`` and implement :meth:`check`.
    A fresh rule instance is built per lint run, so instances may keep
    cross-file state for :meth:`finalize`.
    """

    rule_id: str = META_RULE
    title: str = ""

    def applies(self, relpath: str) -> bool:
        """Whether this rule scopes to ``relpath`` (package-relative)."""
        return True

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finalize(self) -> list[Finding]:
        """Whole-run findings, emitted after every file was checked."""
        return []

    # -- helpers shared by the concrete rules --------------------------

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )


def package_relative(path: str) -> str:
    """The path relative to the innermost ``repro`` package directory.

    ``src/repro/confidence/layered.py`` → ``confidence/layered.py``; paths
    outside any ``repro`` directory are returned as given (normalized to
    posix separators), so subsystem-scoped rules simply do not apply to
    them.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            tail = parts[i + 1 :]
            if tail:
                return "/".join(tail)
    return "/".join(parts)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def call_name(node: ast.Call) -> str | None:
    """The dotted name a call targets, when statically visible."""
    return dotted_name(node.func)
