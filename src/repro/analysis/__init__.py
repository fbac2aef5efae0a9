"""Project-invariant static analysis (the ``repro lint`` gate).

The paper's correctness story rests on invariants no unit test can
guarantee exhaustively: the PTIME Table-2 cells compute in exact
``Fraction`` arithmetic, randomness is certified (and seeded) only in
the FPRAS, the service's event loop never blocks on I/O, shared mutable
state stays behind its lock, and every telemetry metric name is
documented. The oracle of PR 3 only catches what the fuzzer happens to
sample; this package enforces the invariants *statically*, so every
future perf or refactor PR lands against a machine-checked contract
instead of reviewer memory.

Five rules (see ``docs/ANALYSIS.md`` for the full contract):

========  ==========================================================
RX01      exactness-taint: no floats/`math.*` in the exact-Fraction
          modules (``confidence/``, ``core/``, ``runtime/``,
          ``store/``, ``approx/product.py``)
RX02      async-blocking: no blocking I/O reachable from ``async def``
          bodies in ``serve/`` without an executor hop
RX03      seed-discipline: every RNG is constructed from an explicit
          seed that flows from an argument or derived value
RX04      lock/race: an attribute guarded by a lock somewhere is
          guarded everywhere
RX05      telemetry-registry: metric-name literals and the
          ``docs/OBSERVABILITY.md`` catalogue agree, both directions
========  ==========================================================

Violations are suppressed per line with ``# repro: allow[RULE] reason``
— the reason is mandatory, and malformed pragmas (unknown rule id,
missing reason) are themselves violations (rule RX00).

Programmatic entry points::

    from repro.analysis import lint_paths, lint_source

    report = lint_paths(["src"])          # what `repro lint src` runs
    report.violations                     # list[Finding], sorted
    report.as_dict()                      # the repro-lint/1 JSON form
"""

from __future__ import annotations

from repro.analysis.engine import LintReport, lint_paths, lint_source
from repro.analysis.pragmas import Pragma, parse_pragmas
from repro.analysis.registry_doc import MetricRegistry
from repro.analysis.report import render_json, render_pretty
from repro.analysis.rules import ALL_RULES, Finding, rule_ids

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "MetricRegistry",
    "Pragma",
    "lint_paths",
    "lint_source",
    "parse_pragmas",
    "render_json",
    "render_pretty",
    "rule_ids",
]
