"""Execution counters for the runtime (surfaced through the CLI).

Every :class:`~repro.runtime.plan.QueryPlan` carries a :class:`PlanStats`
record; the executor and the streaming evaluator write into it, and
``repro plan`` surfaces it. The counters are deliberately cheap — a few
integers and floats per event — so they stay on in production paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class PlanStats:
    """Mutable per-plan execution counters.

    Attributes
    ----------
    evaluations:
        Completed (or abandoned-after-partial-consumption) executor runs.
    answers:
        Total answers yielded across those runs.
    seconds:
        Wall-clock seconds spent inside the executor's generators (the
        consumer's time between answers is excluded).
    dp_cells:
        Dynamic-programming cells touched by streaming evaluators driven
        by this plan (a machine-independent work measure).
    appends:
        Incremental timesteps absorbed by streaming evaluators.
    """

    evaluations: int = 0
    answers: int = 0
    seconds: float = 0.0
    dp_cells: int = 0
    appends: int = 0

    def record_run(self, seconds: float, answers: int) -> None:
        """Account one executor run."""
        self.evaluations += 1
        self.answers += answers
        self.seconds += seconds

    def record_append(self, cells: int) -> None:
        """Account one incremental DP layer of ``cells`` cells."""
        self.appends += 1
        self.dp_cells += cells

    def as_dict(self) -> dict:
        """A plain-dict snapshot (for the CLI and benchmarks)."""
        return {
            "evaluations": self.evaluations,
            "answers": self.answers,
            "seconds": self.seconds,
            "dp_cells": self.dp_cells,
            "appends": self.appends,
        }


def instrument(iterator, stats: PlanStats):
    """Wrap an answer iterator so its production time lands in ``stats``.

    Only the time spent pulling the next answer is measured, so a slow
    consumer does not inflate the plan's numbers. Recording happens when
    the iterator is exhausted *or* closed early (``limit``, ``break``).
    """
    seconds: float = 0.0  # wall-clock accumulator, not a probability
    answers = 0
    try:
        while True:
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                seconds += time.perf_counter() - start
                break
            seconds += time.perf_counter() - start
            answers += 1
            yield item
    finally:
        stats.record_run(seconds, answers)
