"""Direct tests for the runtime's execution counters (repro.runtime.stats)."""

from __future__ import annotations

import pytest

from repro.runtime.stats import PlanStats, instrument


# ---------------------------------------------------------------------------
# PlanStats
# ---------------------------------------------------------------------------


def test_plan_stats_defaults_are_zero() -> None:
    stats = PlanStats()
    assert stats.as_dict() == {
        "evaluations": 0,
        "answers": 0,
        "seconds": 0.0,
        "dp_cells": 0,
        "appends": 0,
    }


def test_plan_stats_record_run_accumulates() -> None:
    stats = PlanStats()
    stats.record_run(0.5, 3)
    stats.record_run(0.25, 0)
    assert stats.evaluations == 2
    assert stats.answers == 3
    assert stats.seconds == pytest.approx(0.75)


def test_plan_stats_record_append_accumulates_cells() -> None:
    stats = PlanStats()
    stats.record_append(10)
    stats.record_append(7)
    assert stats.appends == 2
    assert stats.dp_cells == 17


# ---------------------------------------------------------------------------
# instrument()
# ---------------------------------------------------------------------------


def test_instrument_records_on_exhaustion() -> None:
    stats = PlanStats()
    items = list(instrument(iter([1, 2, 3]), stats))
    assert items == [1, 2, 3]
    assert stats.evaluations == 1
    assert stats.answers == 3
    assert stats.seconds >= 0.0


def test_instrument_records_on_early_close() -> None:
    stats = PlanStats()
    wrapped = instrument(iter(range(100)), stats)
    for item in wrapped:
        if item == 4:
            break
    wrapped.close()
    assert stats.evaluations == 1
    assert stats.answers == 5  # consumed 0..4 before the break


def test_instrument_excludes_consumer_time() -> None:
    """Only time inside next() is charged, so a slow consumer of a fast
    iterator must leave the recorded seconds tiny."""
    import time

    stats = PlanStats()
    for _item in instrument(iter(range(3)), stats):
        time.sleep(0.02)
    assert stats.seconds < 0.02


def test_instrument_records_even_when_consumer_raises() -> None:
    stats = PlanStats()
    wrapped = instrument(iter([1, 2, 3]), stats)
    with pytest.raises(RuntimeError):
        for item in wrapped:
            if item == 2:
                raise RuntimeError("consumer blew up")
    wrapped.close()
    assert stats.evaluations == 1
    assert stats.answers == 2
