"""The bench-regression gate: miniature scenarios through regress.py.

Two real scenarios run in-process at quick scale — the warm plan-cache
read (``runtime``) and the vectorized same-plan batch (``parallel``) —
and their fresh results are gated against themselves (quiet) and against
an injected 10x slowdown (gate fires). The pure pieces (``MetricSpec``,
``compare``) are covered directly.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from benchmarks.regress import SCENARIOS, Failure, MetricSpec, compare, main, run_gate
from benchmarks.shape import RESULT_SCHEMA, result_record, write_result


# ---------------------------------------------------------------------------
# MetricSpec / compare: the pure gate logic
# ---------------------------------------------------------------------------


def test_higher_metric_allows_tolerance_band() -> None:
    spec = MetricSpec("speedup", "higher", tolerance=4.0)
    assert spec.allowed(40.0, quick=False) == pytest.approx(10.0)
    assert spec.check(40.0, 11.0, quick=False) is None
    failure = spec.check(40.0, 9.0, quick=False)
    assert isinstance(failure, Failure)
    assert failure.side == "below"
    assert "speedup" in failure.describe()


def test_lower_metric_respects_absolute_floor() -> None:
    spec = MetricSpec("overhead", "lower", tolerance=4.0, floor=0.02)
    # tiny baseline: the floor dominates, 1% is still fine
    assert spec.check(0.0005, 0.01, quick=False) is None
    # but 3% is above the floor no matter the baseline
    failure = spec.check(0.0005, 0.03, quick=False)
    assert failure is not None and failure.side == "above"


def test_quick_tolerance_loosens_the_bound() -> None:
    spec = MetricSpec("speedup", "higher", tolerance=4.0, quick_tolerance=8.0)
    assert spec.allowed(40.0, quick=False) == pytest.approx(10.0)
    assert spec.allowed(40.0, quick=True) == pytest.approx(5.0)


def test_compare_skips_metrics_missing_on_either_side() -> None:
    specs = (
        MetricSpec("present", "higher", 2.0),
        MetricSpec("only_in_baseline", "higher", 2.0),
        MetricSpec("only_in_fresh", "higher", 2.0),
    )
    baseline = result_record("x", {}, {"present": 10.0, "only_in_baseline": 5.0})
    fresh = result_record("x", {}, {"present": 9.0, "only_in_fresh": 5.0})
    assert compare(baseline, fresh, specs) == []


# ---------------------------------------------------------------------------
# Miniature scenario 1: warm plan-cache read
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def runtime_fresh() -> dict:
    return SCENARIOS["runtime"].quick_run()


def test_runtime_quick_scenario_is_quiet_on_baseline(runtime_fresh) -> None:
    scenario = SCENARIOS["runtime"]
    assert runtime_fresh["schema"] == RESULT_SCHEMA
    assert runtime_fresh["metrics"]["warm_speedup"] > 1.0
    # gated against itself, the fresh run must never fire
    assert compare(runtime_fresh, runtime_fresh, scenario.specs, quick=True) == []


def test_runtime_gate_fires_on_injected_10x_slowdown(runtime_fresh) -> None:
    scenario = SCENARIOS["runtime"]
    slowed = copy.deepcopy(runtime_fresh)
    for name in ("warm_speedup", "append_speedup"):
        slowed["metrics"][name] /= 10.0
    failures = compare(runtime_fresh, slowed, scenario.specs, quick=True)
    assert {failure.metric for failure in failures} == {
        "warm_speedup",
        "append_speedup",
    }
    assert all(failure.side == "below" for failure in failures)


# ---------------------------------------------------------------------------
# Miniature scenario 2: vectorized batch
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def parallel_fresh() -> dict:
    return SCENARIOS["parallel"].quick_run()


def test_parallel_quick_scenario_is_quiet_on_baseline(parallel_fresh) -> None:
    scenario = SCENARIOS["parallel"]
    assert parallel_fresh["metrics"]["vectorized_speedup"] > 1.0
    assert compare(parallel_fresh, parallel_fresh, scenario.specs, quick=True) == []


def test_parallel_gate_fires_on_injected_10x_slowdown(parallel_fresh) -> None:
    scenario = SCENARIOS["parallel"]
    slowed = copy.deepcopy(parallel_fresh)
    slowed["metrics"]["vectorized_speedup"] /= 10.0
    failures = compare(parallel_fresh, slowed, scenario.specs, quick=True)
    assert [failure.metric for failure in failures] == ["vectorized_speedup"]


# ---------------------------------------------------------------------------
# The harness itself: run_gate and the CLI entry
# ---------------------------------------------------------------------------


def test_run_gate_against_fresh_baselines(tmp_path, runtime_fresh, parallel_fresh, capsys) -> None:
    """End-to-end through run_gate: baselines written from the very runs
    being gated, so both scenarios must pass."""
    write_result(runtime_fresh, tmp_path / "BENCH_runtime.json")
    write_result(parallel_fresh, tmp_path / "BENCH_parallel.json")
    records, ok = run_gate(["parallel", "runtime"], tmp_path, quick=True)
    out = capsys.readouterr().out
    assert ok
    assert [record["status"] for record in records] == ["ok", "ok"]
    assert "[runtime] ok" in out and "[parallel] ok" in out


@pytest.fixture
def pinned_runtime_scenario(runtime_fresh, monkeypatch):
    """Make run_gate's re-measurement deterministic: it returns the very
    result the fixture measured. Without this, a machine-load swing
    larger than 10x/quick_tolerance between the fixture run and the
    gate's re-run can silently absorb the injected regression."""
    monkeypatch.setitem(
        SCENARIOS,
        "runtime",
        dataclasses.replace(
            SCENARIOS["runtime"], quick_run=lambda: copy.deepcopy(runtime_fresh)
        ),
    )


def test_run_gate_detects_committed_regression(
    tmp_path, runtime_fresh, pinned_runtime_scenario, capsys
) -> None:
    """A baseline 10x faster than reality == a 10x regression: fires."""
    inflated = copy.deepcopy(runtime_fresh)
    for name in ("warm_speedup", "append_speedup"):
        inflated["metrics"][name] *= 10.0
    write_result(inflated, tmp_path / "BENCH_runtime.json")
    records, ok = run_gate(["runtime"], tmp_path, quick=True)
    assert not ok
    assert records[0]["status"] == "FAIL"
    assert "REGRESSION" in capsys.readouterr().out


def test_run_gate_skips_missing_baseline(tmp_path, capsys) -> None:
    records, ok = run_gate(["runtime"], tmp_path / "empty", quick=True)
    assert ok  # a missing baseline is a skip, not a failure
    assert records == [
        {"kind": "skip", "scenario": "runtime", "reason": "no baseline"}
    ]


def test_main_writes_ndjson_report_and_exits_nonzero_on_fail(
    tmp_path, runtime_fresh, pinned_runtime_scenario, capsys
) -> None:
    inflated = copy.deepcopy(runtime_fresh)
    inflated["metrics"]["warm_speedup"] *= 10.0
    write_result(inflated, tmp_path / "BENCH_runtime.json")
    report_path = tmp_path / "report.ndjson"
    code = main(
        [
            "--quick",
            "--only", "runtime",
            "--json", str(report_path),
            "--baseline-dir", str(tmp_path),
        ]
    )
    assert code == 1
    records = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert records[0]["scenario"] == "runtime"
    assert records[0]["status"] == "FAIL"
    assert records[0]["failures"]


def test_main_rejects_unknown_scenario(capsys) -> None:
    with pytest.raises(SystemExit):
        main(["--only", "nope"])
    assert "unknown scenario" in capsys.readouterr().err
