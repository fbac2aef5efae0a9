"""Benchmark regression gate: fresh runs vs the committed baselines.

``BENCH_runtime.json``, ``BENCH_parallel.json``, ``BENCH_serve.json``,
``BENCH_telemetry.json``, ``BENCH_store.json``, ``BENCH_approx.json``
and ``BENCH_sparse.json`` at the repo root are common-schema
(:data:`benchmarks.shape.RESULT_SCHEMA`) records of what the key
numbers looked like when they were committed. This module re-runs each
scenario and gates the fresh metrics against the baseline with
**per-metric tolerance floors**:

* ``higher`` metrics (speedups) fail when the fresh value drops below
  ``baseline / tolerance`` — the tolerance absorbs machine and noise
  variance, so only a real regression (the injected-10x-slowdown kind)
  trips it;
* ``lower`` metrics (overhead fractions) fail when the fresh value
  exceeds ``max(baseline * tolerance, floor)``, where ``floor`` is an
  absolute bound (the telemetry overhead gate is 2% no matter what the
  baseline says);
* absolute wall-clock seconds are never gated — they are recorded for
  humans, but committed numbers from one machine say nothing about
  another.

Usage (CI runs the quick form and uploads the ndjson report)::

    PYTHONPATH=src:. python benchmarks/regress.py [--quick]
        [--only NAME] [--json report.ndjson] [--baseline-dir DIR]

Exit status 1 when any gate fired. ``--quick`` runs scaled-down
scenarios with proportionally looser tolerances (quick runs measure
smaller instances whose speedups are legitimately lower).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass, field
from collections.abc import Callable

from benchmarks.shape import REPO_ROOT, load_result


@dataclass(frozen=True)
class MetricSpec:
    """The gate for one metric of one scenario.

    ``direction`` is ``"higher"`` (bigger is better: speedups) or
    ``"lower"`` (smaller is better: overhead fractions). ``tolerance``
    is the allowed multiplicative slack vs the baseline;
    ``quick_tolerance`` replaces it under ``--quick``. ``floor`` is an
    absolute limit for ``lower`` metrics that applies regardless of the
    baseline value.
    """

    name: str
    direction: str
    tolerance: float
    quick_tolerance: float | None = None
    floor: float | None = None

    def allowed(self, baseline_value: float, quick: bool) -> float:
        tolerance = (
            self.quick_tolerance
            if quick and self.quick_tolerance is not None
            else self.tolerance
        )
        if self.direction == "higher":
            return baseline_value / tolerance
        limit = baseline_value * tolerance
        if self.floor is not None:
            limit = max(limit, self.floor)
        return limit

    def check(self, baseline_value: float, fresh_value: float, quick: bool):
        bound = self.allowed(baseline_value, quick)
        if self.direction == "higher" and fresh_value < bound:
            return Failure(self.name, fresh_value, bound, "below", baseline_value)
        if self.direction == "lower" and fresh_value > bound:
            return Failure(self.name, fresh_value, bound, "above", baseline_value)
        return None


@dataclass(frozen=True)
class Failure:
    """One fired gate."""

    metric: str
    fresh: float
    bound: float
    side: str
    baseline: float

    def describe(self) -> str:
        return (
            f"{self.metric}: fresh {self.fresh:.6g} is {self.side} the "
            f"allowed {self.bound:.6g} (baseline {self.baseline:.6g})"
        )


@dataclass(frozen=True)
class Scenario:
    """One named benchmark scenario the gate knows how to re-run."""

    name: str
    baseline_file: str
    run: Callable[[], dict]
    quick_run: Callable[[], dict]
    specs: tuple[MetricSpec, ...] = field(default_factory=tuple)

    def fresh(self, quick: bool) -> dict:
        return (self.quick_run if quick else self.run)()


def compare(
    baseline: dict, fresh: dict, specs: tuple[MetricSpec, ...], quick: bool = False
) -> list[Failure]:
    """Gate ``fresh`` against ``baseline``; the pure core of the harness.

    Only metrics present in *both* results are compared (quick runs may
    legitimately omit the expensive ones); a spec'd metric missing from
    the baseline is skipped, never invented.
    """
    baseline_metrics = baseline.get("metrics", {})
    fresh_metrics = fresh.get("metrics", {})
    failures: list[Failure] = []
    for spec in specs:
        if spec.name not in baseline_metrics or spec.name not in fresh_metrics:
            continue
        failure = spec.check(
            float(baseline_metrics[spec.name]), float(fresh_metrics[spec.name]), quick
        )
        if failure is not None:
            failures.append(failure)
    return failures


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------


def _run_runtime() -> dict:
    from benchmarks.bench_runtime import common_result

    return common_result()


def _run_runtime_quick() -> dict:
    from benchmarks.bench_runtime import (
        QUICK_AGED_SIZES,
        QUICK_EXACT_READ_SIZES,
        QUICK_LIFT_LENGTH,
        common_result,
    )

    return common_result(
        n=120,
        aged_sizes=QUICK_AGED_SIZES,
        read_sizes=QUICK_EXACT_READ_SIZES,
        lift_length=QUICK_LIFT_LENGTH,
    )


def _run_parallel() -> dict:
    from benchmarks.bench_parallel import common_result

    return common_result()


def _run_parallel_quick() -> dict:
    from benchmarks.bench_parallel import fleet_corpus, measure_vectorized
    from benchmarks.shape import result_record

    results = measure_vectorized(fleet_corpus(24, 20), 20)
    return result_record(
        "parallel",
        {"streams": 24, "length": 20, "quick": True},
        results,
    )


def _run_serve() -> dict:
    from benchmarks.bench_serve import common_result

    return common_result()


def _run_serve_quick() -> dict:
    from benchmarks.bench_serve import common_result

    return common_result(appends=60)


def _run_store() -> dict:
    from benchmarks.bench_store import common_result

    return common_result()


def _run_store_quick() -> dict:
    from benchmarks.bench_store import common_result

    return common_result(appends=200)


def _run_telemetry() -> dict:
    from benchmarks.bench_telemetry import common_result

    return common_result()


def _run_telemetry_quick() -> dict:
    from benchmarks.bench_telemetry import common_result

    return common_result(n=120)


def _run_sparse() -> dict:
    from benchmarks.bench_sparse import common_result

    return common_result()


def _run_sparse_quick() -> dict:
    from benchmarks.bench_sparse import QUICK_LENGTH, common_result

    return common_result(length=QUICK_LENGTH)


def _run_approx() -> dict:
    from benchmarks.bench_approx import common_result

    return common_result()


def _run_approx_quick() -> dict:
    from benchmarks.bench_approx import QUICK_SIZES, common_result

    return common_result(sizes=QUICK_SIZES)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="runtime",
            baseline_file="BENCH_runtime.json",
            run=_run_runtime,
            quick_run=_run_runtime_quick,
            specs=(
                MetricSpec("warm_speedup", "higher", 4.0, quick_tolerance=8.0),
                MetricSpec("append_speedup", "higher", 4.0, quick_tolerance=8.0),
            ),
        ),
        Scenario(
            name="parallel",
            baseline_file="BENCH_parallel.json",
            run=_run_parallel,
            quick_run=_run_parallel_quick,
            specs=(
                MetricSpec("vectorized_speedup", "higher", 4.0, quick_tolerance=8.0),
            ),
        ),
        Scenario(
            name="serve",
            baseline_file="BENCH_serve.json",
            run=_run_serve,
            quick_run=_run_serve_quick,
            specs=(
                # appends_per_second and the absolute seconds are
                # informational only: wall-clock round-trips through a
                # socket do not transfer across machines. The gated
                # ratio is pure algorithm: full re-run / one DP layer.
                MetricSpec(
                    "incremental_speedup", "higher", 4.0, quick_tolerance=8.0
                ),
            ),
        ),
        Scenario(
            name="store",
            baseline_file="BENCH_store.json",
            run=_run_store,
            quick_run=_run_store_quick,
            specs=(
                # The journal overhead and absolute recovery seconds are
                # informational. The gated ratio is pure algorithm:
                # full-log replay / (snapshot + bounded suffix) — quick
                # runs journal a 4x shorter log, so the cold side (the
                # numerator) is legitimately ~4x cheaper.
                MetricSpec(
                    "recovery_speedup", "higher", 4.0, quick_tolerance=8.0
                ),
            ),
        ),
        Scenario(
            name="telemetry",
            baseline_file="BENCH_telemetry.json",
            run=_run_telemetry,
            quick_run=_run_telemetry_quick,
            specs=(
                # The absolute 2% floor is the acceptance gate; the
                # relative term catches a creeping 4x instrumentation
                # cost even while still under the floor on fast hardware.
                MetricSpec(
                    "disabled_overhead_fraction",
                    "lower",
                    4.0,
                    quick_tolerance=8.0,
                    floor=0.02,
                ),
            ),
        ),
        Scenario(
            name="sparse",
            baseline_file="BENCH_sparse.json",
            run=_run_sparse,
            quick_run=_run_sparse_quick,
            specs=(
                # Absolute DP seconds are informational. The gated
                # ratio is the shrink pass alone: the Theorem-4.6 DP on
                # the unshrunk plan / the same DP on the shrunk plan —
                # quick runs use a shorter stream whose trapped mass is
                # legitimately cheaper to drag along, hence the looser
                # tolerance.
                MetricSpec("sparse_speedup", "higher", 4.0, quick_tolerance=8.0),
            ),
        ),
        Scenario(
            name="approx",
            baseline_file="BENCH_approx.json",
            run=_run_approx,
            quick_run=_run_approx_quick,
            specs=(
                # crossover_n and the per-size clocks are informational
                # (absolute wall clocks do not transfer across machines).
                # The gated ratio is the exponential/polynomial
                # separation itself: brute force / FPRAS at the largest
                # swept size, which quick runs also sweep.
                MetricSpec("approx_speedup", "higher", 4.0, quick_tolerance=8.0),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_gate(
    names: list[str],
    baseline_dir: pathlib.Path,
    quick: bool,
) -> tuple[list[dict], bool]:
    """Run the named scenarios; returns (report records, ok)."""
    records: list[dict] = []
    ok = True
    for name in names:
        scenario = SCENARIOS[name]
        baseline_path = baseline_dir / scenario.baseline_file
        if not baseline_path.exists():
            print(f"[{name}] no baseline at {baseline_path}; skipping")
            records.append({"kind": "skip", "scenario": name, "reason": "no baseline"})
            continue
        baseline = load_result(baseline_path)
        fresh = scenario.fresh(quick)
        failures = compare(baseline, fresh, scenario.specs, quick)
        status = "FAIL" if failures else "ok"
        print(f"[{name}] {status}")
        for spec in scenario.specs:
            base_value = baseline["metrics"].get(spec.name)
            fresh_value = fresh["metrics"].get(spec.name)
            if base_value is None or fresh_value is None:
                continue
            print(
                f"    {spec.name}: baseline={base_value:.6g} "
                f"fresh={fresh_value:.6g} "
                f"allowed={spec.allowed(float(base_value), quick):.6g}"
            )
        for failure in failures:
            print(f"    REGRESSION {failure.describe()}")
            ok = False
        records.append(
            {
                "kind": "result",
                "scenario": name,
                "quick": quick,
                "status": status,
                "failures": [failure.describe() for failure in failures],
                "fresh": fresh,
                "baseline_git_rev": baseline.get("git_rev"),
            }
        )
    return records, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down scenarios, looser tolerances"
    )
    parser.add_argument(
        "--only", action="append", help="run just this scenario (repeatable)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the report as ndjson here"
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(REPO_ROOT),
        help="directory holding the BENCH_*.json baselines (default: repo root)",
    )
    args = parser.parse_args(argv)

    names = args.only if args.only else sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")

    records, ok = run_gate(names, pathlib.Path(args.baseline_dir), args.quick)
    if args.json:
        lines = [json.dumps(record) for record in records]
        pathlib.Path(args.json).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.json}")
    print("bench regression gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
