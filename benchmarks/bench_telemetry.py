"""Experiment T1: the telemetry layer's zero-overhead claim.

The tracing layer (:mod:`repro.telemetry`) instruments the runtime's hot
paths, so its *disabled* cost has to be provably negligible on the very
path PR 1's headline number lives on: the ``bench_runtime`` warm read.
Raw A/B timing cannot resolve a sub-2% effect on a ~60µs operation, so
the overhead is measured the robust way:

1. **per-call cost** — a tight loop over the disabled :func:`~repro.telemetry.count`
   helper (a ``None`` check and a return) gives nanoseconds per call;
2. **calls per warm read** — one telemetry-enabled warm read, counted
   through the registry itself (every event the instrumentation records
   is one disabled-path call at most);
3. **overhead fraction** = calls × per-call cost / disabled warm-read
   time. Asserted under ``MAX_DISABLED_OVERHEAD`` (2%).

The bench also re-checks bit-identity: enabled and disabled warm reads
must return exactly equal answers. Run as a script to (re)record the
``BENCH_telemetry.json`` baseline::

    PYTHONPATH=src:. python benchmarks/bench_telemetry.py
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.lahar.database import MarkovStreamDatabase

from benchmarks.bench_runtime import N, monitoring_stream, occurrence_query
from benchmarks.shape import REPO_ROOT, result_record, print_series, timed_best, write_result

#: The acceptance gate: disabled telemetry may cost at most this
#: fraction of the warm-read path.
MAX_DISABLED_OVERHEAD = 0.02

#: Disabled-helper calls timed per repetition of the per-call loop.
CALL_LOOP = 100_000


def _disabled_call_seconds() -> float:
    """Best-of-5 per-call cost of the disabled count() helper."""
    assert not telemetry.enabled()
    count = telemetry.count

    def loop():
        for _ in range(CALL_LOOP):
            count("bench.disabled.probe")

    return timed_best(loop, repeats=5) / CALL_LOOP


def measure(n: int = N) -> dict:
    sequence = monitoring_stream(n)
    query = occurrence_query()
    db = MarkovStreamDatabase()
    db.register_stream("tag", sequence)

    def warm_read():
        return list(db.query("tag", query))

    warm_read()  # attach the evaluator; later reads are warm

    telemetry.disable()
    disabled_answers = warm_read()
    disabled_s = timed_best(warm_read, repeats=7)
    per_call_s = _disabled_call_seconds()

    with telemetry.session() as registry:
        enabled_answers = warm_read()
        ops = registry.event_count()
        enabled_s = timed_best(warm_read, repeats=7)

    assert [(a.output, a.confidence) for a in enabled_answers] == [
        (a.output, a.confidence) for a in disabled_answers
    ], "telemetry must not perturb results"

    # Each recorded event is at most one instrumentation call site, and
    # every call site is one disabled-path helper call — so `ops` bounds
    # the disabled calls a warm read makes from above.
    overhead_fraction = (ops * per_call_s) / disabled_s
    return {
        "n": n,
        "warm_read_disabled_s": disabled_s,
        "warm_read_enabled_s": enabled_s,
        "enabled_ratio": enabled_s / disabled_s,
        "telemetry_ops_per_warm_read": ops,
        "disabled_call_ns": per_call_s * 1e9,
        "disabled_overhead_fraction": overhead_fraction,
    }


def report(results: dict) -> None:
    print_series(
        f"Telemetry overhead (n={results['n']})",
        ["measure", "value"],
        [
            ("warm read, telemetry off (s)", results["warm_read_disabled_s"]),
            ("warm read, telemetry on (s)", results["warm_read_enabled_s"]),
            ("enabled ratio", results["enabled_ratio"]),
            ("telemetry events per warm read", results["telemetry_ops_per_warm_read"]),
            ("disabled helper call (ns)", results["disabled_call_ns"]),
            ("disabled overhead fraction", results["disabled_overhead_fraction"]),
        ],
    )


def check(results: dict) -> None:
    assert results["disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD, results


def common_result(n: int = N) -> dict:
    results = measure(n)
    return result_record("telemetry", {"n": n}, results)


def bench_telemetry_overhead(benchmark) -> None:
    results = measure()
    report(results)
    check(results)

    db = MarkovStreamDatabase()
    db.register_stream("tag", monitoring_stream())
    query = occurrence_query()
    db.query("tag", query)  # warm up
    benchmark(lambda: list(db.query("tag", query)))


def main() -> None:
    result = common_result()
    report(result["metrics"])
    check(result["metrics"])
    path = write_result(result, REPO_ROOT / "BENCH_telemetry.json")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
