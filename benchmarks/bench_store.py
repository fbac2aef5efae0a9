"""Experiment D1: durability economics — journal overhead and recovery.

The store's core claim: crash recovery is **snapshot + short suffix**,
not a full-log replay. A durable database journals a standing-query
monitoring session (the ``repro serve --data-dir`` workload shape:
one stream, one standing query, many appends), then recovery is timed
two ways over the same directory:

* ``cold_recovery_s`` — replay the *entire* log from LSN 1 with
  snapshots ignored (``use_snapshot=False``): every append re-advances
  the standing evaluator one DP layer, so cost grows linearly with
  history;
* ``warm_recovery_s`` — recover from the latest snapshot plus the
  10-record suffix written after compaction: cost is bounded by the
  compaction interval, independent of history.

Both are the median (with IQR) of :data:`REPEATS` recoveries; ``cores``
is the number of cores the process may run on.

The gate is what a snapshot promises, counted rather than timed: warm
recovery pushes exactly ``suffix`` DP layers per watched evaluator,
where cold recovery pushes at least ``appends`` (``PlanStats.appends``
of the recovered evaluators' plans, ``warm_layers``/``cold_layers``).
A recovery that ignored the snapshot, or re-ran the DP over the
snapshot's stream, fails it on any machine. ``recovery_speedup``
(cold / warm seconds) is recorded, and ``benchmarks/regress.py`` keeps
comparing it with the baseline, but no fixed ratio is asserted here:
warm recovery's floor is decoding and re-validating the snapshot's
stream, so the ratio moves whenever replay gets cheaper or dearer.
``durable_append_overhead`` (journaled append wall-clock over
in-memory append wall-clock, each advancing the watch's evaluator, fsync
off as on tmpfs CI) is recorded for
humans but never gated: absolute I/O numbers do not transfer across
machines.

Run as a script to (re)record the ``BENCH_store.json`` baseline::

    PYTHONPATH=src:. python benchmarks/bench_store.py
"""

from __future__ import annotations

import os
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from repro import telemetry
from repro.automata.regex import regex_to_dfa
from repro.lahar.database import MarkovStreamDatabase
from repro.markov.builders import homogeneous
from repro.serve.alerts import AlertEngine
from repro.store import Store, capture_state, replay, verify_recovery
from repro.transducers.library import accept_filter

from benchmarks.shape import (
    REPO_ROOT,
    result_record,
    median_iqr,
    print_series,
    timed,
    write_result,
)

APPENDS = 800
SUFFIX = 10
REPEATS = 5
ALPHABET = "ab"

INITIAL = {"a": Fraction(3, 5), "b": Fraction(2, 5)}
ROWS = {
    "a": {"a": Fraction(7, 10), "b": Fraction(3, 10)},
    "b": {"a": Fraction(2, 5), "b": Fraction(3, 5)},
}


def occurrence_query():
    """Deterministic 0-uniform membership test: does ``ab`` ever occur?

    The constant-size streaming frontier keeps the journaled workload
    honest — replay cost comes from the *number* of records, not from a
    growing per-record cost.
    """
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


def layers_pushed(recovered) -> int:
    """DP layers a recovery pushed through its evaluators: the
    ``PlanStats.appends`` of their plans, each plan counted once."""
    plans = {
        id(evaluator.plan): evaluator.plan
        for _stream, evaluator in recovered.database.attached_evaluators()
    }
    return sum(plan.stats.appends for plan in plans.values())


def check_layers(metrics: dict) -> None:
    """The snapshot's promise: ``suffix`` layers per watch when warm,
    at least ``appends`` per watch when cold."""
    watches = metrics["watches"]
    assert metrics["warm_layers"] == metrics["suffix"] * watches, metrics
    assert metrics["cold_layers"] >= metrics["appends"] * watches, metrics


def measure(appends: int = APPENDS, suffix: int = SUFFIX) -> dict:
    """One durability session; returns raw numbers.

    Phases: journal ``appends`` records (timing them against in-memory
    appends of the same transitions), time a cold full-log replay,
    compact, journal ``suffix`` more records, time the warm recovery.
    """
    query = occurrence_query()
    seed = homogeneous(INITIAL, ROWS, 2)

    plain = MarkovStreamDatabase()
    plain.register_stream("tag", seed)
    plain.streaming_evaluator("tag", query)
    start = time.perf_counter()
    for _ in range(appends):
        plain.append("tag", ROWS)
    plain_append_s = (time.perf_counter() - start) / appends

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "data"
        store = Store(data_dir, fsync=False)
        database = MarkovStreamDatabase(store=store)
        database.register_stream("tag", seed)
        database.register_query("saw-ab", query)
        # a standing query makes replay do real work: every journaled
        # append re-advances its evaluator by one DP layer
        AlertEngine().register_standing(
            database,
            "watch",
            "tag",
            "answer",
            "saw-ab",
            query,
            (),
            Fraction(9, 10),
            Fraction(1, 2),
        )
        start = time.perf_counter()
        for _ in range(appends):
            database.append("tag", ROWS)
        durable_append_s = (time.perf_counter() - start) / appends
        store.close()

        cold = replay(data_dir, use_snapshot=False)
        cold_layers = layers_pushed(cold)
        cold_s, cold_iqr = median_iqr(
            [timed(lambda: replay(data_dir, use_snapshot=False)) for _ in range(REPEATS)]
        )

        recovered = replay(data_dir)
        store = Store(data_dir, fsync=False)
        store.compact(capture_state(recovered.database, recovered.alerts))
        database = recovered.database
        database.attach_store(store)
        for _ in range(suffix):
            database.append("tag", ROWS)
        store.close()

        warm = replay(data_dir)
        assert warm.records_replayed == suffix, warm.records_replayed
        warm_layers = layers_pushed(warm)
        watches = len(warm.database.attached_evaluators())
        warm_s, warm_iqr = median_iqr(
            [timed(lambda: replay(data_dir)) for _ in range(REPEATS)]
        )
        report = verify_recovery(data_dir)
        assert report["ok"], report["mismatches"]

    return {
        "appends": appends,
        "suffix": suffix,
        "plain_append_s": plain_append_s,
        "durable_append_s": durable_append_s,
        "durable_append_overhead": durable_append_s / plain_append_s,
        "watches": watches,
        "cold_layers": cold_layers,
        "warm_layers": warm_layers,
        "cold_recovery_s": cold_s,
        "cold_recovery_iqr_s": cold_iqr,
        "warm_recovery_s": warm_s,
        "warm_recovery_iqr_s": warm_iqr,
        "recovery_speedup": cold_s / warm_s,
        "repeats": REPEATS,
        "cores": len(os.sched_getaffinity(0)),
    }


def common_result(appends: int = APPENDS, suffix: int = SUFFIX) -> dict:
    """One common-schema result, measured with telemetry enabled."""
    with telemetry.session() as registry:
        metrics = measure(appends, suffix)
        snapshot = registry.snapshot()
    assert "store.replay.seconds" in snapshot["histograms"]
    return result_record(
        "store",
        {
            "appends": appends,
            "suffix": suffix,
            "query": "accept_filter((a|b)*ab(a|b)*)",
            "fsync": False,
        },
        metrics,
        telemetry_snapshot=snapshot,
    )


def report(metrics: dict) -> None:
    print_series(
        f"Durability economics ({metrics['appends']} journaled appends, "
        f"{metrics['suffix']}-record suffix; median and IQR of "
        f"{metrics['repeats']} recoveries, {metrics['cores']} cores)",
        ["path", "DP layers", "seconds", "IQR", "speedup"],
        [
            (
                "cold recovery (full-log replay)",
                metrics["cold_layers"],
                metrics["cold_recovery_s"],
                metrics["cold_recovery_iqr_s"],
                1.0,
            ),
            (
                "warm recovery (snapshot + suffix)",
                metrics["warm_layers"],
                metrics["warm_recovery_s"],
                metrics["warm_recovery_iqr_s"],
                metrics["recovery_speedup"],
            ),
            ("journaled append", None, metrics["durable_append_s"], None, None),
            ("in-memory append", None, metrics["plain_append_s"], None, None),
        ],
    )
    print(
        f"  journal overhead: {metrics['durable_append_overhead']:.2f}x "
        "per append (informational, fsync off)"
    )


def bench_store_recovery(benchmark) -> None:
    """pytest-benchmark shape check at smoke scale."""
    result = common_result(appends=100)
    report(result["metrics"])
    check_layers(result["metrics"])
    benchmark(lambda: None)


def main() -> None:
    result = common_result()
    report(result["metrics"])
    check_layers(result["metrics"])
    path = write_result(result, REPO_ROOT / "BENCH_store.json")
    print(f"  baseline written to {path}")


if __name__ == "__main__":
    main()
