"""Experiment S1: standing-query economics through the running service.

The service's core claim: an append advances a standing query by **one
DP layer** (the attached :class:`StreamingEvaluator`'s frontier push),
never by re-planning and re-running the query over the grown stream. A
real server is started on a unix socket and driven through the blocking
client exactly the way a monitoring deployment would:

* ``appends`` timesteps flow through ``append`` while an ``answer``-kind
  standing query watches Pr("ab" occurred) and fires its alert;
* ``incremental_speedup`` compares a from-scratch re-evaluation of the
  final stream (what each append would cost without standing queries)
  against the mean in-server DP-layer time (the
  ``serve.append.seconds`` telemetry histogram — socket overhead
  excluded, so the gated ratio measures the algorithm, not the wire);
* ``full_rerun_s`` is the median (with IQR) of :data:`REPEATS` re-runs;
  ``cores`` is the number of cores the process may run on;
* ``appends_per_second`` is the client-observed end-to-end rate,
  recorded for humans but never gated (absolute wall-clock numbers do
  not transfer across machines);
* the shared plan cache must record **exactly one miss** across the
  whole run — the telemetry proof that no append re-planned.

Run as a script to (re)record the ``BENCH_serve.json`` baseline::

    PYTHONPATH=src:. python benchmarks/bench_serve.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro import telemetry
from repro.automata.regex import regex_to_dfa
from repro.io.json_format import query_to_dict, sequence_to_dict
from repro.markov.builders import homogeneous
from repro.runtime.cache import PlanCache
from repro.runtime.executor import run_evaluate
from repro.serve import ServeClient, ServerThread
from repro.transducers.library import accept_filter

from benchmarks.shape import (
    REPO_ROOT,
    result_record,
    median_iqr,
    print_series,
    timed,
    write_result,
)

APPENDS = 200
REPEATS = 5
ALPHABET = "ab"
MIN_SPEEDUP = 2.0

INITIAL = {"a": 0.6, "b": 0.4}
ROWS = {"a": {"a": 0.7, "b": 0.3}, "b": {"a": 0.4, "b": 0.6}}
WIRE_TIMESTEP = ROWS


def occurrence_query():
    """Deterministic 0-uniform membership test: does ``ab`` ever occur?

    Emitting nothing keeps the streaming frontier constant-size however
    long the stream grows — the standing-query shape the service is for.
    """
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


def measure(appends: int = APPENDS) -> dict:
    """Drive one standing-query monitoring session; returns raw numbers.

    Run under an enabled telemetry session — the in-server DP-layer
    histogram is how the incremental cost is measured.
    """
    query = occurrence_query()
    seed_sequence = homogeneous(INITIAL, ROWS, 2)

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(socket_path=f"{tmp}/bench.sock", shards=2) as harness:
            with ServeClient.connect(harness.address) as client:
                client.call(
                    "register_stream",
                    name="tag",
                    sequence=sequence_to_dict(seed_sequence),
                )
                client.call(
                    "register_standing_query",
                    name="saw-ab",
                    stream="tag",
                    query=query_to_dict(query),
                    kind="answer",
                    output=[],
                    threshold=0.9,
                )
                client.call("subscribe", standing="saw-ab")
                start = time.perf_counter()
                alerts = 0
                for _ in range(appends):
                    alerts += len(
                        client.call(
                            "append", stream="tag", transition=WIRE_TIMESTEP
                        )["alerts"]
                    )
                wall_s = time.perf_counter() - start
                stats = client.call("stats")

    assert alerts == 1, f"expected exactly one threshold crossing, saw {alerts}"
    cache = stats["database"]["plan_cache"]
    assert cache["misses"] == 1, f"appends re-planned: {cache}"

    # what each append would cost without a standing query: re-evaluate
    # the final stream from scratch (plan cached, full O(n) DP)
    final = homogeneous(INITIAL, ROWS, 2 + appends)
    plan = PlanCache().get(query)

    def full_rerun():
        return list(run_evaluate(plan, final))

    full_rerun()  # warm the plan's lazily-built structures
    rerun_s, rerun_iqr = median_iqr([timed(full_rerun) for _ in range(REPEATS)])

    return {
        "appends": appends,
        "wall_s": wall_s,
        "appends_per_second": appends / wall_s,
        "full_rerun_s": rerun_s,
        "full_rerun_iqr_s": rerun_iqr,
        "alerts_fired": alerts,
        "repeats": REPEATS,
        "cores": len(os.sched_getaffinity(0)),
    }


def common_result(appends: int = APPENDS) -> dict:
    """One common-schema result, measured with telemetry enabled.

    The gated ``incremental_speedup`` divides the offline full re-run by
    the mean in-server DP-layer time from ``serve.append.seconds``.
    """
    with telemetry.session() as registry:
        results = measure(appends)
        snapshot = registry.snapshot()
    layer = snapshot["histograms"]["serve.append.seconds"]
    mean_append_s = layer["total"] / layer["count"]
    metrics = {
        **results,
        "mean_append_s": mean_append_s,
        "incremental_speedup": results["full_rerun_s"] / mean_append_s,
    }
    return result_record(
        "serve",
        {"appends": appends, "query": "accept_filter((a|b)*ab(a|b)*)", "shards": 2},
        metrics,
        telemetry_snapshot=snapshot,
    )


def report(metrics: dict) -> None:
    print_series(
        f"Service standing-query economics ({metrics['appends']} appends; "
        f"re-run median of {metrics['repeats']}, IQR "
        f"{metrics['full_rerun_iqr_s']:.3e} s, {metrics['cores']} cores)",
        ["path", "seconds", "speedup"],
        [
            ("full re-run per append (no standing query)", metrics["full_rerun_s"], 1.0),
            ("in-server DP layer (standing query)", metrics["mean_append_s"], metrics["incremental_speedup"]),
            ("end-to-end append round-trip", metrics["wall_s"] / metrics["appends"], None),
        ],
    )
    print(f"  appends/second (client-observed): {metrics['appends_per_second']:.1f}")


def bench_serve_appends(benchmark) -> None:
    """pytest-benchmark shape check at smoke scale."""
    result = common_result(appends=60)
    report(result["metrics"])
    assert result["metrics"]["incremental_speedup"] >= MIN_SPEEDUP, result["metrics"]

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(socket_path=f"{tmp}/bench.sock") as harness:
            with ServeClient.connect(harness.address) as client:
                client.call(
                    "register_stream",
                    name="tag",
                    sequence=sequence_to_dict(homogeneous(INITIAL, ROWS, 2)),
                )
                client.call(
                    "register_standing_query",
                    name="saw-ab",
                    stream="tag",
                    query=query_to_dict(occurrence_query()),
                    kind="answer",
                    output=[],
                    threshold=2.0,  # never fires: benchmark the layer push
                )
                benchmark(
                    lambda: client.call(
                        "append", stream="tag", transition=WIRE_TIMESTEP
                    )
                )


def main() -> None:
    result = common_result()
    metrics = result["metrics"]
    report(metrics)
    assert metrics["incremental_speedup"] >= MIN_SPEEDUP, metrics
    path = write_result(result, REPO_ROOT / "BENCH_serve.json")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
