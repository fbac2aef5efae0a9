"""Experiment R1: the runtime subsystem's speedups.

A Lahar-style monitoring workload — "has the pattern occurred?" over a
long RFID-like stream — read repeatedly and appended to continuously:

* **warm vs cold reads**: a cold read re-plans the query and re-runs the
  full forward DP over all ``n`` positions; a warm read through the
  database reuses the cached plan *and* the attached
  :class:`StreamingEvaluator`'s frontier.
* **incremental vs from-scratch appends**: absorbing one timestep is a
  single DP layer against re-evaluating the grown stream.
* **plan lookup, full vs memoised key**: ``PlanCache.get`` on a fresh,
  structurally equal copy of the 96-state trap monitor (a cache hit
  that canonicalises and hashes the query) against ``PlanCache.get`` on
  the same object again (the fingerprint kept on the object). Reported
  as the median and IQR over :data:`LOOKUP_REPEATS` repeats, with the
  number of cores the process may run on.
* **exact appends on aged streams**: one append to an exact stream
  (rows ``k/11``, as perfbench's ``durable`` workload draws them) that
  carries :data:`AGED_WATCHES` occurrence watches, plus the read of each
  watched value, once the stream is ``n`` timesteps old, for ``n`` in
  :data:`AGED_SIZES`. Exact values gain a fixed number of bits per
  timestep, so this is the series that shows what an old stream costs.
  Median and IQR over :data:`AGED_REPEATS` appends; no speedup floor.
* **exact from-scratch reads**: the Theorem-4.6 DP of the shrunk trap
  monitor (perfbench's ``read`` query) over an exact stream of ``n``
  timesteps, for ``n`` in :data:`EXACT_READ_SIZES`, timed five ways on
  one ``advance``: ``final_layer`` on integer numerators over the
  stream's kept lift (``lifted``), draining ``forward`` on
  ``Fraction``s (``fraction``, the baseline), ``final_layer`` right
  after an append, which lifts the one new timestep (``after_append``),
  ``final_layer`` on a freshly built stream never read before, which
  drains ``forward`` (``cold``), and the second read of such a stream,
  which lifts every row (``lifting``, paid once per stream).
  ``lift_bytes_n{LIFT_LENGTH}`` is what the kept lift of an exact
  stream's rows holds, next to ``sequence_bytes_n{LIFT_LENGTH}``, the
  stream's own rows (both from ``tracemalloc``). Median and IQR over
  :data:`EXACT_READ_REPEATS` reads; no speedup floor.

Each speedup must be at least 2x (they are orders of magnitude in
practice). Run as a script to (re)record the ``BENCH_runtime.json``
baseline at the repo root::

    PYTHONPATH=src:. python benchmarks/bench_runtime.py
"""

from __future__ import annotations

import copy
import os
import random
import time
import tracemalloc
from fractions import Fraction
from functools import partial

from repro import telemetry
from repro.automata.regex import regex_to_dfa
from repro.confidence.layered import final_layer, forward
from repro.markov.builders import homogeneous
from repro.lahar.database import MarkovStreamDatabase
from repro.runtime.cache import PlanCache
from repro.runtime.executor import run_evaluate
from repro.runtime.plan import QueryPlan
from repro.transducers.library import accept_filter

from benchmarks.bench_sparse import positive_fraction_sequence, trap_monitor_query
from benchmarks.shape import (
    REPO_ROOT,
    median_iqr,
    print_series,
    result_record,
    timed,
    timed_best,
    write_result,
)

N = 240
ALPHABET = "ab"
MIN_SPEEDUP = 2.0
LOOKUP_REPEATS = 7
LOOKUPS_PER_REPEAT = 20
AGED_SIZES = (200, 1000, 4000)
QUICK_AGED_SIZES = (200,)
AGED_REPEATS = 7
AGED_WATCHES = ("aab", "abb", "abab", "bbaa")
EXACT_READ_SIZES = (48, 1000)
QUICK_EXACT_READ_SIZES = (48,)
EXACT_READ_REPEATS = 7
LIFT_LENGTH = 4000
QUICK_LIFT_LENGTH = 200
READ_SIDES = ("lifted", "fraction", "after_append", "cold", "lifting")


def monitoring_stream(n: int = N):
    """A homogeneous two-symbol chain of length ``n`` (float weights)."""
    return homogeneous(
        {"a": 0.6, "b": 0.4},
        {"a": {"a": 0.7, "b": 0.3}, "b": {"a": 0.4, "b": 0.6}},
        n,
    )


def occurrence_query():
    """Deterministic 0-uniform membership test: does ``ab`` ever occur?

    Emitting nothing keeps the answer set (and hence the streaming
    frontier) constant-size however long the stream grows — the shape of
    a Lahar event-detection query.
    """
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


def measure(n: int = N) -> dict:
    sequence = monitoring_stream(n)
    query = occurrence_query()

    def cold_read():
        # A fresh cache per read: pays planning + the full O(n) DP.
        plan = PlanCache().get(query)
        return list(run_evaluate(plan, sequence))

    db = MarkovStreamDatabase()
    db.register_stream("tag", sequence)

    def warm_read():
        return list(db.query("tag", query))

    cold_answers = cold_read()
    warm_answers = warm_read()  # attaches the evaluator: later reads are warm
    assert [(a.output, a.confidence) for a in warm_answers] == [
        (a.output, a.confidence) for a in cold_answers
    ]

    cold_s = timed_best(cold_read, repeats=5)
    warm_s = timed_best(warm_read, repeats=5)

    evaluator = db.streaming_evaluator("tag", query)
    plan = db.plan(query)
    timestep = {
        "a": {"a": 0.7, "b": 0.3},
        "b": {"a": 0.4, "b": 0.6},
    }
    grown = sequence.extended(timestep)

    def full_rerun():
        return list(run_evaluate(plan, grown))

    def incremental_append():
        evaluator.checkpoint()
        try:
            return evaluator.append(timestep)
        finally:
            evaluator.rollback()

    assert incremental_append() == {
        a.output: a.confidence for a in full_rerun()
    }

    rerun_s = timed_best(full_rerun, repeats=5)
    append_s = timed_best(incremental_append, repeats=5)

    return {
        **measure_plan_lookup(),
        "n": n,
        "query": "accept_filter((a|b)*ab(a|b)*)",
        "cold_read_s": cold_s,
        "warm_read_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "full_rerun_s": rerun_s,
        "incremental_append_s": append_s,
        "append_speedup": rerun_s / append_s,
    }


def measure_plan_lookup() -> dict:
    """Per-call ``PlanCache.get`` cost with the key computed vs memoised.

    Both sides are cache hits on one warm plan. Each repeat times
    :data:`LOOKUPS_PER_REPEAT` calls: on as many fresh copies of the
    trap monitor (built untimed), or on one already-seen object.
    """
    cache = PlanCache()
    seen = trap_monitor_query()
    plan = cache.get(seen)

    def per_call(queries) -> float:
        start = time.perf_counter()
        for query in queries:
            assert cache.get(query) is plan
        return (time.perf_counter() - start) / len(queries)

    full, memo = [], []
    for _ in range(LOOKUP_REPEATS):
        full.append(per_call([trap_monitor_query() for _ in range(LOOKUPS_PER_REPEAT)]))
        memo.append(per_call([seen] * LOOKUPS_PER_REPEAT))
    full_median, full_iqr = median_iqr(full)
    memo_median, memo_iqr = median_iqr(memo)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "plan_lookup_states": len(seen.states),
        "plan_lookup_full_s": full_median,
        "plan_lookup_full_iqr_s": full_iqr,
        "plan_lookup_memo_s": memo_median,
        "plan_lookup_memo_iqr_s": memo_iqr,
        "plan_lookup_speedup": full_median / memo_median,
    }


def measure_aged(sizes=AGED_SIZES) -> dict:
    """Per-append cost of an exact stream with watches, by stream age.

    One stream grows append by append; once it is ``n`` timesteps old,
    :data:`AGED_REPEATS` further appends are timed one by one, each with
    the read of every watched value that a standing query makes.
    """
    eleventh = Fraction(1, 11)
    rows = {
        "a": {"a": 3 * eleventh, "b": 8 * eleventh},
        "b": {"a": 8 * eleventh, "b": 3 * eleventh},
    }
    db = MarkovStreamDatabase()
    db.register_stream("tag", homogeneous({"a": 3 * eleventh, "b": 8 * eleventh}, rows, 2))
    evaluators = [
        db.streaming_evaluator(
            "tag", accept_filter(regex_to_dfa(f"(a|b)*{pattern}(a|b)*", ALPHABET))
        )
        for pattern in AGED_WATCHES
    ]

    def append_and_read() -> float:
        start = time.perf_counter()
        db.append("tag", rows)
        for evaluator in evaluators:
            evaluator.confidences().get((), 0)
        return time.perf_counter() - start

    metrics: dict = {}
    for n in sorted(sizes):
        while db.stream("tag").length < n:
            db.append("tag", rows)
        median, iqr = median_iqr([append_and_read() for _ in range(AGED_REPEATS)])
        metrics[f"aged_append_n{n}_s"] = median
        metrics[f"aged_append_n{n}_iqr_s"] = iqr
    return metrics


def measure_exact_reads(sizes=EXACT_READ_SIZES) -> dict:
    """Per-read cost of one exact from-scratch DP, five ways, by length.

    Every read is checked ``==`` against the ``Fraction`` baseline before
    anything is timed. The after-append side reads a stream freshly
    grown by one timestep from one that keeps its lift, so each timed
    read lifts exactly that timestep. The cold and lifting sides read
    copies of the stream (copies leave the lift out), built untimed.
    """
    plan = QueryPlan.build(trap_monitor_query())
    moves = plan.execution.moves
    accepting = plan.execution.nfa.accepting
    start = (plan.execution.nfa.initial,)

    def advance(cell, target):
        for state, _emission in moves(cell[1], target):
            yield (target, state)

    def confidence(layer) -> Fraction:
        return sum(
            (mass for (_node, state), mass in layer.items() if state in accepting),
            Fraction(0),
        )

    def lifted_read(sequence) -> Fraction:
        return confidence(final_layer(sequence, start, advance))

    def fraction_read(sequence) -> Fraction:
        layer: dict = {}
        for layer in forward(sequence, start, advance):
            pass
        return confidence(layer)

    def read_once(sequence):
        lifted_read(sequence)
        return sequence

    metrics: dict = {}
    for n in sizes:
        rng = random.Random(f"bench-runtime-exact-{n}")
        base = positive_fraction_sequence(n, rng)
        step = positive_fraction_sequence(2, rng).transition_rows(1)
        want = fraction_read(base)
        # The first read drains forward, the second lifts the rows.
        assert lifted_read(base) == lifted_read(base) == want > 0 and base.keeps_lift
        grown = [base.extended(step) for _ in range(EXACT_READ_REPEATS + 1)]
        assert lifted_read(grown[-1]) == fraction_read(grown[-1])
        probe = copy.copy(base)
        assert lifted_read(probe) == lifted_read(probe) == want and probe.keeps_lift
        cold = [copy.copy(base) for _ in range(EXACT_READ_REPEATS)]
        lifting = [read_once(copy.copy(base)) for _ in range(EXACT_READ_REPEATS)]
        reads = {
            "lifted": [partial(lifted_read, base)] * EXACT_READ_REPEATS,
            "fraction": [partial(fraction_read, base)] * EXACT_READ_REPEATS,
            "after_append": [partial(lifted_read, s) for s in grown[:EXACT_READ_REPEATS]],
            "cold": [partial(lifted_read, s) for s in cold],
            "lifting": [partial(lifted_read, s) for s in lifting],
        }
        # Round-robin over the sides, so a slow spell of the host lands
        # on every side alike.
        sides: dict = {side: [] for side in reads}
        for repeat in range(EXACT_READ_REPEATS):
            for side, calls in reads.items():
                sides[side].append(timed(calls[repeat]))
        for side, samples in sides.items():
            median, iqr = median_iqr(samples)
            metrics[f"exact_read_n{n}_{side}_s"] = median
            metrics[f"exact_read_n{n}_{side}_iqr_s"] = iqr
    return metrics


def measure_lift_bytes(n: int = LIFT_LENGTH) -> dict:
    """Bytes ``tracemalloc`` sees for an exact stream's rows and for the
    kept lift of all of them to integer numerators."""
    rng = random.Random("bench-runtime-lift")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sequence = positive_fraction_sequence(n, rng)
        built = tracemalloc.get_traced_memory()[0]
        sequence.keep_lift()
        for i in range(sequence.length):
            sequence.scaled_rows(i)
        lifted = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {
        f"sequence_bytes_n{n}": built - before,
        f"lift_bytes_n{n}": lifted - built,
    }


def report(results: dict) -> None:
    print_series(
        f"Runtime speedups (n={results['n']})",
        ["path", "seconds", "speedup"],
        [
            ("cold read (plan + full DP)", results["cold_read_s"], 1.0),
            ("warm read (cached frontier)", results["warm_read_s"], results["warm_speedup"]),
            ("full re-run after append", results["full_rerun_s"], 1.0),
            ("incremental append (1 layer)", results["incremental_append_s"], results["append_speedup"]),
            ("plan lookup, fresh copy (full key)", results["plan_lookup_full_s"], 1.0),
            ("plan lookup, same object (memo)", results["plan_lookup_memo_s"], results["plan_lookup_speedup"]),
        ],
    )
    print(
        f"plan lookup IQR: full {results['plan_lookup_full_iqr_s']:.3g} s, "
        f"memo {results['plan_lookup_memo_iqr_s']:.3g} s "
        f"({LOOKUP_REPEATS} repeats, {results['cores']} cores)"
    )
    aged = results.get("aged_sizes", ())
    if aged:
        print_series(
            f"Exact append with {len(AGED_WATCHES)} watches, by stream age "
            f"(median of {AGED_REPEATS})",
            ["n", "seconds", "IQR seconds"],
            [
                (n, results[f"aged_append_n{n}_s"], results[f"aged_append_n{n}_iqr_s"])
                for n in aged
            ],
        )
    reads = results.get("exact_read_sizes", ())
    if reads:
        print_series(
            f"Exact from-scratch read of the shrunk trap monitor "
            f"(median of {EXACT_READ_REPEATS})",
            ["n", "final_layer s", "forward s", "after append s", "cold s", "lifting s"],
            [
                (n, *(results[f"exact_read_n{n}_{side}_s"] for side in READ_SIDES))
                for n in reads
            ],
        )
    length = results.get("lift_length")
    if length is not None:
        print(
            f"kept lift of a {length}-step stream: "
            f"{results[f'lift_bytes_n{length}']} bytes, its rows "
            f"{results[f'sequence_bytes_n{length}']} bytes"
        )


def bench_runtime_speedups(benchmark) -> None:
    results = measure()
    report(results)
    assert results["warm_speedup"] >= MIN_SPEEDUP, results
    assert results["append_speedup"] >= MIN_SPEEDUP, results
    assert results["plan_lookup_speedup"] >= MIN_SPEEDUP, results

    db = MarkovStreamDatabase()
    db.register_stream("tag", monitoring_stream())
    query = occurrence_query()
    db.query("tag", query)  # warm up
    benchmark(lambda: list(db.query("tag", query)))


def common_result(
    n: int = N,
    aged_sizes=AGED_SIZES,
    read_sizes=EXACT_READ_SIZES,
    lift_length: int = LIFT_LENGTH,
) -> dict:
    """One common-schema result, measured with telemetry enabled (the aged,
    exact-read and lift series run after the session, so they record no
    telemetry)."""
    with telemetry.session() as registry:
        results = measure(n)
        snapshot = registry.snapshot()
    metrics = {key: value for key, value in results.items() if key != "query"}
    metrics.update(measure_aged(aged_sizes))
    metrics.update(measure_exact_reads(read_sizes))
    metrics.update(measure_lift_bytes(lift_length))
    return result_record(
        "runtime",
        {
            "n": n,
            "query": results["query"],
            "aged_sizes": list(aged_sizes),
            "aged_watches": list(AGED_WATCHES),
            "exact_read_sizes": list(read_sizes),
            "lift_length": lift_length,
        },
        metrics,
        telemetry_snapshot=snapshot,
    )


def main() -> None:
    result = common_result()
    metrics = result["metrics"]
    report({**result["params"], **metrics})
    assert metrics["warm_speedup"] >= MIN_SPEEDUP, metrics
    assert metrics["append_speedup"] >= MIN_SPEEDUP, metrics
    assert metrics["plan_lookup_speedup"] >= MIN_SPEEDUP, metrics
    path = write_result(result, REPO_ROOT / "BENCH_runtime.json")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
