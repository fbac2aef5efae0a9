"""Experiment R6: plan-time automaton shrinking on a large sparse machine.

The workload is a Lahar-style occurrence query on a **trap-heavy**
monitor automaton: 96 states, density 1/96, of which only 8 form the
live accepting core — the other 88 are absorbing trap states a run can
wander into but never leave. Without the shrink pass the Theorem-4.6 DP
faithfully drags the trapped probability mass through every layer,
multiplying exact ``Fraction`` terms that can never reach an accepting
state; with it (trim + the weight-pushing filter on moves) those states
are proven dead once at plan time and never touched again.

Both routes run the same DP through :func:`plan_confidence`, on plans
built with ``shrink=False`` and ``shrink=True``, so ``sparse_speedup``
credits the shrink pass alone. Both are exact: the benchmark asserts
the shrunk confidence is **bit-identical** (``==`` on ``Fraction``) to
the unshrunk one before timing anything. Each route's seconds are the
median (with IQR) of :data:`REPEATS` reads of one stream, and ``cores``
is the number of cores the process may run on. Both routes read the
stream's cached lift of its rows to integer numerators, so neither pays
a ``gcd`` per cell. The speedup must be at least 5x. Run as a script to
(re)record the ``BENCH_sparse.json`` baseline at the repo root::

    PYTHONPATH=src:. python benchmarks/bench_sparse.py
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from repro import telemetry
from repro.automata.nfa import NFA
from repro.markov.sequence import MarkovSequence
from repro.runtime.executor import plan_confidence
from repro.runtime.plan import QueryPlan
from repro.transducers.transducer import Transducer

from benchmarks.shape import (
    REPO_ROOT,
    median_iqr,
    print_series,
    result_record,
    timed,
    write_result,
)

NUM_STATES = 96
LIVE_STATES = 8
LENGTH = 48
QUICK_LENGTH = 20
ALPHABET = ("a", "b", "c")
MIN_SPEEDUP = 5.0
REPEATS = 7


def trap_monitor_query(num_states: int = NUM_STATES, live: int = LIVE_STATES) -> Transducer:
    """A deterministic 0-uniform monitor with a small live core.

    States ``q000..q{live-1}`` cycle on ``a`` and are accepting; ``b``
    and ``c`` scatter into the trap region, whose states shuffle among
    themselves and never accept. Emission is empty everywhere (an
    occurrence-style query), so the answer set is ``{()}`` and the DP
    frontier is exactly the reachable-state mass — which is where the
    dense and shrunken machines differ.
    """
    states = [f"q{i:03d}" for i in range(num_states)]
    traps = num_states - live
    delta: dict = {}
    for i in range(live):
        delta[(states[i], "a")] = {states[(i + 1) % live]}
        delta[(states[i], "b")] = {states[live + (i % traps)]}
        delta[(states[i], "c")] = {states[live + ((i * 7 + 3) % traps)]}
    for i in range(live, num_states):
        j = i - live
        delta[(states[i], "a")] = {states[live + ((j + 1) % traps)]}
        delta[(states[i], "b")] = {states[i]}
        delta[(states[i], "c")] = {states[live + (j * 3 % traps)]}
    nfa = NFA(ALPHABET, states, states[0], set(states[:live]), delta)
    omega = {
        (state, symbol, target): ()
        for (state, symbol), targets in delta.items()
        for target in targets
    }
    return Transducer(nfa, omega)


def positive_fraction_sequence(length: int, rng: random.Random) -> MarkovSequence:
    """A strictly positive exact-``Fraction`` chain of ``length`` steps.

    Every row gives every symbol nonzero mass, so the live core keeps
    nonzero probability at every layer — the answer stays a nontrivial
    ``Fraction`` instead of collapsing to zero mid-stream.
    """

    def row() -> dict:
        weights = [rng.randint(1, 5) for _ in ALPHABET]
        total = sum(weights)
        return {s: Fraction(w, total) for s, w in zip(ALPHABET, weights)}

    return MarkovSequence(
        ALPHABET,
        row(),
        [{source: row() for source in ALPHABET} for _ in range(length - 1)],
    )


def measure(length: int = LENGTH) -> dict:
    query = trap_monitor_query()
    rng = random.Random("bench-sparse")
    sequence = positive_fraction_sequence(length, rng)

    shrunk_plan = QueryPlan.build(query, shrink=True)
    plain_plan = QueryPlan.build(query, shrink=False)
    assert plain_plan.shrunk is None and plain_plan.push is None
    report = shrunk_plan.shrink_report
    assert report is not None and report.pruned() >= NUM_STATES - LIVE_STATES

    answer = ()  # the sole output of a 0-uniform query

    # Exact-twin gate: bit-identical nonzero Fractions before any timing.
    shrunk_value = plan_confidence(shrunk_plan, sequence, answer)
    plain_value = plan_confidence(plain_plan, sequence, answer)
    assert isinstance(shrunk_value, Fraction) and isinstance(plain_value, Fraction)
    assert shrunk_value == plain_value
    assert shrunk_value > 0

    shrunk_s, shrunk_iqr = median_iqr(
        [timed(lambda: plan_confidence(shrunk_plan, sequence, answer)) for _ in range(REPEATS)]
    )
    plain_s, plain_iqr = median_iqr(
        [timed(lambda: plan_confidence(plain_plan, sequence, answer)) for _ in range(REPEATS)]
    )

    return {
        "num_states": NUM_STATES,
        "live_states": LIVE_STATES,
        "length": length,
        "states_pruned": report.pruned(),
        "cores": len(os.sched_getaffinity(0)),
        "unshrunk_confidence_s": plain_s,
        "unshrunk_confidence_iqr_s": plain_iqr,
        "shrunk_confidence_s": shrunk_s,
        "shrunk_confidence_iqr_s": shrunk_iqr,
        "sparse_speedup": plain_s / shrunk_s,
    }


def report(results: dict) -> None:
    print_series(
        f"Shrink pass on vs off "
        f"(|Q|={results['num_states']}, n={results['length']}, "
        f"pruned={results['states_pruned']}, median of {REPEATS}, "
        f"{results['cores']} cores)",
        ["path", "seconds", "IQR seconds", "speedup"],
        [
            (
                "Theorem-4.6 DP, unshrunk",
                results["unshrunk_confidence_s"],
                results["unshrunk_confidence_iqr_s"],
                1.0,
            ),
            (
                "Theorem-4.6 DP, shrunk + push filter",
                results["shrunk_confidence_s"],
                results["shrunk_confidence_iqr_s"],
                results["sparse_speedup"],
            ),
        ],
    )


def bench_sparse_shrink(benchmark) -> None:
    results = measure()
    report(results)
    assert results["sparse_speedup"] >= MIN_SPEEDUP, results

    query = trap_monitor_query()
    rng = random.Random("bench-sparse")
    sequence = positive_fraction_sequence(LENGTH, rng)
    plan = QueryPlan.build(query)
    benchmark(lambda: plan_confidence(plan, sequence, ()))


def common_result(length: int = LENGTH) -> dict:
    """One common-schema result, measured with telemetry enabled."""
    with telemetry.session() as registry:
        results = measure(length)
        snapshot = registry.snapshot()
    return result_record(
        "sparse",
        {
            "num_states": results["num_states"],
            "live_states": results["live_states"],
            "length": length,
        },
        results,
        telemetry_snapshot=snapshot,
    )


def main() -> None:
    result = common_result()
    metrics = result["metrics"]
    report(metrics)
    assert metrics["sparse_speedup"] >= MIN_SPEEDUP, metrics
    path = write_result(result, REPO_ROOT / "BENCH_sparse.json")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
