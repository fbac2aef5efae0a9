"""Experiment P1: batch execution over a stream corpus.

A Lahar-style fleet workload — one query, many tracked objects — run
over a corpus of hospital-derived float streams:

* **serial**: :func:`repro.runtime.executor.batch_top_k`, one plan, one
  core, the streams' ranked enumerations merged lazily;
* **vectorized**: same-plan confidence batching, where the per-stream
  loop of single-stream (``B = 1``) dense DPs is replaced by one
  ``(B, S) @ (B, S, S)`` contraction per timestep. Each stream's probability tensors are
  gathered once and cached weakly off the (immutable) stream, so the
  timed steady state — a persistent corpus probed repeatedly — is pure
  numpy work.

The vectorized path must be at least ``5x`` the scalar loop regardless
of core count. Both sides run the same numpy DP, so the ratio credits
batching alone (it removes per-stream python overhead, not just
serializes less). The serial ranked batch is recorded, with the usable
core count, but not gated. Every time is the median of ``REPEATS`` runs,
recorded with its interquartile range.

Run as a script to (re)record the ``BENCH_parallel.json`` baseline::

    PYTHONPATH=src:. python benchmarks/bench_parallel.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import random

from repro.examples_data.hospital import LOCATIONS, hospital_sequence, room_change_transducer
from repro.markov.sequence import MarkovSequence
from repro.automata.nfa import NFA
from repro.vectorized import confidence_dense_batch, dense_batch_eligible
from repro.runtime.executor import batch_top_k
from repro.runtime.plan import QueryPlan
from repro.transducers.transducer import Transducer

from repro import telemetry

from benchmarks.shape import REPO_ROOT, result_record, median_iqr, print_series, timed, write_result

STREAMS = 64
LENGTH = 32
K = 5
VECTORIZED_MIN_SPEEDUP = 5.0
#: Timed runs per path; the series reports their median.
REPEATS = 5


def _random_timestep(rng: random.Random) -> dict:
    """A dense-ish random float transition function over the locations."""
    timestep = {}
    for source in LOCATIONS:
        targets = rng.sample(LOCATIONS, 3)
        weights = [rng.random() + 0.05 for _ in targets]
        total = sum(weights)
        timestep[source] = {t: w / total for t, w in zip(targets, weights)}
    return timestep


def fleet_corpus(streams: int, length: int) -> dict[str, MarkovSequence]:
    """``streams`` float sequences of equal ``length``: each starts from
    the Figure 1 hospital sequence and grows by random timesteps, so the
    corpus is hospital-shaped but every stream is distinct."""
    corpus = {}
    for i in range(streams):
        rng = random.Random(1000 + i)
        sequence = hospital_sequence(exact=False)
        while sequence.length < length:
            sequence = sequence.extended(_random_timestep(rng))
        corpus[f"cart{i:03d}"] = sequence
    return corpus


def place_tracking_transducer() -> Transducer:
    """A 1-uniform deterministic variant of the place query: emit the
    cart's place identifier (1/2/λ) at *every* timestep. Unlike
    :func:`room_change_transducer` (emissions of lengths 0 and 1) this is
    uniform, so it is eligible for the dense batched DP."""
    place = {
        "r1a": "1", "r1b": "1", "r2a": "2", "r2b": "2", "la": "λ", "lb": "λ",
    }
    states = {"q0", "q1", "q2", "qλ"}
    delta = {}
    omega = {}
    for state in states:
        for symbol in LOCATIONS:
            target = f"q{place[symbol]}"
            delta[(state, symbol)] = {target}
            omega[(state, symbol, target)] = (place[symbol],)
    nfa = NFA(LOCATIONS, states, "q0", states, delta)
    return Transducer(nfa, omega)


def measure(streams: int = STREAMS, length: int = LENGTH) -> dict:
    corpus = fleet_corpus(streams, length)

    # --- serial ranked batch over the fleet -----------------------------
    plan = QueryPlan.build(room_change_transducer())
    serial_s, serial_iqr = median_iqr(
        [timed(lambda: batch_top_k(plan, corpus, K, order="emax")) for _ in range(REPEATS)]
    )

    return {
        "streams": streams,
        "length": length,
        "k": K,
        "cores": len(os.sched_getaffinity(0)),
        "serial_topk_s": serial_s,
        "serial_topk_iqr_s": serial_iqr,
        **measure_vectorized(corpus, length),
    }


def measure_vectorized(corpus: dict[str, MarkovSequence], length: int) -> dict:
    """The scalar-loop vs vectorized-batch comparison on one corpus (also
    the regression harness's quick scenario)."""
    uniform_query = place_tracking_transducer()
    uniform_plan = QueryPlan.build(uniform_query)
    ordered = list(corpus.values())
    assert dense_batch_eligible(uniform_plan, ordered)
    # Any length-n place string works as the probed answer; use the
    # all-lab trace, which every stream can realize.
    output = ("λ",) * length

    def scalar_loop():
        return [
            confidence_dense_batch([sequence], uniform_query, output)[0]
            for sequence in ordered
        ]

    def vectorized_batch():
        return confidence_dense_batch(ordered, uniform_query, output)

    scalar_values = scalar_loop()
    vector_values = vectorized_batch()
    assert all(
        abs(a - b) <= 1e-12 + 1e-9 * abs(a)
        for a, b in zip(scalar_values, vector_values)
    ), "vectorized confidences must match the per-stream (B = 1) DP"
    scalar_s, scalar_iqr = median_iqr([timed(scalar_loop) for _ in range(REPEATS)])
    vectorized_s, vectorized_iqr = median_iqr(
        [timed(vectorized_batch) for _ in range(REPEATS)]
    )
    return {
        "scalar_confidence_s": scalar_s,
        "scalar_confidence_iqr_s": scalar_iqr,
        "vectorized_confidence_s": vectorized_s,
        "vectorized_confidence_iqr_s": vectorized_iqr,
        "vectorized_speedup": scalar_s / vectorized_s,
    }


def common_result(streams: int = STREAMS, length: int = LENGTH) -> dict:
    """One common-schema result, measured with telemetry enabled."""
    with telemetry.session() as registry:
        results = measure(streams=streams, length=length)
        snapshot = registry.snapshot()
    params = {
        "streams": streams,
        "length": length,
        "k": K,
        "repeats": REPEATS,
        "cores": results["cores"],
    }
    return result_record("parallel", params, results, telemetry_snapshot=snapshot)


def report(results: dict) -> None:
    print_series(
        f"Batch execution (streams={results['streams']}, n={results['length']}, "
        f"cores={results['cores']})",
        ["path", "median s", "IQR s", "speedup"],
        [
            ("serial batch_top_k", results["serial_topk_s"], results["serial_topk_iqr_s"], 1.0),
            (
                "scalar confidence loop",
                results["scalar_confidence_s"],
                results["scalar_confidence_iqr_s"],
                1.0,
            ),
            (
                "vectorized confidence",
                results["vectorized_confidence_s"],
                results["vectorized_confidence_iqr_s"],
                results["vectorized_speedup"],
            ),
        ],
    )


def check(results: dict) -> None:
    assert results["vectorized_speedup"] >= VECTORIZED_MIN_SPEEDUP, results


def bench_parallel_batch(benchmark) -> None:
    """Smoke-scale pytest-benchmark entry: correctness + representative op."""
    results = measure(streams=8, length=12)
    report(results)
    corpus = fleet_corpus(8, 12)
    plan = QueryPlan.build(room_change_transducer())
    benchmark(lambda: batch_top_k(plan, corpus, K))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus, correctness only (no speedup floors, no baseline file)",
    )
    args = parser.parse_args()

    if args.smoke:
        report(measure(streams=8, length=12))
        print("\nsmoke run OK (speedup floors not asserted)")
        return

    result = common_result()
    combined = {**result["params"], **result["metrics"]}
    report(combined)
    check(combined)
    path = write_result(result, REPO_ROOT / "BENCH_parallel.json")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
