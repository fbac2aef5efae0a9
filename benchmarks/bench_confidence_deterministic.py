"""Experiment T2-C3: Table 2, confidence for *deterministic* transducers.

Paper claim (Theorem 4.6): PTIME — ``O(|o| n |Sigma|^2 |Q|^2)``, and
``O(k n |Sigma|^2 |Q|^2)`` under k-uniform emission. Shape reproduced:
runtime grows ~linearly in the sequence length ``n`` and in ``|o|``
(polynomial, never exponential). There is one DP for both cases; under
k-uniform emission it only adds a length check (``|o| == k n``) that
answers zero before any layer runs.
"""

from __future__ import annotations

import random

from repro.markov.builders import random_sequence
from repro.transducers.library import collapse_transducer
from repro.confidence.deterministic import confidence_deterministic

from benchmarks.shape import assert_polynomialish, print_series, timed

ALPHABET = tuple("abcd")


def _instance(n: int):
    rng = random.Random(n)
    sequence = random_sequence(ALPHABET, n, rng)
    query = collapse_transducer({"a": "X", "b": "X", "c": "Y", "d": "Y"})
    # A guaranteed answer: the collapse of a sampled world.
    world = sequence.sample(random.Random(0))
    output = query.transduce_deterministic(world)
    return sequence, query, output


def bench_confidence_deterministic_scaling_n(benchmark) -> None:
    sizes = [25, 50, 100, 200]
    rows = []
    times = []
    for n in sizes:
        sequence, query, output = _instance(n)
        seconds = timed(lambda: confidence_deterministic(sequence, query, output))
        rows.append((n, len(output), seconds))
        times.append(seconds)
    print_series(
        "Theorem 4.6: deterministic confidence vs n (PTIME)",
        ["n", "|o|", "seconds"],
        rows,
    )
    # Polynomial shape: n and |o| both grow 8x end to end (~64x model
    # cost); anything exponential would be astronomically larger.
    assert_polynomialish(times, 1000)

    sequence, query, output = _instance(100)
    result = benchmark(confidence_deterministic, sequence, query, output)
    assert result > 0

