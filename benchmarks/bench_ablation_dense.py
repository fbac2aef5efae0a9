"""Ablation: sparse-dict DP vs dense numpy DP for Theorem 4.6.

DESIGN.md calls out the implementation choice of sparse dict-of-dict
dynamic programs (number-type generic, supports exact rationals) over
dense matrix products. This ablation races the two on k-uniform
deterministic instances: the dense path (the vectorized batch DP run on
one stream, ``B = 1``) wins when the Markov rows are dense and the state
space is small; the sparse path wins on sparse rows — and is the only
one supporting Fractions. Both must agree numerically.
"""

from __future__ import annotations

import math
import random

from repro.markov.builders import random_sequence
from repro.transducers.library import collapse_transducer
from repro.confidence.deterministic import confidence_deterministic
from repro.vectorized import confidence_dense_batch

from benchmarks.shape import print_series, timed

ALPHABET = tuple("abcd")
QUERY = collapse_transducer({"a": "X", "b": "X", "c": "Y", "d": "Y"})


def _dense(sequence, transducer, output) -> float:
    return confidence_dense_batch([sequence], transducer, output)[0]


def _instance(n: int, branching: int | None):
    rng = random.Random(n if branching is None else n * 7 + branching)
    sequence = random_sequence(ALPHABET, n, rng, branching=branching)
    output = QUERY.transduce_deterministic(sequence.sample(random.Random(0)))
    return sequence, output


def bench_sparse_vs_dense(benchmark) -> None:
    rows = []
    for n, branching, label in (
        (100, None, "dense rows"),
        (100, 2, "sparse rows (branching 2)"),
        (200, None, "dense rows"),
        (200, 2, "sparse rows (branching 2)"),
    ):
        sequence, output = _instance(n, branching)
        sparse_time = timed(lambda: confidence_deterministic(sequence, QUERY, output))
        dense_time = timed(lambda: _dense(sequence, QUERY, output))
        sparse_value = confidence_deterministic(sequence, QUERY, output)
        dense_value = _dense(sequence, QUERY, output)
        assert math.isclose(float(sparse_value), dense_value, abs_tol=1e-9)
        rows.append((n, label, sparse_time, dense_time))
    print_series(
        "Ablation: sparse dict DP vs dense numpy DP (Theorem 4.6, k-uniform)",
        ["n", "rows", "sparse seconds", "dense seconds"],
        rows,
    )

    sequence, output = _instance(100, None)
    benchmark(_dense, sequence, QUERY, output)
