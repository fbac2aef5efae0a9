"""Experiments X1 / X2: the substrate pipelines at benchmark scale.

X1 — the HMM + observations → Markov-sequence translation (Section 1):
correctness is brute-force-verified in the test suite; here the
translation is shown polynomial in the observation length and the
resulting sequence is immediately queryable.

X2 — footnote 3: k-order Markov sequences via the sliding-window
reduction; the reduced alphabet grows as |Sigma|^k (the "fixed k" proviso)
while the per-length cost stays linear.
"""

from __future__ import annotations

import random

from repro.markov.hmm import HMM
from repro.markov.korder import lift_transducer
from repro.core.korder import evaluate_korder
from repro.transducers.library import collapse_transducer

from benchmarks.shape import assert_polynomialish, print_series, timed
from tests.test_korder import make_random_spec


def _hmm() -> HMM:
    return HMM(
        initial={"H": 0.6, "C": 0.4},
        transition={"H": {"H": 0.7, "C": 0.3}, "C": {"H": 0.4, "C": 0.6}},
        emission={
            "H": {"1": 0.1, "2": 0.4, "3": 0.5},
            "C": {"1": 0.5, "2": 0.4, "3": 0.1},
        },
    )


def bench_hmm_translation_scaling(benchmark) -> None:
    hmm = _hmm()
    rng = random.Random(1)
    rows, times = [], []
    for n in (50, 100, 200, 400):
        _hidden, observations = hmm.sample(n, rng)
        seconds = timed(lambda: hmm.to_markov_sequence(observations))
        rows.append((n, seconds))
        times.append(seconds)
    print_series(
        "X1: HMM + observations -> Markov sequence, vs observation length",
        ["n", "seconds"],
        rows,
    )
    assert_polynomialish(times, 200)

    _hidden, observations = hmm.sample(100, rng)
    mu = benchmark(hmm.to_markov_sequence, observations)
    assert mu.length == 100


def bench_korder_reduction(benchmark) -> None:
    transducer = collapse_transducer({"a": "x", "b": "y"})
    rows, window_counts = [], []
    for k in (1, 2, 3):
        rng = random.Random(k)
        spec = make_random_spec(rng, k, k + 3)
        reduced = spec.to_first_order()
        lifted = lift_transducer(transducer, k)
        window_counts.append(len(spec.symbols) ** k)
        rows.append(
            (
                k,
                len(reduced.symbols),
                len(lifted.nfa.states),
                sum(1 for _ in evaluate_korder(spec, transducer, limit=50)),
            )
        )
    print_series(
        "X2: k-order reduction — window alphabet |Sigma|^k, answers intact",
        ["k", "window symbols", "lifted states", "answers (<=50)"],
        rows,
    )
    # Footnote 3's "fixed k" proviso: the window alphabet is |Sigma|^k.
    assert [r[1] for r in rows] == window_counts, (rows, window_counts)
    assert all(r[3] > 0 for r in rows)

    rng = random.Random(9)
    spec = make_random_spec(rng, 2, 5)
    benchmark(lambda: list(evaluate_korder(spec, transducer, limit=10)))
