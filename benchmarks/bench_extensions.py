"""Benchmarks for the beyond-the-paper extensions.

Covers the extension features DESIGN.md lists: confidence-threshold
queries (engine `min_confidence`), Monte Carlo estimation against the
exact DP, exact top-k by confidence, and the naive-vs-Lawler dedupe
ablation of Section 5.2.
"""

from __future__ import annotations

import math
import random

from repro.markov.builders import random_sequence
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.transducers.library import collapse_transducer
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.confidence.deterministic import confidence_deterministic
from repro.confidence.montecarlo import estimate_confidence
from repro.core.engine import evaluate
from repro.enumeration.sprojector_ranked import (
    enumerate_sprojector_imax,
    enumerate_sprojector_imax_naive,
)

from benchmarks.shape import print_series, timed

ALPHABET = tuple("ab")


def bench_threshold_cutoff_is_output_sensitive(benchmark) -> None:
    """Exact threshold queries touch only the qualifying prefix of the
    ranked stream — lowering theta does more work, monotonically."""
    projector = IndexedSProjector(
        sigma_star(ALPHABET), regex_to_dfa("a+", ALPHABET), sigma_star(ALPHABET)
    )
    sequence = random_sequence(ALPHABET, 60, random.Random(1))

    def above(theta):
        return list(
            evaluate(sequence, projector, order="confidence", min_confidence=theta)
        )

    rows = []
    for theta in (0.2, 0.05, 0.01):
        answers = above(theta)
        seconds = timed(lambda: above(theta))
        rows.append((theta, len(answers), seconds))
    print_series(
        "Extension: exact threshold queries (Theorem 5.7 cut-off), n=60",
        ["theta", "answers returned", "seconds"],
        rows,
    )
    counts = [row[1] for row in rows]
    assert counts == sorted(counts)  # lower theta, more answers

    benchmark(above, 0.05)


def bench_montecarlo_vs_exact(benchmark) -> None:
    query = collapse_transducer({"a": "X", "b": "Y"})
    sequence = random_sequence(ALPHABET, 30, random.Random(5))
    answer = query.transduce_deterministic(sequence.sample(random.Random(0)))
    exact = confidence_deterministic(sequence, query, answer)
    rows = []
    for samples in (500, 2000, 8000):
        estimate = estimate_confidence(
            sequence, query, answer, samples=samples, rng=random.Random(1)
        )
        rows.append(
            (
                samples,
                float(exact),
                estimate.estimate,
                abs(estimate.estimate - float(exact)),
                estimate.half_width,
            )
        )
        assert abs(estimate.estimate - float(exact)) <= estimate.half_width
    print_series(
        "Extension: Monte Carlo confidence vs the exact Theorem 4.6 DP",
        ["samples", "exact", "estimate", "abs error", "Hoeffding half-width"],
        rows,
    )

    benchmark(
        lambda: estimate_confidence(
            sequence, query, answer, samples=500, rng=random.Random(2)
        )
    )


def bench_exact_topk_ta(benchmark) -> None:
    """The Fagin-style TA loop: exact top-k by confidence, with the number
    of candidates it had to examine before the threshold certified."""
    from repro.enumeration.topk_exact import exact_topk_confidence

    projector = SProjector(
        sigma_star(ALPHABET), regex_to_dfa("a+", ALPHABET), sigma_star(ALPHABET)
    )
    rows = []
    for n in (10, 20, 40):
        sequence = random_sequence(ALPHABET, n, random.Random(n))
        results, examined = exact_topk_confidence(sequence, projector, 3)
        rows.append((n, len(results), examined, float(results[0][0])))
    print_series(
        "Extension: exact top-3 by confidence via threshold algorithm "
        "(I_max stream + Thm 5.5 probes)",
        ["n", "returned", "candidates examined", "top confidence"],
        rows,
    )
    assert all(row[1] == 3 for row in rows)

    sequence = random_sequence(ALPHABET, 20, random.Random(2))
    benchmark(exact_topk_confidence, sequence, projector, 3)


def bench_dedupe_ablation(benchmark) -> None:
    """Section 5.2: naive dedupe vs Lawler-based polynomial delay."""
    projector = SProjector(
        sigma_star(ALPHABET), regex_to_dfa("a+", ALPHABET), sigma_star(ALPHABET)
    )
    rows = []
    for n in (10, 14):
        sequence = random_sequence(ALPHABET, n, random.Random(n))
        naive_seconds = timed(
            lambda: list(enumerate_sprojector_imax_naive(sequence, projector))
        )
        lawler_seconds = timed(
            lambda: list(enumerate_sprojector_imax(sequence, projector))
        )
        naive = dict(
            (o, s) for s, o in enumerate_sprojector_imax_naive(sequence, projector)
        )
        lawler = dict(
            (o, s) for s, o in enumerate_sprojector_imax(sequence, projector)
        )
        assert set(naive) == set(lawler)
        assert all(math.isclose(naive[o], lawler[o], abs_tol=1e-9) for o in naive)
        rows.append((n, len(naive), naive_seconds, lawler_seconds))
    print_series(
        "Ablation (Section 5.2): naive dedupe vs Lawler-Murty I_max enumeration",
        ["n", "answers", "naive seconds", "lawler seconds"],
        rows,
    )

    sequence = random_sequence(ALPHABET, 10, random.Random(7))
    benchmark(lambda: list(enumerate_sprojector_imax(sequence, projector)))
