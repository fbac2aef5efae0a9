"""Benchmarks for the beyond-the-paper extensions.

Covers the extension features DESIGN.md lists: confidence-threshold
queries (engine `min_confidence`) and the naive-vs-Lawler dedupe
ablation of Section 5.2.
"""

from __future__ import annotations

import math
import random

from repro.markov.builders import random_sequence
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.transducers.sprojector import IndexedSProjector, SProjector
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
