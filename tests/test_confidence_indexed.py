"""Theorem 5.8: polynomial confidence for indexed s-projectors."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.markov.builders import uniform_iid
from repro.automata.operations import empty_string_only, sigma_star
from repro.automata.regex import regex_to_dfa
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.confidence.brute_force import brute_force_answers
from repro.confidence.indexed import confidence_indexed

from tests.conftest import make_random_dfa, make_sequence

ALPHABET = "abc"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), length=st.integers(1, 5))
def test_matches_brute_force(seed: int, length: int) -> None:
    rng = random.Random(seed)
    sequence = make_sequence(ALPHABET, length, rng)
    projector = IndexedSProjector(
        make_random_dfa(ALPHABET, 2, rng),
        make_random_dfa(ALPHABET, 2, rng),
        make_random_dfa(ALPHABET, 2, rng),
    )
    expected = brute_force_answers(sequence, projector)
    for (output, index), confidence in expected.items():
        computed = confidence_indexed(sequence, projector, output, index)
        assert math.isclose(computed, confidence, abs_tol=1e-9), (output, index)


def test_out_of_range_answers_are_zero() -> None:
    sequence = uniform_iid(ALPHABET, 3)
    projector = SProjector(
        sigma_star(ALPHABET), regex_to_dfa("a", ALPHABET), sigma_star(ALPHABET)
    )
    assert confidence_indexed(sequence, projector, ("a",), 0) == 0
    assert confidence_indexed(sequence, projector, ("a",), 4) == 0
    assert confidence_indexed(sequence, projector, ("a", "a"), 3) == 0


def test_pattern_rejection() -> None:
    sequence = uniform_iid(ALPHABET, 3)
    projector = SProjector(
        sigma_star(ALPHABET), regex_to_dfa("a", ALPHABET), sigma_star(ALPHABET)
    )
    assert confidence_indexed(sequence, projector, ("b",), 1) == 0


def test_empty_match_positions() -> None:
    """Answers (epsilon, i) for i = 1 .. n+1, with constraints that bite."""
    sequence = uniform_iid("ab", 2, exact=True)
    # Prefix must be all a's, suffix all b's, match empty.
    projector = SProjector(
        regex_to_dfa("a*", "ab"), empty_string_only("ab"), regex_to_dfa("b*", "ab")
    )
    # (eps, 1): whole string in b*: worlds bb -> 1/4.
    assert confidence_indexed(sequence, projector, (), 1) == Fraction(1, 4)
    # (eps, 2): first symbol a, second b -> ab: 1/4.
    assert confidence_indexed(sequence, projector, (), 2) == Fraction(1, 4)
    # (eps, 3): whole string in a*: aa -> 1/4.
    assert confidence_indexed(sequence, projector, (), 3) == Fraction(1, 4)
    # Cross-check against brute force.
    brute = brute_force_answers(sequence, projector.indexed())
    for i in (1, 2, 3):
        assert brute[((), i)] == Fraction(1, 4)


def test_full_match_at_position_one() -> None:
    sequence = uniform_iid("ab", 2, exact=True)
    projector = SProjector(
        sigma_star("ab"), regex_to_dfa("ab", "ab"), sigma_star("ab")
    )
    assert confidence_indexed(sequence, projector, ("a", "b"), 1) == Fraction(1, 4)


def test_sum_over_all_indexed_answers_vs_worlds() -> None:
    """Sum of conf((o,i)) equals the expected number of occurrences."""
    rng = random.Random(99)
    sequence = make_sequence("ab", 4, rng)
    projector = IndexedSProjector(
        sigma_star("ab"), regex_to_dfa("a", "ab"), sigma_star("ab")
    )
    total = sum(
        confidence_indexed(sequence, projector, output, index)
        for (output, index) in brute_force_answers(sequence, projector)
    )
    expected = sum(
        prob * sum(1 for s in world if s == "a") for world, prob in sequence.worlds()
    )
    assert math.isclose(total, expected, abs_tol=1e-9)
