"""The engine's min_confidence parameter across orders."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ReproError
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.transducers.library import collapse_transducer
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.confidence.brute_force import brute_force_answers
from repro.core.engine import evaluate

from tests.conftest import make_random_deterministic_transducer, make_sequence

ALPHABET = "ab"


def expected_above(sequence, query, theta):
    return {
        answer: confidence
        for answer, confidence in brute_force_answers(sequence, query).items()
        if confidence >= theta - 1e-12
    }


def transducer_cases():
    """``(sequence, query, theta)``: the collapse query, then random
    deterministic transducers whose emissions have length 0-2."""
    rng = random.Random(6)
    sequence = make_sequence(ALPHABET, 5, rng)
    query = collapse_transducer({"a": "X", "b": "Y"})
    confidences = sorted(brute_force_answers(sequence, query).values())
    yield sequence, query, confidences[len(confidences) * 3 // 4]
    rng = random.Random(5)
    for _ in range(4):
        sequence = make_sequence(ALPHABET, 4, rng)
        query = make_random_deterministic_transducer(ALPHABET, 3, rng)
        confidences = brute_force_answers(sequence, query).values()
        if confidences:
            yield sequence, query, max(confidences) / 2


@pytest.mark.parametrize("order", ["unranked", "emax"])
def test_threshold_transducer_orders(order: str) -> None:
    for sequence, query, theta in transducer_cases():
        produced = {
            a.output: a.confidence
            for a in evaluate(sequence, query, order=order, min_confidence=theta)
        }
        want = expected_above(sequence, query, theta)
        assert set(produced) == set(want)
        for output, confidence in produced.items():
            assert math.isclose(confidence, want[output], abs_tol=1e-9)


def test_threshold_confidence_order_indexed() -> None:
    rng = random.Random(8)
    sequence = make_sequence(ALPHABET, 5, rng)
    projector = IndexedSProjector(
        sigma_star(ALPHABET), regex_to_dfa("a+", ALPHABET), sigma_star(ALPHABET)
    )
    confidences = brute_force_answers(sequence, projector)
    theta = sorted(confidences.values())[len(confidences) // 2]
    produced = {
        a.output: a.confidence
        for a in evaluate(
            sequence, projector, order="confidence", min_confidence=theta
        )
    }
    want = expected_above(sequence, projector, theta)
    assert set(produced) == set(want)


def test_threshold_imax_order() -> None:
    rng = random.Random(9)
    sequence = make_sequence(ALPHABET, 5, rng)
    projector = SProjector(
        sigma_star(ALPHABET), regex_to_dfa("a+", ALPHABET), sigma_star(ALPHABET)
    )
    confidences = brute_force_answers(sequence, projector)
    theta = sorted(confidences.values())[len(confidences) // 2]
    produced = {
        a.output
        for a in evaluate(sequence, projector, order="imax", min_confidence=theta)
    }
    want = set(expected_above(sequence, projector, theta))
    assert produced == want


def test_threshold_with_limit() -> None:
    rng = random.Random(10)
    sequence = make_sequence(ALPHABET, 5, rng)
    query = collapse_transducer({"a": "X", "b": "Y"})
    answers = list(
        evaluate(sequence, query, order="emax", min_confidence=0.0001, limit=2)
    )
    assert len(answers) <= 2


def test_threshold_requires_confidence() -> None:
    rng = random.Random(11)
    sequence = make_sequence(ALPHABET, 3, rng)
    query = collapse_transducer({"a": "X", "b": "Y"})
    with pytest.raises(ReproError):
        list(
            evaluate(
                sequence,
                query,
                order="emax",
                with_confidence=False,
                min_confidence=0.5,
            )
        )
