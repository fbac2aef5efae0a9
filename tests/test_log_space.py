"""Log-space confidence: the Theorem-4.6 and language DPs in the LOG semiring."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from repro.errors import InvalidTransducerError
from repro.markov.builders import iid
from repro.automata.nfa import NFA
from repro.automata.regex import regex_to_dfa
from repro.transducers.library import collapse_transducer
from repro.transducers.transducer import Transducer
from repro.confidence.deterministic import confidence_deterministic
from repro.confidence.language import language_probability
from repro.markov.sequence import MarkovSequence
from repro.semiring import LOG

from tests.conftest import make_random_deterministic_transducer, make_sequence


def log_confidence_deterministic(sequence, transducer, output) -> float:
    return confidence_deterministic(sequence, transducer, output, semiring=LOG)


def log_language_probability(sequence, dfa) -> float:
    return language_probability(sequence, dfa, semiring=LOG)


def test_matches_linear_space_on_small_instances() -> None:
    rng = random.Random(4)
    for _ in range(5):
        sequence = make_sequence("ab", 5, rng)
        transducer = make_random_deterministic_transducer("ab", 3, rng)
        from repro.confidence.brute_force import brute_force_answers

        for output, confidence in brute_force_answers(sequence, transducer).items():
            log_value = log_confidence_deterministic(sequence, transducer, output)
            assert math.isclose(math.exp(log_value), confidence, rel_tol=1e-9)


def test_zero_confidence_is_neg_inf() -> None:
    sequence = iid({"a": 1.0, "b": 0.0}, 3)
    transducer = collapse_transducer({"a": "X", "b": "Y"})
    assert log_confidence_deterministic(sequence, transducer, ("Y",) * 3) == -math.inf


def test_survives_lengths_that_underflow_floats() -> None:
    """conf(X^n) = 2^-n underflows IEEE doubles for n = 2000; the linear
    DP returns exactly 0 while log space recovers -n ln 2."""
    n = 2000
    sequence = iid({"a": 0.5, "b": 0.5}, n)
    transducer = collapse_transducer({"a": "X", "b": "Y"})
    linear = confidence_deterministic(sequence, transducer, ("X",) * n)
    assert linear == 0.0  # underflow in linear space
    log_value = log_confidence_deterministic(sequence, transducer, ("X",) * n)
    assert math.isclose(log_value, n * math.log(0.5), rel_tol=1e-12)


def test_aggregate_stays_finite_when_worlds_underflow() -> None:
    """All 2^n worlds collapse to one answer of confidence 1: fine in both
    representations because the DP aggregates before underflowing."""
    n = 2500
    sequence = iid({"a": 0.5, "b": 0.5}, n)
    transducer = collapse_transducer({"a": "X", "b": "X"})
    assert confidence_deterministic(sequence, transducer, ("X",) * n) == pytest.approx(1.0)
    log_value = log_confidence_deterministic(sequence, transducer, ("X",) * n)
    assert math.isclose(log_value, 0.0, abs_tol=1e-6)


def test_partial_aggregate_on_long_sequence() -> None:
    n = 2000
    sequence = iid({"a": 0.5, "b": 0.5}, n)
    transducer = collapse_transducer({"a": "X", "b": "Y"})
    # conf(X^n) = 2^-n: exactly representable in log space.
    log_value = log_confidence_deterministic(sequence, transducer, ("X",) * n)
    assert math.isclose(log_value, n * math.log(0.5), rel_tol=1e-12)


def test_log_language_probability() -> None:
    rng = random.Random(9)
    sequence = make_sequence("ab", 5, rng)
    dfa = regex_to_dfa(".*b", "ab")
    linear = language_probability(sequence, dfa)
    log_value = log_language_probability(sequence, dfa)
    assert math.isclose(math.exp(log_value), linear, rel_tol=1e-9)


def test_log_language_probability_long() -> None:
    n = 3000
    sequence = iid({"a": 0.5, "b": 0.5}, n)
    dfa = regex_to_dfa(".*", "ab")
    assert math.isclose(log_language_probability(sequence, dfa), 0.0, abs_tol=1e-6)


def test_rejects_nondeterministic() -> None:
    sequence = iid({"a": 1.0}, 2)
    nondeterministic = Transducer(
        NFA("a", {0, 1}, 0, {0, 1}, {(0, "a"): {0, 1}}), {}
    )
    with pytest.raises(InvalidTransducerError):
        log_confidence_deterministic(sequence, nondeterministic, ())


def test_exact_inputs_below_double_range_do_not_underflow() -> None:
    """A ``Fraction`` far below the smallest double is lifted exactly:
    ``log(1/10**400) + log(1/2)`` rather than ``log(float(...)) = -inf``."""
    tiny = Fraction(1, 10**400)
    half = Fraction(1, 2)
    sequence = MarkovSequence(
        "ab",
        {"a": tiny, "b": 1 - tiny},
        [{"a": {"a": half, "b": half}, "b": {"a": half, "b": half}}],
    )
    want = -400 * math.log(10) - math.log(2)
    transducer = collapse_transducer({"a": "X", "b": "Y"})
    log_value = log_confidence_deterministic(sequence, transducer, ("X", "X"))
    assert math.isclose(log_value, want, rel_tol=1e-12)
    dfa = regex_to_dfa("aa", "ab")
    assert math.isclose(log_language_probability(sequence, dfa), want, rel_tol=1e-12)
