"""Semiring laws and basic behaviour."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.semiring import BOOLEAN, COUNTING, LOG, REAL, TROPICAL, VITERBI, Semiring

probabilities = st.fractions(min_value=0, max_value=1, max_denominator=50)


@pytest.mark.parametrize("semiring", [REAL, VITERBI, BOOLEAN, COUNTING, TROPICAL, LOG])
def test_identities(semiring: Semiring) -> None:
    values = {
        "real": [0, 1, Fraction(1, 3), 0.25],
        "viterbi": [0, 1, Fraction(1, 3), 0.25],
        "boolean": [True, False],
        "counting": [0, 1, 7],
        "tropical": [-math.inf, 0.0, -1.5],
        "log": [-math.inf, 0.0, -1.5],
    }[semiring.name]
    for value in values:
        assert semiring.add(semiring.zero, value) == value
        assert semiring.mul(semiring.one, value) == value


@given(a=probabilities, b=probabilities, c=probabilities)
def test_real_distributivity(a, b, c) -> None:
    assert REAL.mul(a, REAL.add(b, c)) == REAL.add(REAL.mul(a, b), REAL.mul(a, c))


@given(a=probabilities, b=probabilities, c=probabilities)
def test_viterbi_distributivity(a, b, c) -> None:
    left = VITERBI.mul(a, VITERBI.add(b, c))
    right = VITERBI.add(VITERBI.mul(a, b), VITERBI.mul(a, c))
    assert left == right


@given(a=probabilities, b=probabilities)
def test_commutativity(a, b) -> None:
    for semiring in (REAL, VITERBI):
        assert semiring.add(a, b) == semiring.add(b, a)
        assert semiring.mul(a, b) == semiring.mul(b, a)


def test_log_semiring_matches_real() -> None:
    xs = [0.5, 0.25, 0.125]
    real_sum = sum(xs)
    log_sum = LOG.sum(math.log(x) for x in xs)
    assert math.isclose(math.exp(log_sum), real_sum)
    log_prod = LOG.product(math.log(x) for x in xs)
    assert math.isclose(math.exp(log_prod), 0.5 * 0.25 * 0.125)


def test_log_zero_is_absorbing_for_add() -> None:
    assert LOG.add(LOG.zero, -2.0) == -2.0
    assert LOG.add(-2.0, LOG.zero) == -2.0


def test_sum_and_product_empty() -> None:
    assert REAL.sum([]) == 0
    assert REAL.product([]) == 1
    assert BOOLEAN.sum([]) is False
    assert BOOLEAN.product([]) is True


def test_is_zero() -> None:
    assert REAL.is_zero(0)
    assert not REAL.is_zero(Fraction(1, 10**9))
    assert LOG.is_zero(-math.inf)
    assert not LOG.is_zero(0.0)


def test_counting_semiring_counts() -> None:
    # Number of paths in a 2-step branching structure: 2 * 3.
    assert COUNTING.mul(2, 3) == 6
    assert COUNTING.sum([1, 1, 1]) == 3


def test_real_semiring_works_with_fractions_exactly() -> None:
    third = Fraction(1, 3)
    assert REAL.sum([third, third, third]) == 1
    assert REAL.product([third, Fraction(3, 1)]) == 1


def test_lifted_semirings_agree_with_viterbi_real_and_world_counts() -> None:
    """TROPICAL, BOOLEAN and COUNTING each lift probabilities into their
    own carrier, so a lifted layered DP answers in that semiring: the
    log of the Viterbi value, whether the real value is positive, and the
    number of accepted worlds with positive probability."""
    from repro.automata.regex import regex_to_dfa
    from repro.confidence.language import language_probability
    from repro.markov.sequence import MarkovSequence

    sequence = MarkovSequence(
        "ab",
        {"a": Fraction(1, 4), "b": Fraction(3, 4)},
        [
            {"a": {"a": Fraction(1, 2), "b": Fraction(1, 2)}, "b": {"a": Fraction(1)}},
            {"a": {"a": Fraction(1, 4), "b": Fraction(3, 4)}, "b": {"b": Fraction(1)}},
        ],
    )
    dfa = regex_to_dfa(".*b", "ab")
    best = language_probability(sequence, dfa, VITERBI)
    assert best == Fraction(9, 16)  # b a b
    assert language_probability(sequence, dfa, TROPICAL) == pytest.approx(
        math.log(best), abs=1e-12
    )
    assert language_probability(sequence, dfa, BOOLEAN) is True
    assert language_probability(sequence, dfa, REAL) > 0
    accepted = [world for world, _prob in sequence.worlds() if dfa.accepts(world)]
    assert language_probability(sequence, dfa, COUNTING) == len(accepted) == 3
    never = regex_to_dfa("bb.*", "ab")  # S_2 = a whenever S_1 = b
    assert language_probability(sequence, never, REAL) == 0
    assert language_probability(sequence, never, BOOLEAN) is False
    assert language_probability(sequence, never, COUNTING) == 0
    assert language_probability(sequence, never, TROPICAL) == -math.inf
