"""The Markov-sequence data model: Equation (1) semantics and transforms."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidDistributionError, InvalidMarkovSequenceError
from repro.markov.builders import iid, random_sequence, uniform_iid
from repro.markov.sequence import MarkovSequence


@pytest.fixture
def simple() -> MarkovSequence:
    half = Fraction(1, 2)
    return MarkovSequence(
        "ab",
        {"a": Fraction(3, 4), "b": Fraction(1, 4)},
        [
            {"a": {"a": half, "b": half}, "b": {"b": Fraction(1)}},
        ],
    )


def test_length_and_alphabet(simple: MarkovSequence) -> None:
    assert len(simple) == 2
    assert simple.alphabet == frozenset("ab")
    assert simple.symbols == ("a", "b")


def test_prob_of_equation_1(simple: MarkovSequence) -> None:
    assert simple.prob_of(("a", "a")) == Fraction(3, 8)
    assert simple.prob_of(("a", "b")) == Fraction(3, 8)
    assert simple.prob_of(("b", "b")) == Fraction(1, 4)
    assert simple.prob_of(("b", "a")) == 0


def test_prob_of_wrong_length(simple: MarkovSequence) -> None:
    with pytest.raises(InvalidMarkovSequenceError):
        simple.prob_of(("a",))


def test_worlds_enumerate_support(simple: MarkovSequence) -> None:
    worlds = dict(simple.worlds())
    assert worlds == {
        ("a", "a"): Fraction(3, 8),
        ("a", "b"): Fraction(3, 8),
        ("b", "b"): Fraction(1, 4),
    }
    assert sum(worlds.values()) == 1


def test_support_size(simple: MarkovSequence) -> None:
    assert simple.support_size() == 3


def test_marginals(simple: MarkovSequence) -> None:
    marginals = simple.marginals()
    assert marginals[0] == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
    assert marginals[1]["b"] == Fraction(3, 8) + Fraction(1, 4)
    assert sum(marginals[1].values()) == 1


def test_successors_predecessors(simple: MarkovSequence) -> None:
    assert dict(simple.successors(1, "b")) == {"b": Fraction(1)}
    assert dict(simple.predecessors(1, "b")) == {
        "a": Fraction(1, 2),
        "b": Fraction(1),
    }
    with pytest.raises(IndexError):
        list(simple.successors(2, "a"))


def test_validation_rows_must_sum_to_one() -> None:
    with pytest.raises(InvalidDistributionError):
        MarkovSequence("ab", {"a": 1}, [{"a": {"a": 0.5}, "b": {"b": 1.0}}])
    with pytest.raises(InvalidMarkovSequenceError):
        MarkovSequence("ab", {"a": 1}, [{"a": {"a": 1.0}}])  # missing row for b
    with pytest.raises(InvalidDistributionError):
        MarkovSequence("ab", {"a": 0.5, "b": 0.6}, [])


def test_validation_unknown_symbols() -> None:
    with pytest.raises(InvalidMarkovSequenceError):
        MarkovSequence("ab", {"z": 1}, [])
    with pytest.raises(InvalidMarkovSequenceError):
        MarkovSequence("ab", {"a": 1}, [{"a": {"z": 1.0}, "b": {"b": 1.0}}])


def test_exact_validation_is_exact() -> None:
    third = Fraction(1, 3)
    MarkovSequence("abc", {"a": third, "b": third, "c": third}, [])
    with pytest.raises(InvalidDistributionError):
        MarkovSequence("ab", {"a": Fraction(1, 3), "b": Fraction(1, 3)}, [])


def _running_sum_verdict(row) -> str | None:
    """The row check as a running sum of the values as they are: the
    accept/reject behaviour (and message) the integer check must keep."""
    total = 0
    exact = True
    for value in row.values():
        if isinstance(value, float):
            exact = False
        if value < 0 or value > 1:
            return f"probability {value!r} outside [0, 1]"
        total = total + value
    if (total != 1) if exact else (abs(total - 1.0) > 1e-9):
        return f"probabilities sum to {total}, not 1"
    return None


_TINY = Fraction(1, 10**30)


@pytest.mark.parametrize(
    "row",
    [
        {"a": Fraction(1, 3), "b": Fraction(2, 3), "c": 0},
        {"a": Fraction(1, 2), "b": Fraction(1, 2) + _TINY, "c": 0},
        {"a": Fraction(1, 2), "b": Fraction(1, 2) - _TINY, "c": 0},
        {"a": Fraction(-1, 2), "b": Fraction(1, 2), "c": 1},
        {"a": Fraction(3, 2), "b": Fraction(-1, 2), "c": 0},
        {"a": 0, "b": 2, "c": -1},
        {"a": 1, "b": 0, "c": 0},
        {"a": 1, "b": 1, "c": 0},
        {"a": 0.1, "b": 0.9 + 5e-10, "c": 0.0},
        {"a": 0.1, "b": 0.9 + 5e-9, "c": 0.0},
        {"a": 0.5, "b": 0.6, "c": -0.1},
        {"a": 0, "b": Fraction(1, 4), "c": 0.75},
        {"a": 1, "b": Fraction(0), "c": 0.0},
        {"a": Fraction(1, 3), "b": 0.5, "c": 1},
        {"a": True, "b": Fraction(0), "c": 0},
        {},
    ],
)
def test_exact_rows_are_checked_on_integer_numerators(row) -> None:
    """Exact rows are summed as numerators over the lcm of their
    denominators; every row is accepted or rejected, with the same
    message, as a running sum of its values would decide."""
    stream = uniform_iid("abc", 1, exact=True)
    transition = {source: row for source in "abc"}
    verdict = _running_sum_verdict(row)
    if verdict is None:
        assert stream.extended(transition).length == 2
    else:
        with pytest.raises(InvalidDistributionError) as caught:
            stream.extended(transition)
        assert str(caught.value) == f"appended transition, source 'a': {verdict}"


def test_sample_stays_in_support(simple: MarkovSequence) -> None:
    rng = random.Random(5)
    support = {w for w, _p in simple.worlds()}
    for _ in range(50):
        assert simple.sample(rng) in support


def test_sample_frequencies_roughly_match() -> None:
    sequence = iid({"a": 0.8, "b": 0.2}, 1)
    rng = random.Random(42)
    draws = [sequence.sample(rng)[0] for _ in range(4000)]
    frequency = draws.count("a") / len(draws)
    assert abs(frequency - 0.8) < 0.03


def test_as_float_and_as_fraction_roundtrip(simple: MarkovSequence) -> None:
    floated = simple.as_float()
    assert isinstance(floated.initial_prob("a"), float)
    back = floated.as_fraction()
    assert back.prob_of(("a", "a")) == Fraction(3, 8)


def test_as_fraction_renormalizes_float_drift() -> None:
    sequence = random_sequence("abc", 4, random.Random(1))
    exact = sequence.as_fraction()
    total = sum(p for _w, p in exact.worlds())
    assert total == 1  # exactly


def test_concat_independent_and_power(simple: MarkovSequence) -> None:
    doubled = simple.power(2)
    assert len(doubled) == 4
    for (w1, p1) in simple.worlds():
        for (w2, p2) in simple.worlds():
            assert doubled.prob_of(w1 + w2) == p1 * p2


def test_concat_requires_same_alphabet(simple: MarkovSequence) -> None:
    other = uniform_iid("abc", 2)
    with pytest.raises(InvalidMarkovSequenceError):
        simple.concat_independent(other)


def test_window_marginal() -> None:
    rng = random.Random(13)
    sequence = random_sequence("ab", 5, rng)
    window = sequence.window(2, 4)
    assert window.length == 3
    # Window probabilities equal summed full-world probabilities.
    for segment, _p in window.worlds():
        expected = sum(
            prob
            for world, prob in sequence.worlds()
            if world[1:4] == segment
        )
        assert math.isclose(float(window.prob_of(segment)), expected, abs_tol=1e-9)


def test_window_validation(simple: MarkovSequence) -> None:
    with pytest.raises(InvalidMarkovSequenceError):
        simple.window(0, 1)
    with pytest.raises(InvalidMarkovSequenceError):
        simple.window(2, 1)
    with pytest.raises(InvalidMarkovSequenceError):
        simple.window(1, 3)


def test_prefix(simple: MarkovSequence) -> None:
    one = simple.prefix(1)
    assert len(one) == 1
    assert one.prob_of(("a",)) == Fraction(3, 4)
    with pytest.raises(InvalidMarkovSequenceError):
        simple.prefix(3)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), length=st.integers(1, 5))
def test_random_sequences_are_distributions(seed: int, length: int) -> None:
    rng = random.Random(seed)
    sequence = random_sequence("abc", length, rng, branching=2)
    total = sum(p for _w, p in sequence.worlds())
    assert math.isclose(total, 1.0, abs_tol=1e-9)
    marginals = sequence.marginals()
    assert all(math.isclose(sum(m.values()), 1.0, abs_tol=1e-9) for m in marginals)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_marginals_match_world_aggregation(seed: int) -> None:
    rng = random.Random(seed)
    sequence = random_sequence("ab", 4, rng)
    marginals = sequence.marginals()
    for position in range(4):
        for symbol in "ab":
            aggregated = sum(
                p for w, p in sequence.worlds() if w[position] == symbol
            )
            assert math.isclose(marginals[position].get(symbol, 0.0), aggregated, abs_tol=1e-9)
