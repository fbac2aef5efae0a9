"""Lahar-legacy Boolean event queries (per-timestep probability profiles)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from repro.errors import AlphabetMismatchError, ReproError
from repro.markov.builders import uniform_iid
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa, regex_to_nfa
from repro.lahar.monitor import (
    occurrence_profile,
    occurrence_query,
    prefix_acceptance_profile,
    query_pattern,
    unanchored_match_dfa,
)
from repro.runtime.incremental import StreamingEvaluator
from repro.serve.alerts import ThresholdWatch
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

from tests.conftest import make_fraction_timestep, make_sequence


def brute_prefix_profile(sequence, predicate):
    profile = []
    for i in range(1, sequence.length + 1):
        mass = 0
        for world, prob in sequence.worlds():
            if predicate(world[:i]):
                mass += prob
        profile.append(mass)
    return profile


def test_prefix_acceptance_profile_matches_brute() -> None:
    rng = random.Random(12)
    sequence = make_sequence("ab", 5, rng)
    dfa = regex_to_dfa(".*b", "ab")
    profile = prefix_acceptance_profile(sequence, dfa)
    expected = brute_prefix_profile(sequence, dfa.accepts)
    assert len(profile) == 5
    for got, want in zip(profile, expected):
        assert math.isclose(got, want, abs_tol=1e-9)


def test_prefix_profile_exact_fractions() -> None:
    sequence = uniform_iid("ab", 4, exact=True)
    dfa = regex_to_dfa("a.*", "ab")  # starts with a
    profile = prefix_acceptance_profile(sequence, dfa)
    assert profile == [Fraction(1, 2)] * 4


def test_unanchored_match_dfa_language() -> None:
    pattern = regex_to_nfa("ab", "ab")
    dfa = unanchored_match_dfa(pattern)
    assert dfa.accepts("ab")
    assert dfa.accepts("bab")
    assert dfa.accepts("aab")
    assert not dfa.accepts("aba")  # must END with the match
    assert not dfa.accepts("a")
    assert not dfa.accepts("")


def test_unanchored_epsilon_pattern_matches_everywhere() -> None:
    pattern = regex_to_nfa("", "ab")
    dfa = unanchored_match_dfa(pattern)
    assert dfa.accepts("")
    assert dfa.accepts("ab")


def test_occurrence_profile_matches_brute() -> None:
    rng = random.Random(21)
    sequence = make_sequence("ab", 5, rng)
    pattern = regex_to_nfa("ab", "ab")

    def fires(prefix) -> bool:
        text = "".join(prefix)
        return text.endswith("ab")

    profile = occurrence_profile(sequence, pattern)
    expected = brute_prefix_profile(sequence, fires)
    for got, want in zip(profile, expected):
        assert math.isclose(got, want, abs_tol=1e-9)


def test_monotone_event_profile_is_monotone() -> None:
    """'Seen a b so far' can only become more likely over time."""
    rng = random.Random(33)
    sequence = make_sequence("ab", 6, rng)
    seen_b = regex_to_dfa(".*b.*", "ab")
    profile = prefix_acceptance_profile(sequence, seen_b)
    assert all(profile[i] <= profile[i + 1] + 1e-12 for i in range(len(profile) - 1))


def test_alphabet_mismatch() -> None:
    sequence = uniform_iid("ab", 2)
    with pytest.raises(AlphabetMismatchError):
        prefix_acceptance_profile(sequence, regex_to_dfa("a", "abc"))


# ---------------------------------------------------------------------------
# Monitor watches: a StreamingEvaluator over the occurrence accept filter
# ---------------------------------------------------------------------------


def test_streaming_monitor_tracks_occurrence_profile_exactly(rng) -> None:
    """Each appended timestep lands bit-identically on the from-scratch
    profile of the grown sequence (exact Fraction arithmetic), whichever
    query form the watch takes its pattern from: an s-projector's pattern
    component or a transducer's automaton."""
    from tests.conftest import make_fraction_sequence

    alphabet = sigma_star("ab")
    for query in (
        SProjector(alphabet, regex_to_dfa("ab", "ab"), alphabet),
        accept_filter(regex_to_dfa("ab", "ab")),
    ):
        sequence = make_fraction_sequence("ab", 3, rng)
        pattern = query_pattern(query)
        evaluator = StreamingEvaluator(occurrence_query(query), sequence)
        assert evaluator.confidences().get((), 0) == occurrence_profile(sequence, pattern)[-1]
        for _ in range(4):
            transition = make_fraction_timestep("ab", rng)
            sequence = sequence.extended(transition)
            value = evaluator.append(transition).get((), 0)
            assert evaluator.length == sequence.length
            assert value == occurrence_profile(sequence, pattern)[-1]


def test_streaming_monitor_prefix_acceptance(rng) -> None:
    sequence = uniform_iid("ab", 2, exact=True)
    dfa = regex_to_dfa("a.*", "ab")  # starts with a
    evaluator = StreamingEvaluator(accept_filter(dfa), sequence)
    assert evaluator.confidences() == {(): Fraction(1, 2)}
    grown = sequence
    for _ in range(3):
        transition = make_fraction_timestep("ab", random.Random(7))
        grown = grown.extended(transition)
        evaluator.append(transition)
    assert evaluator.confidences()[()] == prefix_acceptance_profile(grown, dfa)[-1]


def test_streaming_monitor_checks_alphabet() -> None:
    query = accept_filter(regex_to_dfa("a", "abc"))
    with pytest.raises(AlphabetMismatchError):
        StreamingEvaluator(occurrence_query(query), uniform_iid("ab", 2))


def test_occurrence_query_needs_a_transducer_or_sprojector() -> None:
    with pytest.raises(ReproError, match="transducer or s-projector"):
        occurrence_query(regex_to_dfa("ab", "ab"))


# ---------------------------------------------------------------------------
# ThresholdWatch: fire once per upward crossing, hysteresis on re-arm
# ---------------------------------------------------------------------------


def test_threshold_fires_exactly_once_per_upward_crossing() -> None:
    watch = ThresholdWatch(Fraction(1, 2))
    fired = [watch.observe(v) for v in (
        Fraction(1, 4),   # below: armed, no fire
        Fraction(1, 2),   # crossing: fires
        Fraction(3, 4),   # still above: no second fire
        Fraction(1, 4),   # drops below: re-arms silently
        Fraction(2, 3),   # second crossing: fires again
    )]
    assert fired == [False, True, False, False, True]


def test_threshold_hysteresis_band_suppresses_jitter() -> None:
    watch = ThresholdWatch(Fraction(1, 2), rearm=Fraction(1, 4))
    assert watch.observe(Fraction(1, 2)) is True
    # jitter between rearm and threshold: disarmed the whole time
    assert watch.observe(Fraction(2, 5)) is False
    assert watch.observe(Fraction(3, 5)) is False
    assert watch.observe(Fraction(2, 5)) is False
    # only a dip below the re-arm level re-arms...
    assert watch.observe(Fraction(1, 5)) is False
    # ...so the next crossing fires again
    assert watch.observe(Fraction(1, 2)) is True


def test_threshold_registration_at_or_above_starts_disarmed() -> None:
    watch = ThresholdWatch(Fraction(1, 2), initial=Fraction(3, 4))
    assert not watch.armed  # registration alone never fires
    assert watch.observe(Fraction(3, 4)) is False
    assert watch.observe(Fraction(1, 4)) is False  # re-arms
    assert watch.observe(Fraction(1, 2)) is True


def test_threshold_rearm_above_threshold_rejected() -> None:
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="re-arm"):
        ThresholdWatch(Fraction(1, 2), rearm=Fraction(3, 4))


def test_float_levels_compare_with_exact_values_as_python_does() -> None:
    # 0.9 is a binary double a little above 9/10: Python compares an exact
    # value with it exactly, so 9/10 stays below the threshold.
    watch = ThresholdWatch(0.9, rearm=0.5)
    above = Fraction.from_float(0.9)
    values = (Fraction(9, 10), above, Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**30), 0.9)
    # 1/2 sits on the re-arm level, so only the value below it re-arms.
    assert [watch.observe(v) for v in values] == [False, True, False, False, True]
    assert (watch.threshold, watch.rearm) == (0.9, 0.5)
    assert type(watch.threshold) is float and type(watch.rearm) is float
