"""HMMs and the HMM → Markov-sequence translation (experiment X1)."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import evaluate
from repro.errors import InvalidDistributionError, InvalidMarkovSequenceError
from repro.markov.hmm import HMM
from repro.transducers.library import identity_mealy


def make_weather_hmm() -> HMM:
    return HMM(
        initial={"H": 0.6, "C": 0.4},
        transition={"H": {"H": 0.7, "C": 0.3}, "C": {"H": 0.4, "C": 0.6}},
        emission={
            "H": {"1": 0.1, "2": 0.4, "3": 0.5},
            "C": {"1": 0.5, "2": 0.4, "3": 0.1},
        },
    )


def make_random_hmm(rng: random.Random, num_states: int = 3, num_obs: int = 2) -> HMM:
    states = [f"s{i}" for i in range(num_states)]
    observations = [f"o{i}" for i in range(num_obs)]

    def row(keys):
        weights = [rng.random() + 0.05 for _ in keys]
        total = sum(weights)
        values = {k: w / total for k, w in zip(keys, weights)}
        top = max(values, key=values.get)
        values[top] += 1.0 - sum(values.values())
        return values

    return HMM(
        initial=row(states),
        transition={s: row(states) for s in states},
        emission={s: row(observations) for s in states},
    )


def brute_joint(hmm: HMM, hidden, observations) -> float:
    prob = hmm.initial.get(hidden[0], 0.0) * hmm.emission[hidden[0]].get(
        observations[0], 0.0
    )
    for i in range(1, len(observations)):
        prob *= hmm.transition[hidden[i - 1]].get(hidden[i], 0.0)
        prob *= hmm.emission[hidden[i]].get(observations[i], 0.0)
    return prob


def test_posterior_marginals_match_brute() -> None:
    """Smoothing is ``mu.marginals()`` of the translated chain."""
    hmm = make_weather_hmm()
    obs = ("3", "1", "3")
    marginals = hmm.to_markov_sequence(obs).marginals()
    total = sum(
        brute_joint(hmm, hidden, obs)
        for hidden in itertools.product(hmm.states, repeat=3)
    )
    for position in range(3):
        for state in hmm.states:
            brute = (
                sum(
                    brute_joint(hmm, hidden, obs)
                    for hidden in itertools.product(hmm.states, repeat=3)
                    if hidden[position] == state
                )
                / total
            )
            assert math.isclose(marginals[position].get(state, 0.0), brute, abs_tol=1e-9)


def test_viterbi_matches_brute() -> None:
    """The Viterbi decode is the E_max top answer of the identity
    transducer on the translated chain, and its score is the path's
    posterior probability."""
    hmm = make_weather_hmm()
    obs = ("3", "1", "3", "2")
    mu = hmm.to_markov_sequence(obs)
    [top] = evaluate(mu, identity_mealy(hmm.states), order="emax", limit=1)
    hidden = list(itertools.product(hmm.states, repeat=len(obs)))
    best = max(hidden, key=lambda path: brute_joint(hmm, path, obs))
    total = sum(brute_joint(hmm, path, obs) for path in hidden)
    assert top.output == best
    assert math.isclose(top.score, brute_joint(hmm, best, obs) / total)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), length=st.integers(1, 4))
def test_translation_reproduces_posterior(seed: int, length: int) -> None:
    """The core claim of experiment X1: mu.prob_of(h) == Pr(h | obs)."""
    rng = random.Random(seed)
    hmm = make_random_hmm(rng)
    _hidden, obs = hmm.sample(length, rng)
    mu = hmm.to_markov_sequence(obs)
    total = sum(
        brute_joint(hmm, hidden, obs)
        for hidden in itertools.product(hmm.states, repeat=length)
    )
    assert total > 0
    for hidden in itertools.product(hmm.states, repeat=length):
        posterior = brute_joint(hmm, hidden, obs) / total
        assert math.isclose(mu.prob_of(hidden), posterior, abs_tol=1e-9)


def test_translation_is_a_valid_markov_sequence() -> None:
    hmm = make_weather_hmm()
    mu = hmm.to_markov_sequence(("1", "3", "2", "2"))
    assert math.isclose(sum(p for _w, p in mu.worlds()), 1.0, abs_tol=1e-9)


def test_zero_likelihood_observation_rejected() -> None:
    hmm = HMM(
        initial={"s": 1.0},
        transition={"s": {"s": 1.0}},
        emission={"s": {"x": 1.0, "y": 0.0}},
    )
    for obs in (("y",), ("x", "y"), ("x", "y", "x")):
        with pytest.raises(InvalidMarkovSequenceError, match="zero likelihood"):
            hmm.to_markov_sequence(obs)


def test_empty_observations_rejected() -> None:
    hmm = make_weather_hmm()
    with pytest.raises(InvalidMarkovSequenceError, match="at least one"):
        hmm.to_markov_sequence(())


def test_invalid_rows_rejected() -> None:
    with pytest.raises(InvalidDistributionError):
        HMM(
            initial={"s": 0.5},
            transition={"s": {"s": 1.0}},
            emission={"s": {"x": 1.0}},
        )
    with pytest.raises(InvalidDistributionError):
        HMM(
            initial={"s": 1.0},
            transition={"s": {"s": 0.7}},
            emission={"s": {"x": 1.0}},
        )
    with pytest.raises(InvalidDistributionError):
        HMM(
            initial={"s": 1.0},
            transition={"s": {"s": 1.0}},
            emission={},
        )


def test_sample_shapes() -> None:
    hmm = make_weather_hmm()
    rng = random.Random(7)
    hidden, observed = hmm.sample(5, rng)
    assert len(hidden) == len(observed) == 5
    assert set(hidden) <= set(hmm.states)
    assert set(observed) <= set(hmm.observations)
