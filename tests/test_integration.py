"""Cross-cutting integration tests: the full class/order/arithmetic matrix.

These exercise the engine the way a downstream user would: random data,
every query class, every compatible enumeration order, float and exact
arithmetic — asserting the mutual-consistency facts that tie the paper's
results together.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from repro.markov.builders import random_sequence
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.transducers.library import collapse_transducer
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.confidence.brute_force import brute_force_answers
from repro.core.engine import evaluate, top_k
from repro.core.results import Order

from tests.conftest import make_random_deterministic_transducer

ALPHABET = "ab"


def queries(rng: random.Random):
    projector = SProjector(
        sigma_star(ALPHABET), regex_to_dfa("a+b?", ALPHABET), sigma_star(ALPHABET)
    )
    return {
        "mealy": collapse_transducer({"a": "X", "b": "Y"}),
        "deterministic": make_random_deterministic_transducer(ALPHABET, 3, rng),
        "sprojector": projector,
        "indexed": IndexedSProjector(
            projector.prefix, projector.pattern, projector.suffix
        ),
    }


def compatible_orders(kind: str) -> list[Order]:
    if kind == "indexed":
        return [Order.UNRANKED, Order.EMAX, Order.CONFIDENCE]
    if kind == "sprojector":
        return [Order.UNRANKED, Order.EMAX, Order.IMAX]
    return [Order.UNRANKED, Order.EMAX]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_orders_agree_on_answers_and_confidences(seed: int) -> None:
    rng = random.Random(seed)
    sequence = random_sequence(ALPHABET, 5, rng)
    for kind, query in queries(rng).items():
        reference = brute_force_answers(sequence, query)
        for order in compatible_orders(kind):
            answers = list(evaluate(sequence, query, order=order))
            produced = {a.output: a.confidence for a in answers}
            assert set(produced) == set(reference), (kind, order)
            for output, confidence in produced.items():
                assert math.isclose(
                    float(confidence), float(reference[output]), abs_tol=1e-9
                ), (kind, order, output)
            # Ranked orders must be monotone in their scores.
            if order is not Order.UNRANKED:
                scores = [a.score for a in answers]
                assert all(
                    scores[i] >= scores[i + 1] - 1e-12
                    for i in range(len(scores) - 1)
                ), (kind, order)


@pytest.mark.parametrize("seed", [3, 4])
def test_topk_prefixes_are_consistent(seed: int) -> None:
    """top_k(k) is a prefix of top_k(k+2) under every default order."""
    rng = random.Random(seed)
    sequence = random_sequence(ALPHABET, 5, rng)
    for kind, query in queries(rng).items():
        small = top_k(sequence, query, 2)
        large = top_k(sequence, query, 4)
        assert [a.output for a in small] == [a.output for a in large][: len(small)], kind


def test_exact_arithmetic_through_the_whole_engine() -> None:
    """Exact rational data in, exact rational confidences out, summing to
    exactly the acceptance probability."""
    rng = random.Random(5)
    sequence = random_sequence(ALPHABET, 5, rng).as_fraction()
    query = collapse_transducer({"a": "X", "b": "Y"})
    answers = list(evaluate(sequence, query, order="emax"))
    total = sum(a.confidence for a in answers)
    assert isinstance(total, Fraction)
    assert total == 1  # non-selective query: every world contributes


def test_float_and_exact_agree_through_engine() -> None:
    rng = random.Random(6)
    float_sequence = random_sequence(ALPHABET, 4, rng)
    exact_sequence = float_sequence.as_fraction()
    query = collapse_transducer({"a": "X", "b": "Y"})
    float_answers = {
        a.output: a.confidence for a in evaluate(float_sequence, query)
    }
    exact_answers = {
        a.output: a.confidence for a in evaluate(exact_sequence, query)
    }
    assert set(float_answers) == set(exact_answers)
    for output in float_answers:
        assert math.isclose(
            float_answers[output], float(exact_answers[output]), abs_tol=1e-6
        )


def test_serialization_roundtrip_through_engine(tmp_path) -> None:
    """Save sequence+query to JSON, load, evaluate: identical results."""
    from repro.io.json_format import read_query, read_sequence, write_query, write_sequence

    rng = random.Random(7)
    sequence = random_sequence(ALPHABET, 4, rng).as_fraction()
    query = collapse_transducer({"a": "X", "b": "Y"})
    write_sequence(sequence, tmp_path / "mu.json")
    write_query(query, tmp_path / "q.json")
    loaded_sequence = read_sequence(tmp_path / "mu.json")
    loaded_query = read_query(tmp_path / "q.json")
    original = {a.output: a.confidence for a in evaluate(sequence, query)}
    reloaded = {
        a.output: a.confidence
        for a in evaluate(loaded_sequence, loaded_query)
    }
    assert original == reloaded


def test_hmm_to_engine_pipeline() -> None:
    """HMM → smoothing → engine: answers are a valid sub-distribution."""
    from repro.markov.hmm import HMM

    hmm = HMM(
        initial={"u": 0.5, "v": 0.5},
        transition={"u": {"u": 0.9, "v": 0.1}, "v": {"u": 0.2, "v": 0.8}},
        emission={"u": {"0": 0.7, "1": 0.3}, "v": {"0": 0.2, "1": 0.8}},
    )
    rng = random.Random(8)
    _hidden, observations = hmm.sample(6, rng)
    mu = hmm.to_markov_sequence(observations)
    query = collapse_transducer({"u": "U", "v": "V"})
    answers = list(evaluate(mu, query, order="emax"))
    total = sum(a.confidence for a in answers)
    assert math.isclose(total, 1.0, abs_tol=1e-9)
    # The E_max top answer's evidence is the Viterbi decode: the most
    # likely hidden path, by brute force over the HMM's joint.
    def joint(path) -> float:
        prob = hmm.initial.get(path[0], 0.0) * hmm.emission[path[0]][observations[0]]
        for previous, state, observed in zip(path, path[1:], observations[1:]):
            prob *= hmm.transition[previous][state] * hmm.emission[state][observed]
        return prob

    viterbi_path = max(itertools.product(hmm.states, repeat=len(observations)), key=joint)
    expected_top = tuple("U" if s == "u" else "V" for s in viterbi_path)
    assert answers[0].output == expected_top
