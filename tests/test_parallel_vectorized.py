"""The batched dense DP: one numpy contraction per step, many streams.

Cross-checks :func:`confidence_dense_batch` against its own single-stream
(``B = 1``) runs and the exact sparse DP stream-by-stream, pins the
``B = 1`` scalar case on its own, and exercises the eligibility gate
through which :func:`repro.runtime.executor.batch_confidence` keeps the
float-only fast path away from exact corpora.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.nfa import NFA
from repro.confidence.brute_force import brute_force_answers
from repro.errors import InvalidTransducerError, ReproError
from repro.confidence.deterministic import confidence_deterministic
from repro.examples_data.hospital import room_change_transducer
from repro.markov.builders import uniform_iid
from repro.runtime import executor
from repro.runtime.executor import batch_confidence, run_evaluate
from repro.runtime.plan import QueryPlan
from repro.transducers.library import collapse_transducer, identity_mealy
from repro.transducers.transducer import Transducer
from repro.vectorized import confidence_dense_batch, dense_batch_eligible

from tests.conftest import make_fraction_sequence, make_random_dfa, make_sequence

ALPHABET = "ab"


def _query():
    return collapse_transducer({"a": "X", "b": "Y"})


def float_corpus(count: int, length: int = 4, seed: int = 7) -> dict:
    rng = random.Random(seed)
    return {
        f"f{i:02d}": make_sequence(ALPHABET, length, rng) for i in range(count)
    }


def some_output(corpus) -> tuple:
    plan = QueryPlan.build(_query())
    return next(iter(run_evaluate(plan, next(iter(corpus.values()))))).output


def test_batch_matches_scalar_dense_and_exact() -> None:
    corpus = float_corpus(16)
    query = _query()
    output = some_output(corpus)
    streams = list(corpus.values())
    batched = confidence_dense_batch(streams, query, output)
    assert len(batched) == 16
    for sequence, value in zip(streams, batched):
        (scalar,) = confidence_dense_batch([sequence], query, output)
        exact = confidence_deterministic(sequence, query, output)
        assert value == pytest.approx(scalar, abs=1e-12)
        assert value == pytest.approx(float(exact), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# B = 1: the scalar dense DP
# ---------------------------------------------------------------------------


def _uniform_deterministic(rng: random.Random, k: int) -> Transducer:
    dfa = make_random_dfa("ab", 3, rng)
    omega = {
        (state, symbol, target): tuple(rng.choice("xy") for _ in range(k))
        for state, symbol, target in dfa.transitions()
    }
    return Transducer.from_dfa(dfa, omega)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 2))
def test_single_stream_matches_exact_dp(seed: int, k: int) -> None:
    rng = random.Random(seed)
    sequence = make_sequence("ab", 4, rng)
    transducer = _uniform_deterministic(rng, k)
    for output in brute_force_answers(sequence, transducer):
        exact = confidence_deterministic(sequence, transducer, output)
        (value,) = confidence_dense_batch([sequence], transducer, output)
        assert math.isclose(value, exact, abs_tol=1e-9), output


def test_single_stream_zero_for_wrong_length() -> None:
    sequence = uniform_iid("ab", 3)
    assert confidence_dense_batch([sequence], _query(), ("X",)) == [0.0]


def test_single_stream_identity_world_probability() -> None:
    rng = random.Random(8)
    sequence = make_sequence("ab", 5, rng)
    world = sequence.sample(rng)
    (value,) = confidence_dense_batch([sequence], identity_mealy("ab"), world)
    assert math.isclose(value, sequence.prob_of(world), abs_tol=1e-12)


def test_single_stream_rejects_nondeterministic_and_non_uniform() -> None:
    sequence = uniform_iid("a", 2)
    nondeterministic = Transducer(NFA("a", {0, 1}, 0, {0, 1}, {(0, "a"): {0, 1}}), {})
    with pytest.raises(InvalidTransducerError):
        confidence_dense_batch([sequence], nondeterministic, ())
    mixed = Transducer(
        NFA("ab", {0}, 0, {0}, {(0, "a"): {0}, (0, "b"): {0}}),
        {(0, "a", 0): ("x", "y"), (0, "b", 0): ("x",)},
    )
    with pytest.raises(InvalidTransducerError):
        confidence_dense_batch([uniform_iid("ab", 2)], mixed, ("x", "y"))
    # A 2-uniform machine is fine.
    two_uniform = Transducer(
        NFA("a", {0}, 0, {0}, {(0, "a"): {0}}), {(0, "a", 0): ("x", "y")}
    )
    assert confidence_dense_batch([sequence], two_uniform, ("x", "y") * 2) == [1.0]


def test_named_wrapper_preserves_corpus_keys() -> None:
    corpus = float_corpus(5)
    output = some_output(corpus)
    named = batch_confidence(QueryPlan.build(_query()), corpus, output)
    assert list(named) == list(corpus)
    assert list(named.values()) == confidence_dense_batch(
        list(corpus.values()), _query(), output
    )


def test_wrong_length_output_is_all_zeros() -> None:
    corpus = float_corpus(3, length=4)
    # A 1-uniform transducer on length-4 streams emits exactly 4 symbols.
    assert confidence_dense_batch(list(corpus.values()), _query(), ("X",)) == [
        0.0,
        0.0,
        0.0,
    ]


def test_empty_batch_and_mismatched_lengths_raise() -> None:
    with pytest.raises(ReproError):
        confidence_dense_batch([], _query(), ("X",))
    rng = random.Random(3)
    uneven = [make_sequence(ALPHABET, 3, rng), make_sequence(ALPHABET, 4, rng)]
    with pytest.raises(ReproError):
        confidence_dense_batch(uneven, _query(), ("X", "X", "X"))


def test_nondeterministic_transducer_rejected() -> None:
    nfa = NFA(
        ALPHABET,
        ["p", "q"],
        "p",
        {"p", "q"},
        {("p", "a"): {"p", "q"}, ("p", "b"): {"p"}, ("q", "a"): {"q"}},
    )
    query = Transducer(nfa, {m: ("x",) for m in nfa.transitions()})
    corpus = float_corpus(2, length=2)
    with pytest.raises(InvalidTransducerError):
        confidence_dense_batch(list(corpus.values()), query, ("x", "x"))


def test_eligibility_gate() -> None:
    plan = QueryPlan.build(_query())
    floats = list(float_corpus(4).values())
    assert dense_batch_eligible(plan, floats)
    # Exact Fraction streams: refused unless the caller opts out.
    rng = random.Random(5)
    exact = [make_fraction_sequence(ALPHABET, 4, rng) for _ in range(3)]
    assert not dense_batch_eligible(plan, exact)
    assert dense_batch_eligible(plan, exact, require_float=False)
    # Unequal lengths / empty corpus.
    assert not dense_batch_eligible(plan, floats + [make_sequence(ALPHABET, 2, rng)])
    assert not dense_batch_eligible(plan, [])
    # Deterministic but not uniform: emission lengths vary.
    hospital_plan = QueryPlan.build(room_change_transducer())
    assert hospital_plan.uniformity is None
    assert not dense_batch_eligible(hospital_plan, floats)


def count_dense_batches(monkeypatch) -> list:
    """Record every vectorized DP ``batch_confidence`` runs."""
    calls: list = []

    def counted(sequences, transducer, output):
        calls.append(len(sequences))
        return confidence_dense_batch(sequences, transducer, output)

    monkeypatch.setattr(executor, "confidence_dense_batch", counted)
    return calls


def test_batch_confidence_auto_uses_vectorized_path(monkeypatch) -> None:
    corpus = float_corpus(8)
    output = some_output(corpus)
    calls = count_dense_batches(monkeypatch)
    values = batch_confidence(QueryPlan.build(_query()), corpus, output)
    assert calls == [8]  # one batched DP for the whole corpus
    assert list(values) == list(corpus)
    for name, sequence in corpus.items():
        assert values[name] == pytest.approx(
            confidence_dense_batch([sequence], _query(), output)[0], abs=1e-12
        )


def test_batch_confidence_exact_corpus_stays_exact(monkeypatch) -> None:
    rng = random.Random(21)
    corpus = {f"e{i}": make_fraction_sequence(ALPHABET, 3, rng) for i in range(4)}
    output = some_output(corpus)
    calls = count_dense_batches(monkeypatch)
    values = batch_confidence(QueryPlan.build(_query()), corpus, output)
    assert calls == []  # exact corpus: the gate refuses the float path
    for name, sequence in corpus.items():
        expected = confidence_deterministic(sequence, _query(), output)
        assert values[name] == expected  # Fraction == Fraction, bit-exact
