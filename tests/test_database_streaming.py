"""MarkovStreamDatabase: appends, plan caching, and the top-k fixes."""

from __future__ import annotations

import random

import pytest

from repro.errors import ReproError
from repro.automata.nfa import NFA
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.core.engine import evaluate, top_k
from repro.lahar.database import MarkovStreamDatabase
from repro.runtime.cache import PlanCache
from repro.transducers.library import collapse_transducer
from repro.transducers.sprojector import IndexedSProjector
from repro.transducers.transducer import Transducer

from tests.conftest import (
    make_fraction_sequence,
    make_fraction_timestep,
    make_sequence,
)

ALPHABET = "ab"


def collapse():
    return collapse_transducer({"a": "X", "b": "Y"})


def general_transducer() -> Transducer:
    nfa = NFA(
        ALPHABET,
        ["p", "q"],
        "p",
        {"p", "q"},
        {("p", "a"): {"p", "q"}, ("p", "b"): {"p"}, ("q", "a"): {"q"}, ("q", "b"): {"q"}},
    )
    omega = {move: ("x",) for move in nfa.transitions()}
    omega[("p", "a", "q")] = ()
    return Transducer(nfa, omega)


def answers_of(iterator):
    return [(a.output, a.confidence) for a in iterator]


def make_db(rng, length: int = 3) -> MarkovStreamDatabase:
    db = MarkovStreamDatabase()
    db.register_stream("tag", make_fraction_sequence(ALPHABET, length, rng))
    return db


def test_append_grows_stream_and_matches_scratch(rng) -> None:
    db = make_db(rng)
    query = collapse()
    before = answers_of(db.query("tag", query))  # attaches the evaluator
    assert before == answers_of(evaluate(db.stream("tag"), query))
    for _ in range(3):
        grown = db.append("tag", make_fraction_timestep(ALPHABET, rng))
        assert db.stream("tag").length == grown.length
        assert answers_of(db.query("tag", query)) == answers_of(
            evaluate(db.stream("tag"), query)
        )


def test_warm_reads_reuse_evaluator_and_plan(rng) -> None:
    db = make_db(rng)
    query = collapse()
    first = answers_of(db.query("tag", query))
    evaluator = db.streaming_evaluator("tag", query)
    assert answers_of(db.query("tag", collapse())) == first
    # Same live evaluator, same cached plan, across separately built queries.
    assert db.streaming_evaluator("tag", collapse()) is evaluator
    assert db.plan(collapse()) is evaluator.plan
    assert db.plan_cache.hits > 0


def test_streaming_evaluator_opt_in_for_nondeterministic(rng) -> None:
    db = make_db(rng)
    query = general_transducer()
    assert not db.plan(query).supports_streaming()
    evaluator = db.streaming_evaluator("tag", query)  # explicit opt-in works
    db.append("tag", make_fraction_timestep(ALPHABET, rng))
    assert evaluator.confidences() == {
        a.output: a.confidence
        for a in evaluate(db.stream("tag"), query, allow_exponential=True)
    }


def test_register_stream_replacement_resets_evaluators(rng) -> None:
    db = make_db(rng)
    query = collapse()
    db.query("tag", query)
    replacement = make_fraction_sequence(ALPHABET, 4, rng)
    db.register_stream("tag", replacement)
    assert answers_of(db.query("tag", query)) == answers_of(
        evaluate(replacement, query)
    )


def test_drop_stream_detaches_evaluators(rng) -> None:
    db = make_db(rng)
    db.query("tag", collapse())
    db.drop_stream("tag")
    with pytest.raises(ReproError):
        db.append("tag", make_fraction_timestep(ALPHABET, rng))


def test_append_rejects_invalid_timestep_atomically(rng) -> None:
    """A malformed timestep must not mutate the stream OR the attached
    evaluators — validation happens before anything moves."""
    db = make_db(rng)
    query = collapse()
    before_answers = answers_of(db.query("tag", query))  # attaches evaluator
    before_length = db.stream("tag").length
    bad = make_fraction_timestep(ALPHABET, rng)
    bad["a"] = {symbol: p / 2 for symbol, p in bad["a"].items()}  # sums to 1/2
    with pytest.raises(ReproError):
        db.append("tag", bad)
    assert db.stream("tag").length == before_length
    assert answers_of(db.query("tag", query)) == before_answers
    # and the database is not wedged: a good append still lands warm
    db.append("tag", make_fraction_timestep(ALPHABET, rng))
    assert answers_of(db.query("tag", query)) == answers_of(
        evaluate(db.stream("tag"), query)
    )


def test_append_rolls_back_all_evaluators_when_one_fails(rng) -> None:
    """If advancing evaluator N fails, evaluators 1..N-1 are rolled back:
    no evaluator can end up one layer ahead of its stream."""
    db = make_db(rng)
    healthy = db.streaming_evaluator("tag", collapse())
    poisoned = db.streaming_evaluator("tag", general_transducer())
    db.query("tag", collapse())
    before = healthy.confidences()
    before_length = db.stream("tag").length

    # Fail inside the DP layer push, under whichever public method the
    # database advances its evaluators with.
    boom = RuntimeError("evaluator meltdown")
    original = poisoned._advance
    poisoned._advance = lambda *_args: (_ for _ in ()).throw(boom)
    with pytest.raises(RuntimeError, match="meltdown"):
        db.append("tag", make_fraction_timestep(ALPHABET, rng))
    poisoned._advance = original

    # nothing moved: stream, healthy evaluator, poisoned evaluator
    assert db.stream("tag").length == before_length
    assert healthy.length == before_length
    assert poisoned.length == before_length
    assert healthy.confidences() == before
    # and the next good append advances everyone in lockstep
    db.append("tag", make_fraction_timestep(ALPHABET, rng))
    assert healthy.length == db.stream("tag").length
    assert poisoned.length == db.stream("tag").length
    assert healthy.confidences() == {
        a.output: a.confidence for a in evaluate(db.stream("tag"), collapse())
    }


def test_query_min_confidence_passes_through(rng) -> None:
    db = make_db(rng)
    query = collapse()
    full = answers_of(db.query("tag", query))
    theta = sorted(confidence for _, confidence in full)[len(full) // 2]
    got = answers_of(db.query("tag", query, min_confidence=theta))
    assert got == [(o, c) for o, c in full if c >= theta]


def test_top_k_plumbs_allow_exponential(rng) -> None:
    """The stream-level top_k used to drop allow_exponential on the floor,
    so oracle-backed orders were unreachable through the database."""
    db = make_db(rng)
    query = collapse()
    with pytest.raises(ReproError, match="allow_exponential"):
        db.top_k("tag", query, 3, order="confidence")
    got = db.top_k("tag", query, 3, order="confidence", allow_exponential=True)
    want = evaluate(
        db.stream("tag"), query, order="confidence", limit=3, allow_exponential=True
    )
    assert answers_of(got) == answers_of(want)


def test_top_k_matches_engine_default_order(rng) -> None:
    db = make_db(rng)
    query = collapse()
    assert answers_of(db.top_k("tag", query, 3)) == answers_of(
        top_k(db.stream("tag"), query, 3)
    )


def test_top_k_across_unranked_is_deterministic() -> None:
    rng = random.Random(29)
    db = MarkovStreamDatabase()
    for name in ("s2", "s1"):
        db.register_stream(name, make_sequence(ALPHABET, 3, rng))
    merged = db.top_k_across(collapse(), 100, order="unranked")
    assert merged and all(sa.answer.score is None for sa in merged)
    keys = [(sa.stream, sa.answer.rendered()) for sa in merged]
    assert keys == sorted(keys)


def test_top_k_across_ranked_merge(rng) -> None:
    db = MarkovStreamDatabase()
    sequences = {name: make_fraction_sequence(ALPHABET, 3, rng) for name in ("s1", "s2")}
    for name, sequence in sequences.items():
        db.register_stream(name, sequence)
    merged = db.top_k_across(collapse(), 3, order="emax")
    scores = [sa.answer.score for sa in merged]
    assert len(merged) == 3
    assert scores == sorted(scores, reverse=True)
    best = max(
        answer.score
        for sequence in sequences.values()
        for answer in top_k(sequence, collapse(), 1)
    )
    assert merged[0].answer.score == best


def test_shared_plan_cache_across_databases(rng) -> None:
    cache = PlanCache()
    first = MarkovStreamDatabase(plan_cache=cache)
    second = MarkovStreamDatabase(plan_cache=cache)
    assert first.plan(collapse()) is second.plan(collapse())
    assert cache.misses == 1


def test_indexed_query_streams_through_database(rng) -> None:
    db = make_db(rng)
    query = IndexedSProjector(
        sigma_star(ALPHABET), regex_to_dfa("a", ALPHABET), sigma_star(ALPHABET)
    )
    db.query("tag", query)
    db.append("tag", make_fraction_timestep(ALPHABET, rng))
    assert answers_of(db.query("tag", query)) == answers_of(
        evaluate(db.stream("tag"), query)
    )
