"""The Lahar-style Markov-stream database."""

from __future__ import annotations

import random

import pytest

from repro.errors import ReproError
from repro.markov.builders import hospital_model
from repro.examples_data.hospital import hospital_sequence, room_change_transducer
from repro.lahar.database import MarkovStreamDatabase
from repro.core.results import Order
from repro.runtime.executor import plan_confidence, run_evaluate
from repro.runtime.plan import QueryPlan
from repro.transducers.library import collapse_transducer

from tests.conftest import make_fraction_sequence


@pytest.fixture
def db() -> MarkovStreamDatabase:
    database = MarkovStreamDatabase()
    database.register_stream("cart-17", hospital_sequence())
    rng = random.Random(4)
    database.register_stream("cart-23", hospital_model(2, 5, rng))
    database.register_query("rooms", room_change_transducer())
    return database


def test_catalog(db: MarkovStreamDatabase) -> None:
    assert db.streams() == ["cart-17", "cart-23"]
    assert db.queries() == ["rooms"]
    assert db.stream("cart-17").length == 5


def test_unknown_names_raise(db: MarkovStreamDatabase) -> None:
    with pytest.raises(ReproError):
        db.stream("nope")
    with pytest.raises(ReproError):
        db.drop_stream("nope")
    with pytest.raises(ReproError):
        list(db.query("cart-17", "unknown-query"))
    with pytest.raises(ReproError):
        db.register_stream("", hospital_sequence())


def test_drop_stream(db: MarkovStreamDatabase) -> None:
    db.drop_stream("cart-23")
    assert db.streams() == ["cart-17"]


def test_query_by_name_and_by_object(db: MarkovStreamDatabase) -> None:
    by_name = {a.output for a in db.query("cart-17", "rooms")}
    by_object = {a.output for a in db.query("cart-17", room_change_transducer())}
    assert by_name == by_object
    assert ("1", "2") in by_name


def test_query_with_order_and_limit(db: MarkovStreamDatabase) -> None:
    ranked = list(db.query("cart-17", "rooms", order=Order.EMAX, limit=2))
    assert len(ranked) == 2
    assert ranked[0].output == ("1", "2")


def test_top_k(db: MarkovStreamDatabase) -> None:
    answers = db.top_k("cart-17", "rooms", 3)
    assert len(answers) == 3
    assert answers[0].output == ("1", "2")


def test_top_k_across_streams(db: MarkovStreamDatabase) -> None:
    merged = db.top_k_across("rooms", 4)
    assert len(merged) == 4
    scores = [item.answer.score for item in merged]
    assert scores == sorted(scores, reverse=True)
    assert {item.stream for item in merged} <= {"cart-17", "cart-23"}


def test_top_k_across_subset(db: MarkovStreamDatabase) -> None:
    merged = db.top_k_across("rooms", 2, streams=["cart-17"])
    assert all(item.stream == "cart-17" for item in merged)


def test_database_batch_confidence() -> None:
    db = MarkovStreamDatabase()
    rng = random.Random(5)
    corpus = {f"s{i:02d}": make_fraction_sequence("ab", 3, rng) for i in range(4)}
    for name, sequence in corpus.items():
        db.register_stream(name, sequence)
    query = collapse_transducer({"a": "X", "b": "Y"})
    plan = QueryPlan.build(query)
    output = next(iter(run_evaluate(plan, corpus["s00"]))).output
    # Exact streams take the per-stream path and stay exact.
    assert db.batch_confidence(query, output) == {
        name: plan_confidence(plan, sequence, output) for name, sequence in corpus.items()
    }
