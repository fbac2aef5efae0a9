"""Stable stream sharding and cross-shard reads (sharded == flat)."""

from __future__ import annotations

import pytest

from repro.automata.nfa import NFA
from repro.errors import ReproError
from repro.lahar.database import MarkovStreamDatabase
from repro.serve.sharding import ShardedDatabase, shard_of
from repro.store import Store
from repro.transducers.library import collapse_transducer
from repro.transducers.transducer import Transducer

from tests.conftest import make_fraction_sequence, make_fraction_timestep

ALPHABET = "ab"


def collapse():
    return collapse_transducer({"a": "X", "b": "Y"})


def populated(rng, shards: int = 3, streams: int = 6) -> ShardedDatabase:
    db = ShardedDatabase(shards)
    for i in range(streams):
        db.register_stream(f"s{i}", make_fraction_sequence(ALPHABET, 3, rng))
    return db


def test_shard_of_is_stable_and_validated() -> None:
    # blake2b routing: same input, same shard, every process, every run
    assert shard_of("cart-17", 4) == shard_of("cart-17", 4)
    assert 0 <= shard_of("cart-17", 4) < 4
    assert shard_of("anything", 1) == 0
    with pytest.raises(ReproError):
        shard_of("x", 0)


def test_streams_route_to_their_shard(rng) -> None:
    db = populated(rng)
    for name in db.streams():
        index = db.shard_index(name)
        assert name in db.shard(index).streams()
        assert db.has_stream(name)
    assert sum(len(db.shard(i).streams()) for i in range(3)) == 6
    db.drop_stream("s0")
    assert not db.has_stream("s0")
    with pytest.raises(ReproError, match="unknown stream"):
        db.stream("s0")


def test_append_lands_on_owning_shard_only(rng) -> None:
    db = populated(rng)
    before = {name: db.stream(name).length for name in db.streams()}
    grown = db.append("s1", make_fraction_timestep(ALPHABET, rng))
    assert grown.length == before["s1"] + 1
    for name, length in before.items():
        if name != "s1":
            assert db.stream(name).length == length


def test_query_catalog_is_service_wide(rng) -> None:
    db = populated(rng)
    db.register_query("c", collapse())
    assert db.queries() == ["c"]
    assert db.resolve_query("c") is db.resolve_query("c")
    with pytest.raises(ReproError, match="unknown query"):
        db.resolve_query("nope")
    with pytest.raises(ReproError, match="non-empty"):
        db.register_query("", collapse())


def test_shards_share_one_plan_cache(rng) -> None:
    db = populated(rng)
    for name in db.streams():
        list(db.query(name, collapse()))
    assert db.plan_cache.misses == 1  # one shape, planned once, all shards


def test_top_k_across_sharded_matches_flat(rng) -> None:
    db = populated(rng)
    flat = MarkovStreamDatabase()
    for name in db.streams():
        flat.register_stream(name, db.stream(name))
    want = [
        (sa.stream, sa.answer.output, sa.answer.score)
        for sa in flat.top_k_across(collapse(), 5, order="emax")
    ]
    sharded = [
        (sa.stream, sa.answer.output, sa.answer.score)
        for sa in db.top_k_across(collapse(), 5, order="emax")
    ]
    assert sharded == want


def test_batch_confidence_sharded_matches_flat(rng) -> None:
    db = populated(rng, streams=4)
    flat = MarkovStreamDatabase()
    for name in db.streams():
        flat.register_stream(name, db.stream(name))
    output = ("X",) * db.stream("s0").length
    sharded = db.batch_confidence(collapse(), output)
    assert sharded == flat.batch_confidence(collapse(), output)
    assert set(sharded) == set(db.streams())


def test_stats_reports_occupancy(rng) -> None:
    db = populated(rng)
    db.register_query("c", collapse())
    stats = db.stats()
    assert stats["shards"] == 3
    assert stats["streams"] == 6
    assert sum(stats["streams_per_shard"]) == 6
    assert stats["queries"] == 1
    assert "plans" not in stats["plan_cache"]
    with pytest.raises(ReproError):
        ShardedDatabase(0)


def test_durable_reads_plan_the_serialized_form_whichever_runs_first(
    rng, tmp_path
) -> None:
    # Integer automaton states serialize as strings. A cross-stream read
    # of the raw object must not seed the shared cache with a plan whose
    # frontier keys differ from those recovery rebuilds.
    delta = {(0, "a"): {1}, (0, "b"): {0}, (1, "a"): {1}, (1, "b"): {0}}
    omega = {(0, "a", 1): ("X",), (0, "b", 0): ("Y",), (1, "a", 1): ("X",), (1, "b", 0): ()}
    query = Transducer(NFA("ab", [0, 1], 0, {0, 1}, delta), omega)
    sequence = make_fraction_sequence(ALPHABET, 4, rng)
    frontiers = []
    for first_read in (None, "top_k_across", "batch_confidence"):
        db = ShardedDatabase(2)
        db.attach_store(Store(tmp_path / str(first_read), fsync=False))
        db.register_stream("s", sequence)
        if first_read == "top_k_across":
            db.top_k_across(query, 2)
        elif first_read == "batch_confidence":
            db.batch_confidence(query, ("X",))
        frontiers.append(db.streaming_evaluator("s", query).frontier)
    assert all(isinstance(cell[1], str) for cell in frontiers[0])
    assert frontiers[1] == frontiers[0] and frontiers[2] == frontiers[0]
