"""The database/store hook: write-ahead ordering, rollback, recovery.

These are the contract tests for the ``store=`` integration: everything
a :class:`MarkovStreamDatabase` acknowledged is on disk, a journal
failure leaves memory untouched, and a recovered database is
bit-identical to the live one.
"""

from __future__ import annotations

import pytest

from repro.automata.regex import regex_to_dfa
from repro.errors import ReproError
from repro.io.json_format import sequence_to_dict
from repro.lahar.database import MarkovStreamDatabase
from repro.serve.sharding import ShardedDatabase
from repro.store import Store, capture_state, replay, scan_log, verify_recovery
from repro.transducers.library import accept_filter

from tests.conftest import make_fraction_sequence, make_fraction_timestep

ALPHABET = "ab"


def contains_ab_query():
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


@pytest.fixture
def store(tmp_path):
    store = Store(tmp_path / "data", fsync=False)
    yield store
    store.close()


def populate(store, rng, appends: int = 5, database=None) -> MarkovStreamDatabase:
    database = database if database is not None else MarkovStreamDatabase()
    database.attach_store(store)
    database.register_stream("s", make_fraction_sequence(ALPHABET, 3, rng))
    database.register_query("q", contains_ab_query())
    for _ in range(appends):
        database.append("s", make_fraction_timestep(ALPHABET, rng))
    return database


def test_every_mutation_is_journaled(store, rng) -> None:
    database = populate(store, rng, appends=2)
    database.drop_stream("s")
    store.close()
    scan = scan_log(store.wal_dir)
    assert [record["type"] for record in scan.records] == [
        "stream_created",
        "query_registered",
        "append",
        "append",
        "stream_dropped",
    ]
    assert [record["lsn"] for record in scan.records] == [1, 2, 3, 4, 5]


def test_recovered_database_is_bit_identical(store, rng) -> None:
    database = populate(store, rng)
    evaluator = database.streaming_evaluator("s", "q")
    database.append("s", make_fraction_timestep(ALPHABET, rng))
    store.close()

    recovered = replay(store.data_dir).database
    assert recovered.streams() == ["s"]
    assert recovered.queries() == ["q"]
    assert sequence_to_dict(recovered.stream("s")) == sequence_to_dict(
        database.stream("s")
    )
    # replayed evaluation agrees exactly with the live incremental one
    fresh = recovered.streaming_evaluator("s", "q")
    assert fresh.confidences() == evaluator.confidences()


def test_journal_failure_rolls_back_append(store, rng) -> None:
    database = populate(store, rng, appends=1)
    evaluator = database.streaming_evaluator("s", "q")
    before_seq = database.stream("s")
    before_conf = dict(evaluator.confidences())
    before_lsn = store.last_lsn

    # the journal is the commit point: if it cannot persist the record,
    # nothing may become visible in memory
    store.wal.close()
    with pytest.raises(ReproError, match="closed"):
        database.append("s", make_fraction_timestep(ALPHABET, rng))
    assert database.stream("s") is before_seq
    assert evaluator.confidences() == before_conf
    assert evaluator.length == before_seq.length
    assert store.last_lsn == before_lsn


def test_journaled_register_precedes_memory_commit(tmp_path, rng) -> None:
    class ExplodingStore:
        def log_stream_created(self, name, sequence):
            raise ReproError("disk full")

    database = MarkovStreamDatabase(store=ExplodingStore())
    with pytest.raises(ReproError, match="disk full"):
        database.register_stream("s", make_fraction_sequence(ALPHABET, 3, rng))
    assert database.streams() == []


def test_detached_store_stops_journaling(store, rng) -> None:
    database = populate(store, rng, appends=1)
    lsn = store.last_lsn
    database.attach_store(None)
    database.append("s", make_fraction_timestep(ALPHABET, rng))
    assert store.last_lsn == lsn


def test_compaction_preserves_recovery(store, rng) -> None:
    database = populate(store, rng, database=ShardedDatabase())
    database.streaming_evaluator("s", "q")
    reference = replay(store.data_dir)
    # empty engine: no standing queries here
    store.compact(capture_state(database, reference.alerts))

    recovered = replay(store.data_dir)
    assert recovered.records_replayed == 0
    assert recovered.snapshot_lsn == store.last_lsn
    assert sequence_to_dict(recovered.database.stream("s")) == sequence_to_dict(
        database.stream("s")
    )
    # the restored evaluator is warm: same frontier, no DP re-run needed
    pairs = recovered.database.attached_evaluators()
    assert len(pairs) == 1
    live = database.attached_evaluators()[0][1]
    assert pairs[0][1].confidences() == live.confidences()

    # appends after compaction land in the fresh segment and replay
    database.append("s", make_fraction_timestep(ALPHABET, rng))
    store.close()
    again = replay(store.data_dir)
    assert again.records_replayed == 1
    assert sequence_to_dict(again.database.stream("s")) == sequence_to_dict(
        database.stream("s")
    )
    report = verify_recovery(store.data_dir)
    assert report["ok"], report["mismatches"]
    assert report["log_complete"] is False  # compaction dropped the prefix
