"""Durable serve: ``--data-dir`` recovery, shutdown drain, compaction.

Each test runs a real server (``ServerThread``) against a store in
``tmp_path``, stops it, and boots a *second* server over the same
directory — the restart must present streams, standing queries, and
hysteresis state exactly as the first server last acknowledged them.
"""

from __future__ import annotations

import pytest

from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.io.json_format import query_to_dict, sequence_to_dict
from repro.serve import ServeClient, ServeError, ServerThread
from repro.serve.protocol import encode_transition
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

from tests.conftest import make_fraction_sequence, make_fraction_timestep

ALPHABET = "ab"


def contains_ab_query():
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


def occurrence_ab_query():
    alphabet = sigma_star(ALPHABET)
    return SProjector(alphabet, regex_to_dfa("ab", ALPHABET), alphabet)


def wire_timestep(rng) -> dict:
    return encode_transition(make_fraction_timestep(ALPHABET, rng))


def durable_server(tmp_path, **kwargs):
    return ServerThread(
        socket_path=str(tmp_path / "serve.sock"),
        shards=kwargs.pop("shards", 2),
        data_dir=str(tmp_path / "data"),
        fsync=False,  # tmpfs CI: the ordering guarantees are what we test
        **kwargs,
    )


def standing_snapshot(client) -> dict:
    return {
        entry["name"]: {
            "value": entry["value"],
            "armed": entry["armed"],
            "alerts_fired": entry["alerts_fired"],
            "threshold": entry["threshold"],
            "rearm": entry["rearm"],
        }
        for entry in client.call("stats")["standing"]
    }


def populate(client, rng, appends: int = 6) -> None:
    client.call(
        "register_stream",
        name="door",
        sequence=sequence_to_dict(make_fraction_sequence(ALPHABET, 2, rng)),
    )
    client.call(
        "register_query", name="saw-ab", query=query_to_dict(contains_ab_query())
    )
    client.call(
        "register_standing_query",
        name="watch",
        stream="door",
        query="saw-ab",
        kind="answer",
        output=[],
        threshold=0.25,
        rearm=0.125,
    )
    client.call(
        "register_standing_query",
        name="occ",
        stream="door",
        query=query_to_dict(occurrence_ab_query()),
        kind="monitor",
        threshold=0.125,
        rearm=0.0625,
    )
    for _ in range(appends):
        client.call("append", stream="door", transition=wire_timestep(rng))


def test_stop_start_is_bit_identical(tmp_path, rng) -> None:
    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            assert client.call("ping")["durable"] is True
            populate(client, rng)
            before = standing_snapshot(client)
            before_streams = client.call("ping")["streams"]

    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            stats = client.call("stats")
            assert stats["recovered"]["streams"] == 1
            assert stats["recovered"]["standing_queries"] == 2
            assert stats["recovered"]["truncated_bytes"] == 0
            assert client.call("ping")["streams"] == before_streams
            # values, armed flags, thresholds, re-arm levels, fired
            # counts: all exactly as acknowledged before the stop
            assert standing_snapshot(client) == before


def test_no_tail_loss_after_final_append(tmp_path, rng) -> None:
    """Satellite: the shutdown drain seals the store after the last
    acknowledged append — a stop/start loses nothing."""
    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            populate(client, rng, appends=0)
            # the last acknowledged call before stop is an append
            final = client.call(
                "append", stream="door", transition=wire_timestep(rng)
            )
            expected_length = final["length"]
            expected = standing_snapshot(client)

    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            assert standing_snapshot(client) == expected
            # the recovered stream includes the final acknowledged append
            grown = client.call(
                "append", stream="door", transition=wire_timestep(rng)
            )
            assert grown["length"] == expected_length + 1


def test_recovered_standing_queries_stay_live(tmp_path, rng) -> None:
    """Recovery rebuilds engines, not just numbers: appends after the
    restart keep advancing evaluators, monitors, and alerts."""
    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            populate(client, rng)
            restart_fired = standing_snapshot(client)["occ"]["alerts_fired"]

    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            for _ in range(8):
                client.call("append", stream="door", transition=wire_timestep(rng))
            after = standing_snapshot(client)
            assert after["occ"]["alerts_fired"] >= restart_fired
            # the answer evaluator still tracks the stream (value sane)
            from repro.store.codec import decode_value

            assert 0 <= decode_value(after["watch"]["value"]) <= 1
            # and the named query catalog survived
            client.call(
                "register_standing_query",
                name="watch2",
                stream="door",
                query="saw-ab",  # resolved from the recovered catalog
                kind="answer",
                output=[],
                threshold=0.9,
            )


def test_compaction_while_serving_and_after_restart(tmp_path, rng) -> None:
    with durable_server(tmp_path, compact_records=5) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            populate(client, rng, appends=12)
            before = standing_snapshot(client)
            store_stats = client.call("stats")["store"]
            assert store_stats["snapshots"] == 1
            assert store_stats["snapshot_lsn"] > 0
            assert store_stats["records_since_snapshot"] < 5

    with durable_server(tmp_path, compact_records=5) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            stats = client.call("stats")
            # the log suffix is short: recovery replayed < 5 records
            assert stats["recovered"]["records_replayed"] < 5
            assert standing_snapshot(client) == before


def test_drops_are_durable(tmp_path, rng) -> None:
    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            populate(client, rng, appends=2)
            client.call("drop_standing_query", name="occ")
            client.call(
                "register_stream",
                name="tmp",
                sequence=sequence_to_dict(make_fraction_sequence(ALPHABET, 2, rng)),
            )
            client.call("drop_stream", name="tmp")

    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            assert client.call("ping")["streams"] == 1
            assert [
                s["name"] for s in client.call("stats")["standing"]
            ] == ["watch"]
            client.call("append", stream="door", transition=wire_timestep(rng))
            with pytest.raises(ServeError, match="unknown stream"):
                client.call("append", stream="tmp", transition=wire_timestep(rng))


def layers_pushed(database) -> int:
    """DP layers appends have pushed through the plans of ``database``."""
    plans = database.plan_cache.stats()["plans"].values()
    return sum(plan["appends"] for plan in plans)


def test_dropped_standing_queries_release_their_evaluators(tmp_path, rng) -> None:
    """A drop detaches the watch's evaluator unless another standing
    query on the stream still watches it, live and in the replayed
    journal alike: once every watch is gone, appends push no DP layer."""
    from repro.store import replay

    data_dir = tmp_path / "data"
    with durable_server(tmp_path) as harness:
        live = harness.server.db
        with ServeClient.connect_unix(harness.address["path"]) as client:
            populate(client, rng, appends=1)
            client.call(
                "register_standing_query",
                name="twin",  # the same stream and plan as "watch"
                stream="door",
                query="saw-ab",
                kind="answer",
                output=[],
                threshold=0.25,
            )
            client.call("drop_standing_query", name="watch")
            client.call("append", stream="door", transition=wire_timestep(rng))
            twin = harness.server.alerts.get("twin")
            assert twin.evaluator in [e for _s, e in live.attached_evaluators()]
            fresh = client.call("confidence", stream="door", query="saw-ab", output=[])
            assert standing_snapshot(client)["twin"]["value"] == fresh["confidence"]
            recovered = replay(data_dir, repair=False)
            assert len(live.attached_evaluators()) == 2
            assert len(recovered.database.attached_evaluators()) == 2

            client.call("drop_standing_query", name="twin")
            client.call("drop_standing_query", name="occ")
            assert live.attached_evaluators() == []
            before = layers_pushed(live)
            client.call("append", stream="door", transition=wire_timestep(rng))
            assert layers_pushed(live) == before

    recovered = replay(data_dir)
    assert recovered.alerts.names() == []
    assert recovered.database.attached_evaluators() == []
    before = layers_pushed(recovered.database)
    recovered.database.append("door", make_fraction_timestep(ALPHABET, rng))
    assert layers_pushed(recovered.database) == before


def test_stream_replacement_teardown_is_durable(tmp_path, rng) -> None:
    """Replacing a stream drops its standing queries implicitly; the
    replay must reproduce that teardown from the stream_created record
    alone."""
    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            populate(client, rng, appends=2)
            result = client.call(
                "register_stream",
                name="door",
                sequence=sequence_to_dict(make_fraction_sequence(ALPHABET, 3, rng)),
            )
            assert result["standing_dropped"] == ["occ", "watch"]

    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            stats = client.call("stats")
            assert stats["standing"] == []
            grown = client.call(
                "append", stream="door", transition=wire_timestep(rng)
            )
            assert grown["length"] == 4  # the replacement's 3 + this append


def test_failed_standing_registration_is_not_journaled(tmp_path, rng) -> None:
    """Validation precedes the journal record: a rejected registration
    must not reappear after a restart."""
    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            populate(client, rng, appends=0)
            with pytest.raises(ServeError, match="already exists"):
                client.call(
                    "register_standing_query",
                    name="watch",  # duplicate
                    stream="door",
                    query="saw-ab",
                    kind="answer",
                    output=[],
                    threshold=0.5,
                )
            with pytest.raises(ServeError, match="unknown standing"):
                client.call("drop_standing_query", name="nope")

    with durable_server(tmp_path) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            assert [
                s["name"] for s in client.call("stats")["standing"]
            ] == ["occ", "watch"]


def test_non_durable_server_reports_it(tmp_path) -> None:
    with ServerThread(socket_path=str(tmp_path / "plain.sock")) as harness:
        with ServeClient.connect_unix(harness.address["path"]) as client:
            assert client.call("ping")["durable"] is False
            stats = client.call("stats")
            assert stats["store"] is None
            assert stats["recovered"] is None
