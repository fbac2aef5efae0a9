"""The serve command vocabulary: lifecycle, alerts, teardown, backpressure.

The server runs for real on its own event loop (``ServerThread``) over a
unix socket in ``tmp_path``; the blocking ``ServeClient`` drives it the
way the CI smoke test does. Queue backpressure is unit-tested directly
against :class:`repro.serve.session.Session` with a fake transport.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.io.json_format import query_to_dict, sequence_to_dict
from repro.serve import ServeClient, ServeError, ServerThread, shard_of
from repro.serve.protocol import encode_transition
from repro.serve.session import Session
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

from tests.conftest import make_fraction_sequence, make_fraction_timestep

ALPHABET = "ab"


def contains_ab_query():
    """Confidence of () == Pr("ab" occurred) — deterministic, 0-uniform."""
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


def occurrence_ab_query():
    """An s-projector whose pattern drives a monitor standing query."""
    alphabet = sigma_star(ALPHABET)
    return SProjector(alphabet, regex_to_dfa("ab", ALPHABET), alphabet)


def wire_timestep(rng) -> dict:
    return encode_transition(make_fraction_timestep(ALPHABET, rng))


@pytest.fixture
def service(tmp_path):
    path = str(tmp_path / "serve.sock")
    with ServerThread(socket_path=path, shards=3) as harness:
        with ServeClient.connect_unix(path) as client:
            yield harness, client, path


def register(client, name: str, rng, length: int = 2) -> None:
    sequence = make_fraction_sequence(ALPHABET, length, rng)
    client.call("register_stream", name=name, sequence=sequence_to_dict(sequence))


def test_ping_reports_protocol_and_shards(service) -> None:
    harness, client, _path = service
    result = client.call("ping")
    assert result["protocol"] == "repro-serve/1"
    assert result["shards"] == 3


def test_register_routes_by_stable_hash(service, rng) -> None:
    _harness, client, _path = service
    for name in ("s1", "s2", "s3"):
        register(client, name, rng)
        result = client.call("append", stream=name, transition=wire_timestep(rng))
        assert result["shard"] == shard_of(name, 3)


def test_standing_query_alert_fires_once_and_rearms(service, rng) -> None:
    _harness, client, _path = service
    register(client, "door", rng)
    client.call("register_query", name="saw-ab", query=query_to_dict(contains_ab_query()))
    result = client.call(
        "register_standing_query",
        name="watch",
        stream="door",
        query="saw-ab",
        kind="answer",
        output=[],
        threshold=0.4,
    )
    assert result["kind"] == "answer"
    client.call("subscribe", standing="watch")
    alerts = []
    # Pr("ab" occurred) is monotone in stream length: exactly one upward
    # crossing can exist no matter how many appends follow it.
    for _ in range(12):
        alerts += client.call(
            "append", stream="door", transition=wire_timestep(rng)
        )["alerts"]
    assert alerts == ["watch"] or alerts == []  # crossing may need more steps
    if alerts:
        event = client.next_event(timeout=5)
        assert event["event"] == "alert"
        assert event["data"]["standing"] == "watch"
        assert event["data"]["stream"] == "door"


def test_monitor_kind_standing_query(service, rng) -> None:
    _harness, client, _path = service
    register(client, "feed", rng)
    result = client.call(
        "register_standing_query",
        name="occ",
        stream="feed",
        query=query_to_dict(occurrence_ab_query()),
        kind="monitor",
        threshold=0.99,  # unreachable: we only exercise the advance path
    )
    assert result["kind"] == "monitor"
    for _ in range(3):
        client.call("append", stream="feed", transition=wire_timestep(rng))
    standing = {
        entry["name"]: entry for entry in client.call("stats")["standing"]
    }
    assert standing["occ"]["alerts_fired"] == 0
    assert standing["occ"]["armed"] is True


def test_drop_stream_tears_down_standing_queries(service, rng) -> None:
    """Satellite: the service-level counterpart of _drop_evaluators —
    no alert state or subscription survives its stream."""
    _harness, client, _path = service
    register(client, "victim", rng)
    register(client, "bystander", rng)
    for name, stream in (("w1", "victim"), ("w2", "victim"), ("keep", "bystander")):
        client.call(
            "register_standing_query",
            name=name,
            stream=stream,
            query=query_to_dict(contains_ab_query()),
            kind="answer",
            output=[],
            threshold=0.5,
        )
    client.call("subscribe", standing="w1")
    client.call("subscribe", standing="keep")
    result = client.call("drop_stream", name="victim")
    assert result["standing_dropped"] == ["w1", "w2"]
    event = client.next_event(timeout=5)
    assert event["event"] == "stream_dropped"
    assert event["data"] == {"stream": "victim", "standing": ["w1", "w2"]}
    stats = client.call("stats")
    assert [entry["name"] for entry in stats["standing"]] == ["keep"]
    # the dangling subscription is stripped too
    assert client.call("subscribe", standing="keep")["subscriptions"] == ["keep"]
    with pytest.raises(ServeError, match="unknown stream"):
        client.call("append", stream="victim", transition=wire_timestep(rng))


def test_register_stream_replacement_drops_standing_state(service, rng) -> None:
    _harness, client, _path = service
    register(client, "tag", rng)
    client.call(
        "register_standing_query",
        name="w",
        stream="tag",
        query=query_to_dict(contains_ab_query()),
        kind="answer",
        output=[],
        threshold=0.5,
    )
    result = client.call(
        "register_stream",
        name="tag",
        sequence=sequence_to_dict(make_fraction_sequence(ALPHABET, 4, rng)),
    )
    assert result["replaced"] is True
    assert result["standing_dropped"] == ["w"]
    assert client.call("stats")["standing"] == []


def test_drop_standing_query_only(service, rng) -> None:
    _harness, client, _path = service
    register(client, "s", rng)
    client.call(
        "register_standing_query",
        name="w",
        stream="s",
        query=query_to_dict(contains_ab_query()),
        kind="answer",
        output=[],
        threshold=0.5,
    )
    client.call("subscribe", standing="w")
    client.call("drop_standing_query", name="w")
    assert client.call("stats")["standing"] == []
    # stream survives its standing query
    client.call("append", stream="s", transition=wire_timestep(rng))
    with pytest.raises(ServeError, match="unknown standing"):
        client.call("subscribe", standing="w")


def test_duplicate_standing_query_rejected(service, rng) -> None:
    _harness, client, _path = service
    register(client, "s", rng)
    params = dict(
        name="w",
        stream="s",
        query=query_to_dict(contains_ab_query()),
        kind="answer",
        output=[],
        threshold=0.5,
    )
    client.call("register_standing_query", **params)
    with pytest.raises(ServeError, match="already exists"):
        client.call("register_standing_query", **params)


def test_protocol_errors_keep_the_connection_alive(service) -> None:
    _harness, client, _path = service
    with pytest.raises(ServeError, match="unknown command"):
        client.call("no_such_command")
    with pytest.raises(ServeError, match="must be a non-empty string"):
        client.call("append", stream=7, transition={})
    assert client.call("ping")["protocol"] == "repro-serve/1"


def test_atomic_append_through_the_service(service, rng) -> None:
    """A rejected timestep mutates nothing: same length, warm evaluator
    still bit-identical to offline evaluation."""
    _harness, client, _path = service
    register(client, "s", rng)
    client.call(
        "register_standing_query",
        name="w",
        stream="s",
        query=query_to_dict(contains_ab_query()),
        kind="answer",
        output=[],
        threshold=0.9,
    )
    before = client.call("append", stream="s", transition=wire_timestep(rng))
    bad = {"a": {"a": "1/2", "b": "1/3"}, "b": {"a": "1/2", "b": "1/2"}}  # sums 5/6
    with pytest.raises(ServeError):
        client.call("append", stream="s", transition=bad)
    after = client.call("append", stream="s", transition=wire_timestep(rng))
    assert after["length"] == before["length"] + 1


def test_shutdown_command_drains_gracefully(tmp_path, rng) -> None:
    path = str(tmp_path / "end.sock")
    harness = ServerThread(socket_path=path)
    harness.start()
    try:
        with ServeClient.connect_unix(path) as client:
            register(client, "s", rng)
            assert client.call("shutdown") == {"shutting_down": True}
            event = client.next_event(timeout=10)
            assert event == {"event": "shutdown", "data": {"draining": True}}
    finally:
        harness.stop()
    assert harness.server is not None and harness.server.appends == 0


def test_stop_after_client_shutdown_schedules_nothing(tmp_path, rng, monkeypatch) -> None:
    # Once a client-sent shutdown runs, the loop may close at any
    # moment; whatever stop() handed it then could be dropped unrun.
    import threading

    path = str(tmp_path / "late.sock")
    harness = ServerThread(socket_path=path)
    harness.start()
    caller = threading.get_ident()
    scheduled: list[str] = []

    def recording(name, original):
        def record(*args, **kwargs):
            if threading.get_ident() == caller:
                scheduled.append(name)
            return original(*args, **kwargs)

        return record

    try:
        with ServeClient.connect_unix(path) as client:
            register(client, "s", rng)
            client.call("shutdown")
            assert client.next_event(timeout=10)["event"] == "shutdown"
        loop = harness._loop
        monkeypatch.setattr(
            loop,
            "call_soon_threadsafe",
            recording("call_soon_threadsafe", loop.call_soon_threadsafe),
        )
        monkeypatch.setattr(
            asyncio,
            "run_coroutine_threadsafe",
            recording("run_coroutine_threadsafe", asyncio.run_coroutine_threadsafe),
        )
    finally:
        harness.stop()
    assert scheduled == []
    assert not harness._thread.is_alive()


def test_tcp_family_serves_too(rng) -> None:
    with ServerThread(host="127.0.0.1", port=0) as harness:
        assert harness.address["family"] == "tcp"
        with ServeClient.connect(harness.address) as client:
            register(client, "s", rng)
            result = client.call("append", stream="s", transition=wire_timestep(rng))
            assert result["length"] == 3


# ---------------------------------------------------------------------------
# The `repro serve` CLI entry point
# ---------------------------------------------------------------------------


def test_cli_serve_runs_and_drains(tmp_path, rng) -> None:
    import threading
    import time

    from repro import cli

    path = str(tmp_path / "cli.sock")
    codes: list[int] = []
    thread = threading.Thread(
        target=lambda: codes.append(
            cli.main(["serve", "--socket", path, "--shards", "2", "--max-seconds", "60"])
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            client = ServeClient.connect_unix(path, timeout=2.0)
            break
        except OSError:
            time.sleep(0.05)
    else:
        pytest.fail("CLI server socket never came up")
    with client:
        assert client.call("ping")["shards"] == 2
        register(client, "s", rng)
        client.call("append", stream="s", transition=wire_timestep(rng))
        client.call("shutdown")
    thread.join(timeout=30)
    assert codes == [0]


def test_cli_serve_requires_an_address(capsys) -> None:
    from repro import cli

    assert cli.main(["serve"]) == 2
    assert "--socket" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Backpressure: the bounded per-connection queue
# ---------------------------------------------------------------------------


class FakeWriter:
    """A transport stub recording frames synchronously."""

    def __init__(self) -> None:
        self.written: list[bytes] = []
        self.closed = False

    def write(self, payload: bytes) -> None:
        self.written.append(payload)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


def test_events_drop_when_queue_full_responses_never_do() -> None:
    async def scenario():
        writer = FakeWriter()
        session = Session(None, writer, queue_size=3)
        # writer task not started yet: the queue genuinely fills
        await session.send(b"response-1\n")
        assert session.push_event(b"event-1\n") is True
        assert session.push_event(b"event-2\n") is True
        assert session.backlog == 3
        # full queue: the *incoming* event is the one dropped
        assert session.push_event(b"event-3\n") is False
        assert session.dropped_events == 1
        # a drained queue accepts events again
        session.start()
        await session.close()
        assert writer.written == [b"response-1\n", b"event-1\n", b"event-2\n"]
        assert writer.closed

    asyncio.run(scenario())


def test_session_drain_flushes_backlog_in_order() -> None:
    async def scenario():
        writer = FakeWriter()
        session = Session(None, writer, queue_size=8)
        session.start()
        for i in range(5):
            await session.send(f"frame-{i}\n".encode())
        await session.drain()
        assert writer.written == [f"frame-{i}\n".encode() for i in range(5)]
        # post-drain sends and events are no-ops, not errors
        await session.send(b"late\n")
        assert session.push_event(b"late-event\n") is False

    asyncio.run(scenario())


def test_subscription_routing() -> None:
    async def scenario():
        session = Session(None, FakeWriter())
        assert not session.wants("w")
        session.subscriptions.add("w")
        assert session.wants("w") and not session.wants("other")
        session.subscribe_all = True
        assert session.wants("other")

    asyncio.run(scenario())
