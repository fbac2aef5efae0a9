"""The asyncio streaming query service.

:class:`ReproServer` is a long-lived service over a
:class:`~repro.serve.sharding.ShardedDatabase`: clients connect over a
TCP or unix socket, speak the NDJSON protocol of
:mod:`repro.serve.protocol`, and the server maintains *standing
queries* — each ``append`` advances the stream's attached streaming
evaluators one DP layer (never a from-scratch re-plan) and pushes an alert
event to subscribers whenever a standing query's watched confidence
crosses its registered threshold (:mod:`repro.serve.alerts`).

Concurrency model
-----------------
One event loop; one :class:`~repro.serve.session.Session` (reader loop +
bounded outbound queue + writer task) per connection. Writes to a stream
serialize on its *shard lock*, so appends to streams on different shards
interleave freely while a stream's evaluator state stays
single-writer. Cross-stream batch reads snapshot the (immutable)
sequences and run on the loop's default executor (``asyncio.to_thread``),
so heavy reads never stall appends; ``pool_workers`` sizes that executor
and so bounds how many heavy reads run at once.

Shutdown is graceful: the listener closes first, then every session's
outbound queue is drained (subscribers receive everything already
queued, ending with a ``shutdown`` event) before transports close.

Command vocabulary
------------------
``ping``, ``register_stream``, ``drop_stream``, ``append``,
``register_query``, ``register_standing_query``,
``drop_standing_query``, ``subscribe``, ``unsubscribe``, ``query``,
``confidence``, ``top_k_across``, ``stats``, ``shutdown`` — documented
with wire-level examples in ``docs/USAGE.md``.

The ``confidence`` command and ``register_standing_query`` both accept
an ``epsilon`` (with optional ``delta``/``seed``) to use the FPRAS
estimator of :mod:`repro.approx` instead of an exact algorithm — the
tractable route for the #P-hard query classes. Approximate results are
always marked ``"approximate": true`` on the wire, and alerts fired by
an approximate standing query carry the same marker.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro import telemetry
from repro.core.engine import approximate_confidence, compute_confidence
from repro.errors import ReproError
from repro.io.json_format import query_from_dict, sequence_from_dict
from repro.serve.alerts import AlertEngine
from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    decode_frame,
    decode_transition,
    decode_value,
    encode_frame,
    encode_value,
    event_frame,
    parse_request,
    response_error,
    response_ok,
)
from repro.serve.session import DEFAULT_QUEUE_SIZE, Session
from repro.serve.sharding import ShardedDatabase

#: Seconds allowed for per-session queue drain during graceful shutdown.
DEFAULT_DRAIN_TIMEOUT = 5.0


def _approx_stream_seed(base: int, stream: str, length: int) -> int:
    """Deterministic FPRAS seed per (client seed, stream, length).

    Folding the length in gives every append a fresh — but replayable —
    sample path, so a standing query's watched value is a function of
    the stream state, not of how many times it was read.
    """
    digest = hashlib.sha256(f"approx|{base}|{stream}|{length}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _ApproxAnswerEvaluator:
    """Duck-types ``StreamingEvaluator.confidences()`` with FPRAS estimates.

    Backs an *approximate* standing query: instead of an exact
    incremental DP frontier, every read re-estimates the watched
    answer's confidence to (ε, δ) on the stream's current state. The
    last full :class:`~repro.approx.ApproxConfidence` is kept on
    ``last_estimate`` so describe/report paths can expose the interval;
    ``confidences()`` itself yields plain floats because the value feeds
    a :class:`~repro.serve.alerts.ThresholdWatch` comparison.
    """

    def __init__(self, db, stream, query, output, epsilon, delta, seed, max_samples):
        self._db = db
        self._stream = stream
        self._query = query
        self._output = tuple(output)
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.max_samples = max_samples
        self.last_estimate = None

    def confidences(self) -> dict:
        sequence = self._db.stream(self._stream)
        estimate = approximate_confidence(
            sequence,
            self._query,
            self._output,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=_approx_stream_seed(self.seed, self._stream, sequence.length),
            max_samples=self.max_samples,
            cache=self._db.plan_cache,
        )
        self.last_estimate = estimate
        return {self._output: estimate.estimate}


class ReproServer:
    """The standing-query service over a sharded Markov-stream database.

    Parameters
    ----------
    shards:
        Worker shards; streams are routed by a stable hash of their id.
    queue_size:
        Outbound frame bound per connection (backpressure knob).
    pool_workers:
        When ``>= 1``, the threads of the event loop's default executor,
        which runs every off-loop read; ``0`` keeps asyncio's default.
    drain_timeout:
        Seconds granted to each session's queue drain during shutdown.
    data_dir:
        When set, the service is durable: a :class:`repro.store.Store`
        under this directory journals every accepted mutation (fsync'd
        before the client sees success), previous state is recovered on
        construction — streams, evaluator frontiers, standing queries
        with exact hysteresis state — and the log is compacted into
        frontier snapshots in the background.
    fsync:
        Sync each journal record to disk on commit (durable mode only).
    compact_records:
        Override the compaction policy's records-since-snapshot bound.
    """

    def __init__(
        self,
        shards: int = 1,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        pool_workers: int = 0,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        plan_cache=None,
        data_dir: str | None = None,
        fsync: bool = True,
        compact_records: int | None = None,
    ) -> None:
        self.db = ShardedDatabase(shards, plan_cache=plan_cache)
        self.alerts = AlertEngine()
        self.store = None
        self.recovered: dict | None = None
        if data_dir is not None:
            self._open_store(data_dir, fsync, compact_records)
        self.queue_size = queue_size
        self.pool_workers = pool_workers
        self.drain_timeout = drain_timeout
        self.sessions: set[Session] = set()
        self.appends = 0
        self.alerts_fired = 0
        self.connections = 0
        self._locks = [asyncio.Lock() for _ in range(shards)]
        self._servers: list[asyncio.base_events.Server] = []
        self._closed = asyncio.Event()
        self._shutting_down = False
        self._shutdown_task: asyncio.Task | None = None
        self.address: dict | None = None
        self._commands = {
            "ping": self._cmd_ping,
            "register_stream": self._cmd_register_stream,
            "drop_stream": self._cmd_drop_stream,
            "append": self._cmd_append,
            "register_query": self._cmd_register_query,
            "register_standing_query": self._cmd_register_standing_query,
            "drop_standing_query": self._cmd_drop_standing_query,
            "subscribe": self._cmd_subscribe,
            "unsubscribe": self._cmd_unsubscribe,
            "query": self._cmd_query,
            "confidence": self._cmd_confidence,
            "top_k_across": self._cmd_top_k_across,
            "stats": self._cmd_stats,
            "shutdown": self._cmd_shutdown,
        }

    # ------------------------------------------------------------------
    # Durability (repro.store)
    # ------------------------------------------------------------------

    def _open_store(
        self, data_dir: str, fsync: bool, compact_records: int | None
    ) -> None:
        """Open (and repair) the journal, then recover previous state.

        Recovery runs before the listener can bind: the first client to
        connect sees every stream, evaluator frontier, and standing
        query exactly as an uninterrupted server would hold them. Replay
        fills this server's own database through its mutation methods;
        the store attaches only *after* replay so recovered records are
        not re-journaled.
        """
        # Imported here: repro.store.recovery uses this package's alert
        # types, so a top-level import would be circular.
        from repro.store import CompactionPolicy, Store
        from repro.store import replay as store_replay

        policy = (
            CompactionPolicy(max_records=compact_records)
            if compact_records is not None
            else None
        )
        self.store = Store(data_dir, fsync=fsync, policy=policy)
        recovered = store_replay(data_dir, self.db)
        self.alerts = recovered.alerts
        self.db.attach_store(self.store)
        self.recovered = {
            "streams": len(self.db.streams()),
            "standing_queries": len(recovered.alerts),
            "last_lsn": recovered.last_lsn,
            "snapshot_lsn": recovered.snapshot_lsn,
            "records_replayed": recovered.records_replayed,
            "truncated_bytes": recovered.truncated_bytes,
        }

    async def _maybe_compact(self) -> None:
        """Fold the log into a fresh snapshot when the policy asks.

        Runs after an append has released its shard lock; all shard
        locks are taken (in index order) so the captured state is
        consistent across shards, then the atomic snapshot + segment
        cleanup happens inside :meth:`repro.store.Store.compact`.
        """
        if self.store is None or not self.store.should_compact():
            return
        from repro.store import capture_state

        for lock in self._locks:
            await lock.acquire()
        try:
            if self.store.should_compact():  # re-check under the locks
                self.store.compact(capture_state(self.db, self.alerts))
        finally:
            for lock in reversed(self._locks):
                lock.release()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int = 0,
    ) -> dict:
        """Bind the listener; returns the bound address description."""
        if self.pool_workers >= 1 and not self._servers:  # first listener only
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(self.pool_workers, thread_name_prefix="repro-read")
            )
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=socket_path
            )
            self.address = {"family": "unix", "path": socket_path}
        else:
            server = await asyncio.start_server(
                self._handle_connection, host or "127.0.0.1", port
            )
            bound = server.sockets[0].getsockname()
            self.address = {"family": "tcp", "host": bound[0], "port": bound[1]}
        self._servers.append(server)
        return self.address

    async def wait_closed(self) -> None:
        """Block until a graceful shutdown completes."""
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Stop accepting, then drain every session."""
        if self._shutting_down:
            await self._closed.wait()
            return
        self._shutting_down = True
        for server in self._servers:
            server.close()
            await server.wait_closed()
        farewell = encode_frame(event_frame("shutdown", {"draining": True}))
        for session in list(self.sessions):
            session.push_event(farewell)
        drain_start = time.perf_counter()
        for session in list(self.sessions):
            try:
                await asyncio.wait_for(session.close(), timeout=self.drain_timeout)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass
        telemetry.observe("serve.drain.seconds", time.perf_counter() - drain_start)
        self.sessions.clear()
        if self.store is not None:
            # Tail-loss guard: every append path runs under a shard
            # lock, so holding all of them here means the last in-flight
            # append has committed (and journaled) before the final
            # segment is flushed and fsync'd.
            for lock in self._locks:
                await lock.acquire()
            try:
                self.store.close()
            finally:
                for lock in reversed(self._locks):
                    lock.release()
        self._closed.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = Session(reader, writer, queue_size=self.queue_size)
        session.start()
        self.sessions.add(session)
        self.connections += 1
        telemetry.count("serve.connections.opened")
        try:
            while not self._shutting_down:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch(session, line)
                await session.send(encode_frame(response))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self.sessions.discard(session)
            telemetry.count("serve.connections.closed")
            try:
                await session.close()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, session: Session, line: bytes) -> dict:
        request_id = None
        try:
            request = parse_request(decode_frame(line))
            request_id = request.id
            handler = self._commands.get(request.cmd)
            if handler is None:
                raise ProtocolError(f"unknown command {request.cmd!r}")
            telemetry.count("serve.commands")
            result = await handler(session, request.params)
            return response_ok(request_id, result)
        except ReproError as error:  # includes ProtocolError
            telemetry.count("serve.errors")
            return response_error(request_id, str(error))
        except Exception as error:  # pragma: no cover - defensive
            telemetry.count("serve.errors")
            return response_error(request_id, f"internal error: {error!r}")

    def _fan_out(self, standing_names, frame: dict) -> int:
        """Push one event frame to every subscriber; returns deliveries."""
        payload = encode_frame(frame)
        delivered = 0
        for session in self.sessions:
            if any(session.wants(name) for name in standing_names):
                if session.push_event(payload):
                    delivered += 1
        return delivered

    @staticmethod
    def _str_param(params, key: str) -> str:
        value = params.get(key)
        if not isinstance(value, str) or not value:
            raise ProtocolError(f"param {key!r} must be a non-empty string")
        return value

    def _query_param(self, params, key: str = "query"):
        """Resolve a query param: a registered name or an inline document."""
        value = params.get(key)
        if isinstance(value, str):
            return self.db.resolve_query(value), value
        if isinstance(value, dict):
            query = query_from_dict(value)
            return query, value.get("type", "inline")
        raise ProtocolError(
            f"param {key!r} must be a registered query name or a query document"
        )

    # ------------------------------------------------------------------
    # Commands: catalog
    # ------------------------------------------------------------------

    async def _cmd_ping(self, session: Session, params) -> dict:
        return {
            "protocol": PROTOCOL,
            "shards": self.db.shards,
            "streams": len(self.db.streams()),
            "standing_queries": len(self.alerts),
            "durable": self.store is not None,
        }

    async def _cmd_register_stream(self, session: Session, params) -> dict:
        name = self._str_param(params, "name")
        sequence = sequence_from_dict(params.get("sequence"))
        index = self.db.shard_index(name)
        async with self._locks[index]:
            replaced = self.db.has_stream(name)
            dropped = self._teardown_standing(name) if replaced else []
            self.db.register_stream(name, sequence)
        telemetry.gauge("serve.streams", float(len(self.db.streams())))
        result = {
            "stream": name,
            "shard": index,
            "length": sequence.length,
            "replaced": replaced,
        }
        if dropped:
            result["standing_dropped"] = dropped
        return result

    async def _cmd_drop_stream(self, session: Session, params) -> dict:
        name = self._str_param(params, "name")
        index = self.db.shard_index(name)
        async with self._locks[index]:
            self.db.drop_stream(name)
            dropped = self._teardown_standing(name)
        telemetry.gauge("serve.streams", float(len(self.db.streams())))
        return {"stream": name, "standing_dropped": dropped}

    def _teardown_standing(self, stream: str) -> list[str]:
        """Drop every standing query on ``stream``; notify + unsubscribe.

        The service-level counterpart of the database's
        ``_drop_evaluators``: no alert state, subscription, or pending
        threshold watch may outlive its stream.
        """
        dropped = self.alerts.drop_stream(stream)
        names = [standing.name for standing in dropped]
        if names:
            self._fan_out(
                names,
                event_frame("stream_dropped", {"stream": stream, "standing": names}),
            )
            for session in self.sessions:
                session.subscriptions.difference_update(names)
            telemetry.gauge("serve.standing_queries", float(len(self.alerts)))
        return names

    async def _cmd_register_query(self, session: Session, params) -> dict:
        name = self._str_param(params, "name")
        document = params.get("query")
        if not isinstance(document, dict):
            raise ProtocolError("param 'query' must be a query document")
        self.db.register_query(name, query_from_dict(document))
        return {"query": name}

    # ------------------------------------------------------------------
    # Commands: streaming writes
    # ------------------------------------------------------------------

    async def _cmd_append(self, session: Session, params) -> dict:
        stream = self._str_param(params, "stream")
        transition = decode_transition(params.get("transition"))
        index = self.db.shard_index(stream)
        async with self._locks[index]:
            start = time.perf_counter()
            grown = self.db.append(stream, transition)
            fired = self.alerts.observe_append(stream, grown.length)
            elapsed = time.perf_counter() - start
        self.appends += 1
        self.alerts_fired += len(fired)
        telemetry.count("serve.appends")
        telemetry.observe("serve.append.seconds", elapsed)
        await self._maybe_compact()
        for alert in fired:
            telemetry.count("serve.alerts.fired")
            payload = {
                "standing": alert.standing,
                "stream": alert.stream,
                "timestep": alert.timestep,
                "value": encode_value(alert.value),
                "threshold": encode_value(alert.threshold),
            }
            try:
                standing = self.alerts.get(alert.standing)
            except ReproError:  # pragma: no cover - dropped concurrently
                standing = None
            if standing is not None and standing.approx is not None:
                # An estimated value crossed the threshold — subscribers
                # must be able to tell it apart from an exact crossing.
                payload["approximate"] = True
                payload["epsilon"] = standing.approx["epsilon"]
            self._fan_out((alert.standing,), event_frame("alert", payload))
        return {
            "stream": stream,
            "shard": index,
            "length": grown.length,
            "alerts": [alert.standing for alert in fired],
        }

    # ------------------------------------------------------------------
    # Commands: standing queries and subscriptions
    # ------------------------------------------------------------------

    async def _cmd_register_standing_query(self, session: Session, params) -> dict:
        name = self._str_param(params, "name")
        stream = self._str_param(params, "stream")
        query, label = self._query_param(params)
        threshold = decode_value(params.get("threshold"))
        rearm = params.get("rearm")
        rearm = decode_value(rearm) if rearm is not None else None
        output = params.get("output")
        kind = params.get("kind", "monitor" if output is None else "answer")
        if kind not in ("answer", "monitor"):
            raise ProtocolError("standing query kind must be 'answer' or 'monitor'")
        epsilon = params.get("epsilon")
        approx: dict | None = None
        if epsilon is not None:
            if kind != "answer":
                raise ProtocolError(
                    "approximate standing queries need kind 'answer' "
                    "(monitors are already polynomial)"
                )
            if self.store is not None:
                raise ReproError(
                    "approximate standing queries are not supported in "
                    "durable mode: sampled values cannot be journaled for "
                    "bit-identical recovery"
                )
            approx = {
                "epsilon": float(epsilon),
                "delta": float(params.get("delta", 0.05)),
                "seed": int(params.get("seed", 0)),
            }
        index = self.db.shard_index(stream)
        watched = tuple(output) if kind == "answer" and output is not None else ()
        evaluator = None
        if approx is not None:
            evaluator = _ApproxAnswerEvaluator(
                self.db,
                stream,
                query,
                watched,
                approx["epsilon"],
                approx["delta"],
                approx["seed"],
                params.get("max_samples"),
            )
        async with self._locks[index]:
            standing = self.alerts.register_standing(
                self.db,
                name,
                stream,
                kind,
                str(label),
                query,
                watched,
                threshold,
                rearm,
                evaluator=evaluator,
                approx=approx,
            )
        telemetry.gauge("serve.standing_queries", float(len(self.alerts)))
        if approx is not None:
            telemetry.count("serve.approx.standing")
        result = {
            "standing": name,
            "stream": stream,
            "kind": kind,
            "value": encode_value(standing.watch.value),
            "armed": standing.watch.armed,
            "approximate": approx is not None,
        }
        if approx is not None:
            result["epsilon"] = approx["epsilon"]
            result["delta"] = approx["delta"]
        return result

    async def _cmd_drop_standing_query(self, session: Session, params) -> dict:
        name = self._str_param(params, "name")
        self.alerts.drop_standing(self.db, name)
        for other in self.sessions:
            other.subscriptions.discard(name)
        telemetry.gauge("serve.standing_queries", float(len(self.alerts)))
        return {"standing": name}

    async def _cmd_subscribe(self, session: Session, params) -> dict:
        if params.get("all"):
            session.subscribe_all = True
        else:
            name = self._str_param(params, "standing")
            self.alerts.get(name)  # must exist
            session.subscriptions.add(name)
        return {
            "subscriptions": sorted(session.subscriptions),
            "all": session.subscribe_all,
        }

    async def _cmd_unsubscribe(self, session: Session, params) -> dict:
        if params.get("all"):
            session.subscribe_all = False
            session.subscriptions.clear()
        else:
            session.subscriptions.discard(self._str_param(params, "standing"))
        return {
            "subscriptions": sorted(session.subscriptions),
            "all": session.subscribe_all,
        }

    # ------------------------------------------------------------------
    # Commands: reads
    # ------------------------------------------------------------------

    async def _cmd_query(self, session: Session, params) -> dict:
        stream = self._str_param(params, "stream")
        query, _label = self._query_param(params)
        order = params.get("order", "unranked")
        limit = params.get("limit")
        index = self.db.shard_index(stream)
        async with self._locks[index]:
            answers = list(
                self.db.query(
                    stream,
                    query,
                    order=order,
                    limit=limit,
                    with_confidence=params.get("with_confidence", True),
                    allow_exponential=params.get("allow_exponential", False),
                )
            )
        return {
            "stream": stream,
            "answers": [
                {
                    "output": answer.rendered(),
                    "confidence": (
                        encode_value(answer.confidence)
                        if answer.confidence is not None
                        else None
                    ),
                }
                for answer in answers
            ],
        }

    async def _cmd_confidence(self, session: Session, params) -> dict:
        """Confidence of one answer — exact, or FPRAS when ``epsilon`` is set.

        The sequence snapshot is taken under the shard lock; the
        computation itself (exact DP, brute force, or sampling) runs off
        the event loop so a hard instance never stalls appends.
        """
        stream = self._str_param(params, "stream")
        query, _label = self._query_param(params)
        output = params.get("output")
        if not isinstance(output, list):
            raise ProtocolError("param 'output' must be a list of answer symbols")
        answer = tuple(output)
        index = self.db.shard_index(stream)
        async with self._locks[index]:
            sequence = self.db.stream(stream)
        epsilon = params.get("epsilon")
        if epsilon is None:
            value = await asyncio.to_thread(
                compute_confidence,
                sequence,
                query,
                answer,
                bool(params.get("allow_exponential", False)),
                self.db.plan_cache,
            )
            return {
                "stream": stream,
                "confidence": encode_value(value),
                "approximate": False,
            }
        telemetry.count("serve.approx.queries")
        estimate = await asyncio.to_thread(
            lambda: approximate_confidence(
                sequence,
                query,
                answer,
                epsilon=float(epsilon),
                delta=float(params.get("delta", 0.05)),
                seed=int(params.get("seed", 0)),
                max_samples=params.get("max_samples"),
                cache=self.db.plan_cache,
            )
        )
        result = estimate.describe()
        result["stream"] = stream
        result["approximate"] = True
        result["confidence"] = estimate.estimate
        return result

    async def _cmd_top_k_across(self, session: Session, params) -> dict:
        query, _label = self._query_param(params)
        k = params.get("k", 5)
        if not isinstance(k, int) or k < 1:
            raise ProtocolError("param 'k' must be a positive integer")
        streams = params.get("streams")
        order = params.get("order")
        allow_exponential = bool(params.get("allow_exponential", False))
        # The corpus snapshot is immutable, so the merge can run off the
        # event loop: heavy cross-stream reads never stall appends.
        merged = await asyncio.to_thread(
            self.db.top_k_across,
            query,
            k,
            streams=streams,
            order=order,
            allow_exponential=allow_exponential,
        )
        return {
            "answers": [
                {
                    "stream": stream_answer.stream,
                    "output": stream_answer.answer.rendered(),
                    "score": (
                        encode_value(stream_answer.answer.score)
                        if stream_answer.answer.score is not None
                        else None
                    ),
                    "confidence": (
                        encode_value(stream_answer.answer.confidence)
                        if stream_answer.answer.confidence is not None
                        else None
                    ),
                }
                for stream_answer in merged
            ]
        }

    async def _cmd_stats(self, session: Session, params) -> dict:
        return {
            "database": self.db.stats(),
            "store": self.store.stats() if self.store is not None else None,
            "recovered": self.recovered,
            "standing_queries": len(self.alerts),
            "standing": [
                {
                    key: (
                        encode_value(value)
                        if key in ("threshold", "rearm", "value") and value is not None
                        else value
                    )
                    for key, value in self.alerts.get(name).describe().items()
                }
                for name in self.alerts.names()
            ],
            "sessions": len(self.sessions),
            "appends": self.appends,
            "alerts_fired": self.alerts_fired,
            "events_dropped": sum(s.dropped_events for s in self.sessions),
            "connections": self.connections,
        }

    async def _cmd_shutdown(self, session: Session, params) -> dict:
        asyncio.get_running_loop().call_soon(self._begin_shutdown)
        return {"shutting_down": True}

    def _begin_shutdown(self) -> None:
        """Start :meth:`shutdown` as a task; call it on the loop thread.

        The loop holds tasks weakly, so the server keeps this one.
        """
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self.shutdown())


class ServerThread:
    """A :class:`ReproServer` running on its own event loop in a thread.

    The synchronous harness used by tests, benchmarks, and anything else
    that wants to drive the service with a blocking
    :class:`~repro.serve.client.ServeClient` from ordinary code::

        with ServerThread(socket_path=path, shards=4) as harness:
            client = ServeClient.connect_unix(path)
            ...

    ``address`` is available once :meth:`start` returns. :meth:`stop`
    performs the server's graceful drain.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int = 0,
        **server_kwargs,
    ) -> None:
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._server_kwargs = server_kwargs
        self.server: ReproServer | None = None
        self.address: dict | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("service thread did not start within 30s")
        if self._startup_error is not None:
            raise ReproError(f"service failed to start: {self._startup_error}")
        return self

    async def _main(self) -> None:
        self.server = ReproServer(**self._server_kwargs)
        self._loop = asyncio.get_running_loop()
        try:
            self.address = await self.server.start(
                socket_path=self._socket_path, host=self._host, port=self._port
            )
        except Exception as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_closed()

    def stop(self) -> None:
        """Trigger a graceful shutdown and join the thread.

        Nothing is scheduled once the server is already shutting down
        (say, after a client-sent ``shutdown``). Otherwise the shutdown
        coroutine is created on the loop thread when the callback runs:
        a loop that closes first drops a plain callback, not a coroutine
        that is never awaited.
        """
        server, loop, thread = self.server, self._loop, self._thread
        if (
            server is not None
            and loop is not None
            and thread is not None
            and thread.is_alive()
            and not server._shutting_down
        ):
            try:
                loop.call_soon_threadsafe(server._begin_shutdown)
            except RuntimeError:  # the loop closed since the checks above
                pass
        if thread is not None:
            thread.join(timeout=30)
