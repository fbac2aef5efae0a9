"""Crash recovery: newest snapshot + log-suffix replay = the live state.

:func:`replay` rebuilds a :class:`~repro.serve.sharding.ShardedDatabase`
plus its attached evaluators and the standing-query
:class:`~repro.serve.alerts.AlertEngine` from a store directory:

1. load the newest snapshot (if any) — streams, query catalog, restored
   evaluator frontiers, standing queries with exact hysteresis state;
2. scan the log (repairing a torn final record when asked — a partial
   write from the append in flight at crash time is truncated and
   recovery continues; *interior* damage always refuses with a
   :class:`~repro.errors.ReproError`);
3. apply every record with ``lsn > snapshot.lsn`` by calling the same
   mutation method that journaled it on the live service —
   ``register_stream``, ``append``, ``register_query``,
   :meth:`~repro.serve.alerts.AlertEngine.register_standing` and so on —
   with the journal detached. There is no second implementation of the
   service's handling to keep in sync: appends advance every attached
   evaluator one DP layer and feed each standing query's threshold
   watch, so alert hysteresis (armed flag, fired counts) is reproduced
   bit-identically, never re-fired and never swallowed, and a dropped
   standing query releases its evaluator exactly as it did live.

Because the journal is written *before* each in-memory commit and
fsync'd, the replayed state is a superset-of-acknowledged guarantee:
every operation a client saw succeed is recovered; an unacknowledged
tail-of-one record may be (harmlessly) recovered or truncated.

:func:`verify_recovery` cross-checks the incremental path against a
from-scratch replay that ignores snapshots — the store's self-test, used
by ``repro store recover --verify`` and the oracle-style recovery tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.errors import ReproError
from repro.io.json_format import query_from_dict, sequence_from_dict, sequence_to_dict
from repro.runtime.incremental import StreamingEvaluator
from repro.serve.alerts import AlertEngine, watched_query
from repro.serve.sharding import ShardedDatabase
from repro.store.codec import decode_term, decode_transition, decode_value, encode_value
from repro.store.snapshot import (
    EvaluatorState,
    StandingState,
    StoreState,
    latest_snapshot_lsn,
    load_snapshot,
    snapshot_paths,
)
from repro.store.wal import scan_log, segment_paths


@dataclass
class RecoveredState:
    """Everything :func:`replay` rebuilds from a store directory."""

    database: ShardedDatabase
    alerts: AlertEngine
    last_lsn: int = 0
    snapshot_lsn: int = 0
    records_replayed: int = 0
    truncated_bytes: int = 0


def replay(
    data_dir: str | Path,
    database: ShardedDatabase | None = None,
    use_snapshot: bool = True,
    repair: bool = True,
) -> RecoveredState:
    """Rebuild the full service state from ``data_dir`` into ``database``.

    ``database`` (default: a fresh one-shard :class:`ShardedDatabase`)
    must be empty and have no store attached: replay runs its mutation
    methods, which would otherwise journal every record again. The
    server passes its own database, which also brings its plan cache.
    ``use_snapshot=False`` forces a from-scratch replay of the whole log
    (the referee side of :func:`verify_recovery`); ``repair=False``
    leaves a torn tail on disk untouched (read-only inspection) while
    still skipping it.
    """
    start = time.perf_counter()
    data_dir = Path(data_dir)
    if database is None:
        database = ShardedDatabase()
    recovered = RecoveredState(database=database, alerts=AlertEngine())

    base_lsn = 0
    if use_snapshot:
        loaded = load_snapshot(data_dir / "snapshots")
        if loaded is not None:
            base_lsn, state = loaded
            _apply_snapshot(recovered, state)
            recovered.snapshot_lsn = base_lsn

    scan = scan_log(data_dir / "wal", repair=repair)
    recovered.truncated_bytes = scan.torn_bytes
    for record in scan.records:
        if record["lsn"] <= base_lsn:
            continue
        _apply_record(recovered, record)
        recovered.records_replayed += 1
    recovered.last_lsn = max(scan.last_lsn, base_lsn)
    telemetry.observe("store.replay.seconds", time.perf_counter() - start)
    telemetry.count("store.replay.records", recovered.records_replayed)
    return recovered


# ---------------------------------------------------------------------------
# Snapshot application
# ---------------------------------------------------------------------------


def _apply_snapshot(recovered: RecoveredState, state) -> None:
    database = recovered.database
    for name, sequence in state.streams.items():
        database.register_stream(name, sequence)
    for name, query in state.queries.items():
        database.register_query(name, query)
    for entry in state.evaluators:
        sequence = database.stream(entry.stream)
        if sequence.length != entry.length:
            raise ReproError(
                f"snapshot evaluator for stream {entry.stream!r} is at "
                f"timestep {entry.length} but the stream is at {sequence.length}"
            )
        database.install_evaluator(
            entry.stream,
            StreamingEvaluator.restore(
                entry.query, sequence, entry.frontier, cache=database.plan_cache
            ),
        )
    for entry in state.standing:
        # The evaluator behind the watch is one of the snapshot's
        # evaluators restored above. A snapshot written before monitor
        # watches ran on evaluators has none for them: registration
        # builds it with one full DP over the stream, which gives the
        # same exact value.
        recovered.alerts.register_standing(
            database,
            entry.name,
            entry.stream,
            entry.kind,
            entry.label,
            entry.query,
            tuple(entry.output),
            entry.threshold,
            entry.rearm,
            restored=entry,
        )


# ---------------------------------------------------------------------------
# Log replay: each record runs the live mutation method that wrote it,
# with the journal detached.
# ---------------------------------------------------------------------------


def _apply_record(recovered: RecoveredState, record: dict) -> None:
    data = record.get("data", {})
    record_type = record["type"]
    try:
        handler = _HANDLERS[record_type]
    except KeyError:
        raise ReproError(
            f"unknown WAL record type {record_type!r} at LSN {record['lsn']}"
        ) from None
    try:
        handler(recovered, data)
    except ReproError as exc:
        raise ReproError(
            f"replay failed at LSN {record['lsn']} ({record_type}): {exc}"
        ) from exc


def _replay_stream_created(recovered: RecoveredState, data: dict) -> None:
    name = data["name"]
    if recovered.database.has_stream(name):
        recovered.alerts.drop_stream(name)
    recovered.database.register_stream(name, sequence_from_dict(data["sequence"]))


def _replay_append(recovered: RecoveredState, data: dict) -> None:
    stream = data["stream"]
    grown = recovered.database.append(stream, decode_transition(data["transition"]))
    recovered.alerts.observe_append(stream, grown.length)


def _replay_stream_dropped(recovered: RecoveredState, data: dict) -> None:
    recovered.database.drop_stream(data["name"])
    recovered.alerts.drop_stream(data["name"])


def _replay_query_registered(recovered: RecoveredState, data: dict) -> None:
    recovered.database.register_query(data["name"], query_from_dict(data["query"]))


def _replay_standing_registered(recovered: RecoveredState, data: dict) -> None:
    rearm = data.get("rearm")
    recovered.alerts.register_standing(
        recovered.database,
        data["name"],
        data["stream"],
        data["kind"],
        data["label"],
        query_from_dict(data["query"]),
        decode_term(data["output"]),
        decode_value(data["threshold"]),
        decode_value(rearm) if rearm is not None else None,
    )


def _replay_standing_dropped(recovered: RecoveredState, data: dict) -> None:
    recovered.alerts.drop_standing(recovered.database, data["name"])


_HANDLERS = {
    "stream_created": _replay_stream_created,
    "append": _replay_append,
    "stream_dropped": _replay_stream_dropped,
    "query_registered": _replay_query_registered,
    "standing_registered": _replay_standing_registered,
    "standing_dropped": _replay_standing_dropped,
}


# ---------------------------------------------------------------------------
# State capture (the inverse of _apply_snapshot)
# ---------------------------------------------------------------------------


def capture_state(database: ShardedDatabase, alerts: AlertEngine) -> StoreState:
    """A snapshot-ready :class:`StoreState` image of ``database`` and
    ``alerts``.

    Shared by the server's compactor, ``repro store compact`` and the
    store benchmark; the caller is responsible for consistency (capture
    under the same locks that order appends, or from a quiescent
    :func:`replay` result).
    """
    state = StoreState(
        streams=database.corpus(), queries=database.query_objects()
    )
    for stream, evaluator in database.attached_evaluators():
        state.evaluators.append(
            EvaluatorState(
                stream, evaluator.plan.query, evaluator.length, evaluator.frontier
            )
        )
    for name in alerts.names():
        standing = alerts.get(name)
        state.standing.append(
            StandingState(
                name=standing.name,
                stream=standing.stream,
                kind=standing.kind,
                label=standing.query_label,
                query=standing.query,
                output=standing.output,
                threshold=standing.watch.threshold,
                rearm=standing.watch.rearm,
                value=standing.watch.value,
                armed=standing.watch.armed,
                alerts_fired=standing.alerts_fired,
            )
        )
    return state


# ---------------------------------------------------------------------------
# Verification and inspection
# ---------------------------------------------------------------------------


def verify_recovery(data_dir: str | Path) -> dict:
    """Cross-check incremental recovery against from-scratch evaluation.

    Two referees, both exact:

    * **DP referee** (always): every recovered evaluator frontier and
      standing-query value is compared against a *fresh full-DP run*
      over the recovered sequence — bit-identical Fractions or it's a
      mismatch. This catches any snapshot/restore corruption and works
      even after compaction has deleted the old log.
    * **Replay referee** (when the log is still complete from LSN 1):
      the whole log is replayed with snapshots ignored, and streams,
      standing values, *and hysteresis state* (watch value, armed flag,
      fired count) must match the snapshot-based recovery exactly.

    Read-only (no tail repair). Returns a report dict with ``ok`` and
    any ``mismatches``.
    """
    fast = replay(data_dir, repair=False)
    mismatches: list[str] = []

    # --- DP referee: recovered frontiers vs from-scratch evaluation ---
    for stream, evaluator in fast.database.attached_evaluators():
        # The same plan, so both frontiers key their cells by the same
        # state objects; comparing frontiers, not answers, also catches a
        # bad mass in a cell that no answer reads yet.
        fresh = StreamingEvaluator(evaluator.plan, fast.database.stream(stream))
        if fresh.frontier != evaluator.frontier:
            mismatches.append(
                f"evaluator on {stream!r} "
                f"({evaluator.plan.fingerprint[:12]}) diverges from "
                "from-scratch evaluation"
            )
    for name in fast.alerts.names():
        standing = fast.alerts.get(name)
        referee = (
            StreamingEvaluator(
                watched_query(standing.kind, standing.query),
                fast.database.stream(standing.stream),
            )
            .confidences()
            .get(standing.output, 0)
        )
        if standing.current_value() != referee:
            mismatches.append(
                f"standing {name!r} value {standing.current_value()!r} "
                f"diverges from from-scratch value {referee!r}"
            )

    # --- Replay referee: only possible while the full log survives ---
    scan = scan_log(Path(data_dir) / "wal", repair=False)
    log_complete = bool(scan.records) and scan.records[0]["lsn"] == 1
    if log_complete:
        scratch = replay(data_dir, use_snapshot=False, repair=False)
        if fast.database.streams() != scratch.database.streams():
            mismatches.append(
                f"stream catalogs differ: {fast.database.streams()} vs "
                f"{scratch.database.streams()}"
            )
        for name in set(fast.database.streams()) & set(scratch.database.streams()):
            left = sequence_to_dict(fast.database.stream(name))
            right = sequence_to_dict(scratch.database.stream(name))
            if left != right:
                mismatches.append(f"stream {name!r} content differs from replay")
        if fast.alerts.names() != scratch.alerts.names():
            mismatches.append(
                f"standing catalogs differ: {fast.alerts.names()} vs "
                f"{scratch.alerts.names()}"
            )
        for name in set(fast.alerts.names()) & set(scratch.alerts.names()):
            left, right = fast.alerts.get(name), scratch.alerts.get(name)
            if left.current_value() != right.current_value():
                mismatches.append(
                    f"standing {name!r} value differs from replay: "
                    f"{left.current_value()!r} vs {right.current_value()!r}"
                )
            if (left.watch.value, left.watch.armed, left.alerts_fired) != (
                right.watch.value,
                right.watch.armed,
                right.alerts_fired,
            ):
                mismatches.append(
                    f"standing {name!r} hysteresis state differs from replay"
                )

    return {
        "ok": not mismatches,
        "mismatches": mismatches,
        "last_lsn": fast.last_lsn,
        "snapshot_lsn": fast.snapshot_lsn,
        "records_replayed": fast.records_replayed,
        "log_complete": log_complete,
        "streams": len(fast.database.streams()),
        "standing": len(fast.alerts),
        "evaluators": len(fast.database.attached_evaluators()),
    }


def inspect_data_dir(data_dir: str | Path) -> dict:
    """A read-only structural summary of a store directory (CLI inspect)."""
    data_dir = Path(data_dir)
    scan = scan_log(data_dir / "wal", repair=False)
    counts: dict[str, int] = {}
    for record in scan.records:
        counts[record["type"]] = counts.get(record["type"], 0) + 1
    snapshot_lsn = latest_snapshot_lsn(data_dir / "snapshots")
    return {
        "data_dir": str(data_dir),
        # Right after a compaction the log is empty and the snapshot is
        # the head — the effective position is whichever is newer.
        "last_lsn": max(scan.last_lsn, snapshot_lsn),
        "snapshot_lsn": snapshot_lsn,
        "replay_records": sum(
            1 for record in scan.records if record["lsn"] > snapshot_lsn
        ),
        "snapshots": len(snapshot_paths(data_dir / "snapshots")),
        "segments": [
            {
                "file": info.path.name,
                "records": info.records,
                "bytes": info.good_bytes,
                "first_lsn": info.first_lsn,
                "last_lsn": info.last_lsn,
                "torn_bytes": info.torn_bytes,
            }
            for info in scan.segments
        ],
        "records": counts,
        "torn_bytes": scan.torn_bytes,
        "wal_files": len(segment_paths(data_dir / "wal")),
    }


def standing_values(alerts: AlertEngine) -> dict:
    """``{name: encoded current value}`` — the smoke tests' fingerprint."""
    return {
        name: encode_value(alerts.get(name).current_value())
        for name in alerts.names()
    }
