"""``repro.store``: the durable substrate under the streaming service.

A write-ahead log plus frontier snapshots plus compaction, giving
``repro serve --data-dir`` (and any :class:`MarkovStreamDatabase` with a
store attached) crash durability with *incremental* recovery:

:mod:`~repro.store.wal`
    Append-only segment log — length-prefixed, checksummed NDJSON
    records with exact ``p/q`` Fractions, fsync'd on commit, rotated
    into numbered segments. Torn final records are truncated on
    recovery; interior corruption refuses loudly.
:mod:`~repro.store.snapshot`
    Atomic frontier snapshots: (plan fingerprint, DP frontier, timestep)
    triples for every attached evaluator, plus streams,
    queries, and standing-query hysteresis state.
:mod:`~repro.store.recovery`
    Snapshot + log-suffix replay rebuilding the database, evaluators,
    and alert engine bit-identically to an uninterrupted run —
    verifiable against a from-scratch replay.
:mod:`~repro.store.store`
    The :class:`Store` facade the database and server journal through,
    and the :class:`CompactionPolicy` that folds the log into a fresh
    snapshot.
:mod:`~repro.store.codec`
    Tagged-JSON round-tripping of frontier keys (tuples, frozensets,
    Fractions) — recovered keys are value-equal to the originals.

On-disk layout, the CLI (``repro store inspect | compact | recover``),
and the ``store.*`` metrics are documented in ``docs/USAGE.md`` and
``docs/OBSERVABILITY.md``.
"""

from repro.store.codec import (
    decode_frontier,
    decode_term,
    encode_frontier,
    encode_term,
)
from repro.store.recovery import (
    RecoveredState,
    capture_state,
    inspect_data_dir,
    replay,
    verify_recovery,
)
from repro.store.snapshot import (
    EvaluatorState,
    SNAPSHOT_FORMAT,
    StandingState,
    StoreState,
    load_snapshot,
    write_snapshot,
)
from repro.store.store import CompactionPolicy, Store
from repro.store.wal import LogScan, SegmentInfo, WriteAheadLog, scan_log

__all__ = [
    "CompactionPolicy",
    "EvaluatorState",
    "LogScan",
    "RecoveredState",
    "SNAPSHOT_FORMAT",
    "SegmentInfo",
    "StandingState",
    "Store",
    "StoreState",
    "WriteAheadLog",
    "capture_state",
    "decode_frontier",
    "decode_term",
    "encode_frontier",
    "encode_term",
    "inspect_data_dir",
    "load_snapshot",
    "replay",
    "scan_log",
    "verify_recovery",
    "write_snapshot",
]
