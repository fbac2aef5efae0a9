"""Frontier snapshots: the materialized state the log suffix replays onto.

A snapshot file ``snapshots/{lsn:016d}.snap`` captures everything the
service holds in memory at one log position:

* every stream's sequence (the repro.io interchange document);
* the registered query catalog;
* every attached :class:`~repro.runtime.incremental.StreamingEvaluator`
  as a ``(stream, query, timestep index, frontier)`` tuple — the plan is
  recompiled from the query at load time (plans are deterministic per
  fingerprint, so the compiled state objects are value-equal to the ones
  in the persisted frontier keys);
* every standing query, including its
  :class:`~repro.serve.alerts.ThresholdWatch` hysteresis state (value +
  armed flag). Its engine is one of the evaluators above, a monitor
  watch's included, so no standing entry carries a frontier of its own.
  Snapshots written before monitor watches ran on evaluators hold a
  ``"monitor"`` field with a product-DP layer; the decoder accepts and
  ignores it, and recovery rebuilds that watch's evaluator from the
  stream with one full DP, which gives the same exact value.

Recovery loads the newest snapshot and replays only records with
``lsn > snapshot.lsn`` — the whole point: restart cost is proportional
to the log *suffix*, not the stream history.

Snapshots are written atomically (temp file + ``os.replace`` + fsync),
so a crash mid-snapshot leaves the previous snapshot intact and the
recovery path untouched.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.errors import ReproError
from repro.io.json_format import (
    query_from_dict,
    query_to_dict,
    sequence_from_dict,
    sequence_to_dict,
)
from repro.markov.sequence import MarkovSequence
from repro.store.codec import (
    decode_frontier,
    decode_term,
    decode_value,
    encode_frontier,
    encode_term,
    encode_value,
)

#: On-disk snapshot format identifier.
SNAPSHOT_FORMAT = "repro-store/1"

_SNAPSHOT_SUFFIX = ".snap"


@dataclass
class EvaluatorState:
    """One attached streaming evaluator, frozen at the snapshot LSN."""

    stream: str
    query: object
    length: int
    frontier: dict


@dataclass
class StandingState:
    """One standing query with its full alert/hysteresis state."""

    name: str
    stream: str
    kind: str  # "answer" | "monitor"
    label: str
    query: object
    output: tuple
    threshold: object
    rearm: object
    value: object
    armed: bool
    alerts_fired: int


@dataclass
class StoreState:
    """Everything a snapshot persists (and recovery rebuilds)."""

    streams: dict[str, MarkovSequence] = field(default_factory=dict)
    queries: dict[str, object] = field(default_factory=dict)
    evaluators: list[EvaluatorState] = field(default_factory=list)
    standing: list[StandingState] = field(default_factory=list)


def state_to_dict(state: StoreState) -> dict:
    """Encode a :class:`StoreState` as a JSON-ready document."""
    return {
        "format": SNAPSHOT_FORMAT,
        "streams": {
            name: sequence_to_dict(sequence)
            for name, sequence in sorted(state.streams.items())
        },
        "queries": {
            name: query_to_dict(query)
            for name, query in sorted(state.queries.items())
        },
        "evaluators": [
            {
                "stream": entry.stream,
                "query": query_to_dict(entry.query),
                "length": entry.length,
                "frontier": encode_frontier(entry.frontier),
            }
            for entry in state.evaluators
        ],
        "standing": [
            {
                "name": entry.name,
                "stream": entry.stream,
                "kind": entry.kind,
                "label": entry.label,
                "query": query_to_dict(entry.query),
                "output": encode_term(tuple(entry.output)),
                "threshold": encode_value(entry.threshold),
                "rearm": encode_value(entry.rearm),
                "value": (
                    encode_value(entry.value) if entry.value is not None else None
                ),
                "armed": entry.armed,
                "alerts_fired": entry.alerts_fired,
            }
            for entry in sorted(state.standing, key=lambda s: s.name)
        ],
    }


def state_from_dict(document: dict) -> StoreState:
    """Decode a snapshot document back to a :class:`StoreState`."""
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise ReproError(
            f"not a {SNAPSHOT_FORMAT} snapshot: {document.get('format')!r}"
            if isinstance(document, dict)
            else f"malformed snapshot document {type(document).__name__}"
        )
    try:
        state = StoreState(
            streams={
                name: sequence_from_dict(doc)
                for name, doc in document.get("streams", {}).items()
            },
            queries={
                name: query_from_dict(doc)
                for name, doc in document.get("queries", {}).items()
            },
        )
        for entry in document.get("evaluators", []):
            state.evaluators.append(
                EvaluatorState(
                    stream=entry["stream"],
                    query=query_from_dict(entry["query"]),
                    length=entry["length"],
                    frontier=decode_frontier(entry["frontier"]),
                )
            )
        for entry in document.get("standing", []):
            state.standing.append(
                StandingState(
                    name=entry["name"],
                    stream=entry["stream"],
                    kind=entry["kind"],
                    label=entry["label"],
                    query=query_from_dict(entry["query"]),
                    output=decode_term(entry["output"]),
                    threshold=decode_value(entry["threshold"]),
                    rearm=decode_value(entry["rearm"]),
                    value=(
                        decode_value(entry["value"])
                        if entry.get("value") is not None
                        else None
                    ),
                    armed=bool(entry["armed"]),
                    alerts_fired=entry["alerts_fired"],
                )
            )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed snapshot document: {exc}") from exc
    return state


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def snapshot_path(snapshot_dir: Path, lsn: int) -> Path:
    return Path(snapshot_dir) / f"{lsn:016d}{_SNAPSHOT_SUFFIX}"


def snapshot_paths(snapshot_dir: Path) -> list[Path]:
    """Snapshot files under ``snapshot_dir``, oldest first."""
    return sorted(Path(snapshot_dir).glob(f"*{_SNAPSHOT_SUFFIX}"))


def snapshot_lsn(path: Path) -> int:
    """The log position a snapshot file captures (from its name)."""
    try:
        return int(path.stem)
    except ValueError:
        raise ReproError(f"bad snapshot filename {path.name!r}") from None


def write_snapshot(snapshot_dir: str | Path, lsn: int, state: StoreState) -> Path:
    """Atomically persist ``state`` as the snapshot at ``lsn``.

    The document lands in a temp file that is fsync'd and then
    ``os.replace``'d into place — a crash at any point leaves either the
    old snapshot set or the complete new file, never a torn snapshot.
    """
    snapshot_dir = Path(snapshot_dir)
    snapshot_dir.mkdir(parents=True, exist_ok=True)
    path = snapshot_path(snapshot_dir, lsn)
    start = time.perf_counter()
    payload = json.dumps(state_to_dict(state), separators=(",", ":"), sort_keys=True)
    tmp = path.with_suffix(".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    telemetry.count("store.snapshots")
    telemetry.observe("store.snapshot.seconds", time.perf_counter() - start)
    return path


def load_snapshot(snapshot_dir: str | Path) -> tuple[int, StoreState] | None:
    """Load the newest snapshot; ``None`` when the directory has none."""
    paths = snapshot_paths(Path(snapshot_dir))
    if not paths:
        return None
    path = paths[-1]
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load snapshot {path.name}: {exc}") from exc
    return snapshot_lsn(path), state_from_dict(document)


def latest_snapshot_lsn(snapshot_dir: str | Path) -> int:
    """The newest snapshot's LSN, or 0 when there is none."""
    paths = snapshot_paths(Path(snapshot_dir))
    return snapshot_lsn(paths[-1]) if paths else 0


def delete_snapshots_before(snapshot_dir: str | Path, lsn: int) -> int:
    """Delete snapshots older than ``lsn``; returns the count removed."""
    deleted = 0
    for path in snapshot_paths(Path(snapshot_dir)):
        if snapshot_lsn(path) < lsn:
            path.unlink()
            deleted += 1
    return deleted
