"""Oracle-checked crash recovery: randomized kill points, bit-identical state.

The live side of these tests runs the server's mutation methods on a
journaled database *without* going through :mod:`repro.store.recovery`
(standing queries through :meth:`AlertEngine.register_standing`, appends
fed to the :class:`AlertEngine` by hand), checkpointing a full state
fingerprint after every journaled record. Killing the log at any byte —
record boundaries and mid-record tears alike — must recover exactly the
checkpoint of the last complete record: streams, standing-query values,
and hysteresis (armed flag, fired count) all bit-identical.
"""

from __future__ import annotations

import shutil
from fractions import Fraction

import pytest

from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.errors import ReproError
from repro.io.json_format import query_from_dict, query_to_dict, sequence_to_dict
from repro.lahar.database import MarkovStreamDatabase
from repro.serve.alerts import AlertEngine
from repro.store import Store, capture_state, replay, verify_recovery
from repro.store.codec import encode_value
from repro.store.wal import segment_paths
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

from tests.conftest import make_fraction_sequence, make_fraction_timestep

ALPHABET = "ab"
APPENDS = 6


def canonical(query):
    """The JSON-round-tripped twin — what durable paths always plan."""
    return query_from_dict(query_to_dict(query))


def contains_ab_query():
    return canonical(accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET)))


def occurrence_ab_query():
    alphabet = sigma_star(ALPHABET)
    return canonical(SProjector(alphabet, regex_to_dfa("ab", ALPHABET), alphabet))


def fingerprint(database: MarkovStreamDatabase, alerts: AlertEngine) -> dict:
    """Everything recovery promises to reproduce, in comparable form."""
    return {
        "streams": {
            name: sequence_to_dict(database.stream(name))
            for name in database.streams()
        },
        "queries": database.queries(),
        "standing": {
            name: {
                "value": encode_value(alerts.get(name).current_value()),
                "watch_value": alerts.get(name).watch.value,
                "armed": alerts.get(name).watch.armed,
                "alerts_fired": alerts.get(name).alerts_fired,
            }
            for name in alerts.names()
        },
    }


def run_workload(data_dir, rng) -> list[dict]:
    """Journal a server-shaped workload; returns ``checkpoints`` where
    ``checkpoints[k]`` is the state fingerprint after ``k`` records."""
    store = Store(data_dir, fsync=False)
    database = MarkovStreamDatabase(store=store)
    alerts = AlertEngine()
    checkpoints = [fingerprint(database, alerts)]

    database.register_stream("s", make_fraction_sequence(ALPHABET, 2, rng))
    checkpoints.append(fingerprint(database, alerts))

    query = contains_ab_query()
    database.register_query("q", query)
    checkpoints.append(fingerprint(database, alerts))

    # answer-kind standing query (born above its threshold, so it
    # starts disarmed)
    alerts.register_standing(
        database, "watch", "s", "answer", "q", query, (), Fraction(1, 100), Fraction(1, 200)
    )
    checkpoints.append(fingerprint(database, alerts))

    alerts.register_standing(
        database,
        "occ",
        "s",
        "monitor",
        "occ",
        occurrence_ab_query(),
        (),
        Fraction(1, 8),
        Fraction(1, 16),
    )
    checkpoints.append(fingerprint(database, alerts))

    for _ in range(APPENDS):
        transition = make_fraction_timestep(ALPHABET, rng)
        grown = database.append("s", transition)
        alerts.observe_append("s", grown.length)
        checkpoints.append(fingerprint(database, alerts))

    store.close()
    return checkpoints


def record_boundaries(segment: bytes) -> list[int]:
    """Byte offsets at which each record ends (``[0]`` = empty prefix)."""
    offsets = [0]
    pos = 0
    while pos < len(segment):
        length = int(segment[pos : pos + 8], 16)
        pos += 17 + length + 1
        offsets.append(pos)
    return offsets


def recovered_fingerprint(data_dir) -> tuple[dict, object]:
    recovered = replay(data_dir)
    return fingerprint(recovered.database, recovered.alerts), recovered


@pytest.fixture
def workload(tmp_path, rng):
    data_dir = tmp_path / "data"
    checkpoints = run_workload(data_dir, rng)
    segment = segment_paths(data_dir / "wal")[0]
    return data_dir, checkpoints, segment


def kill_at(data_dir, segment, offset: int):
    """A copy of the store with the log sheared at byte ``offset``."""
    kill_dir = data_dir.parent / f"kill-{offset}"
    shutil.copytree(data_dir, kill_dir)
    target = kill_dir / "wal" / segment.name
    target.write_bytes(segment.read_bytes()[:offset])
    return kill_dir


def test_workload_exercises_hysteresis(workload) -> None:
    """The final checkpoint must cover the interesting alert states —
    otherwise the bit-identical claims below are vacuous."""
    _data_dir, checkpoints, _segment = workload
    final = checkpoints[-1]["standing"]
    # "watch" is born above its threshold: registration disarms it and
    # it never fires — the restore path must not re-fire it
    assert final["watch"]["armed"] is False
    assert final["watch"]["alerts_fired"] == 0
    # "occ" fluctuates: it fires, re-arms below the re-arm level, and
    # fires again, so checkpoints cover both armed states mid-band
    assert final["occ"]["alerts_fired"] >= 2
    armed_states = {
        checkpoint["standing"]["occ"]["armed"]
        for checkpoint in checkpoints
        if "occ" in checkpoint["standing"]
    }
    assert armed_states == {True, False}


def test_kill_at_every_record_boundary_recovers_checkpoint(workload) -> None:
    data_dir, checkpoints, segment = workload
    boundaries = record_boundaries(segment.read_bytes())
    assert len(boundaries) == len(checkpoints)
    for k, offset in enumerate(boundaries):
        kill_dir = kill_at(data_dir, segment, offset)
        recovered_state, recovered = recovered_fingerprint(kill_dir)
        assert recovered_state == checkpoints[k], f"kill after record {k}"
        assert recovered.last_lsn == k
        assert recovered.truncated_bytes == 0
        report = verify_recovery(kill_dir)
        assert report["ok"], (k, report["mismatches"])


def test_kill_mid_record_truncates_and_continues(workload, rng) -> None:
    data_dir, checkpoints, segment = workload
    whole = segment.read_bytes()
    boundaries = record_boundaries(whole)
    # a handful of tears strictly inside random records (first byte of a
    # frame up to one byte short of its end)
    interior = []
    for _ in range(5):
        k = rng.randrange(len(boundaries) - 1)
        interior.append(rng.randrange(boundaries[k] + 1, boundaries[k + 1]))
    for offset in interior:
        k = max(i for i, b in enumerate(boundaries) if b <= offset)
        kill_dir = kill_at(data_dir, segment, offset)
        recovered_state, recovered = recovered_fingerprint(kill_dir)
        assert recovered_state == checkpoints[k], f"tear at byte {offset}"
        assert recovered.truncated_bytes == offset - boundaries[k]

        # truncate-and-continue: the repaired log accepts the next append
        store = Store(kill_dir, fsync=False)
        assert store.last_lsn == k
        database = MarkovStreamDatabase(store=store)
        database.register_stream("t", make_fraction_sequence(ALPHABET, 2, rng))
        store.close()
        resumed = replay(kill_dir)
        assert resumed.last_lsn == k + 1
        assert "t" in resumed.database.streams()
        assert resumed.truncated_bytes == 0


def test_interior_corruption_refuses_with_context(workload) -> None:
    data_dir, _checkpoints, segment = workload
    data = bytearray(segment.read_bytes())
    boundaries = record_boundaries(bytes(data))
    # flip a payload byte of the third record: complete frame, bad CRC
    data[boundaries[2] + 20] ^= 0xFF
    segment.write_bytes(bytes(data))
    with pytest.raises(ReproError, match="checksum mismatch"):
        replay(data_dir)


def test_unknown_record_type_refuses_with_lsn(tmp_path, rng) -> None:
    data_dir = tmp_path / "data"
    store = Store(data_dir, fsync=False)
    database = MarkovStreamDatabase(store=store)
    database.register_stream("s", make_fraction_sequence(ALPHABET, 2, rng))
    store.wal.append("hologram", {})  # a record from the future
    store.close()
    with pytest.raises(ReproError, match="unknown WAL record type 'hologram'"):
        replay(data_dir)


def test_replay_error_carries_lsn_context(tmp_path, rng) -> None:
    data_dir = tmp_path / "data"
    store = Store(data_dir, fsync=False)
    store.log_append("ghost", {"a": {"a": "1/1"}})  # stream never created
    store.close()
    with pytest.raises(ReproError, match=r"replay failed at LSN 1 \(append\)"):
        replay(data_dir)


def test_verify_recovery_catches_tampered_snapshot(workload) -> None:
    """The DP referee is live: a forged frontier mass fails verification."""
    import json

    data_dir, _checkpoints, _segment = workload
    recovered = replay(data_dir)
    store = Store(data_dir, fsync=False)
    store.compact(capture_state(recovered.database, recovered.alerts))
    store.close()
    assert verify_recovery(data_dir)["ok"]

    snap = next((data_dir / "snapshots").glob("*.snap"))
    document = json.loads(snap.read_text())
    assert document["evaluators"], "workload should have attached evaluators"
    document["evaluators"][0]["frontier"][0][1] = "1/999"
    snap.write_text(json.dumps(document, separators=(",", ":"), sort_keys=True))
    report = verify_recovery(data_dir)
    assert not report["ok"]
    assert any("diverges" in mismatch for mismatch in report["mismatches"])


def test_compacted_store_recovers_same_fingerprint(workload) -> None:
    data_dir, checkpoints, _segment = workload
    recovered = replay(data_dir)
    store = Store(data_dir, fsync=False)
    store.compact(capture_state(recovered.database, recovered.alerts))
    store.close()
    recovered_state, recovered = recovered_fingerprint(data_dir)
    assert recovered_state == checkpoints[-1]
    assert recovered.records_replayed == 0  # pure snapshot restore
    report = verify_recovery(data_dir)
    assert report["ok"], report["mismatches"]
    assert report["log_complete"] is False


# ---------------------------------------------------------------------------
# Monitor watches across hash seeds
# ---------------------------------------------------------------------------

#: Run in a subprocess as ``python -c SESSION {write|recover} DATA_DIR``.
#: ``write`` journals a durable session with an answer and a monitor watch
#: and compacts it; ``recover`` replays the store. Each prints a JSON line.
SESSION = """
import json, sys
from fractions import Fraction as F

from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.io.json_format import query_from_dict, query_to_dict
from repro.markov.builders import homogeneous
from repro.serve.alerts import AlertEngine
from repro.serve.sharding import ShardedDatabase
from repro.store import Store, capture_state, replay, verify_recovery
from repro.store.recovery import standing_values
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

mode, data_dir = sys.argv[1], sys.argv[2]
if mode == "write":
    rows = {"a": {"a": F(2, 3), "b": F(1, 3)}, "b": {"a": F(3, 7), "b": F(4, 7)}}
    store = Store(data_dir, fsync=False)
    db = ShardedDatabase()
    db.attach_store(store)
    alerts = AlertEngine()
    db.register_stream("s", homogeneous({"a": F(1, 2), "b": F(1, 2)}, rows, 2))
    sigma = sigma_star("ab")
    watches = {
        "answer": accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", "ab")),
        "occ": SProjector(sigma, regex_to_dfa("abb", "ab"), sigma),
    }
    for name, query in watches.items():
        query = query_from_dict(query_to_dict(query))
        kind = "answer" if name == "answer" else "monitor"
        alerts.register_standing(db, name, "s", kind, name, query, (), F(1, 2), F(1, 4))
    for step in range(12):
        grown = db.append("s", rows if step % 3 else {"a": {"b": 1}, "b": {"b": 1}})
        alerts.observe_append("s", grown.length)
    store.compact(capture_state(db, alerts))
    store.close()
    print(json.dumps({
        "attached": len(db.attached_evaluators()),
        "standing": standing_values(alerts),
    }))
else:
    recovered = replay(data_dir)
    plans = {id(e.plan): e.plan for _s, e in recovered.database.attached_evaluators()}
    print(json.dumps({
        "attached": len(recovered.database.attached_evaluators()),
        "layers": sum(plan.stats.appends for plan in plans.values()),
        "replayed": recovered.records_replayed,
        "standing": standing_values(recovered.alerts),
        "verified": verify_recovery(data_dir)["ok"],
    }))
"""


def run_session(mode: str, data_dir, hash_seed: str) -> dict:
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", SESSION, mode, str(data_dir)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_monitor_watch_snapshot_is_hash_seed_independent(tmp_path) -> None:
    """A compacted session with a monitor watch writes the same snapshot
    bytes under any ``PYTHONHASHSEED``, and a recovery under another seed
    restores every evaluator, the monitor's occurrence evaluator
    included, from that snapshot without pushing a DP layer."""
    seeds = ("0", "4242")
    live = {seed: run_session("write", tmp_path / seed, seed) for seed in seeds}
    assert live["0"] == live["4242"]
    (first,), (second,) = (
        list((tmp_path / seed / "snapshots").iterdir()) for seed in seeds
    )
    assert first.read_bytes() == second.read_bytes()
    assert live["0"]["attached"] == 2  # the answer and the occurrence evaluator

    for written, recovering in zip(seeds, reversed(seeds)):
        recovered = run_session("recover", tmp_path / written, recovering)
        assert recovered["attached"] == live[written]["attached"]
        assert (recovered["replayed"], recovered["layers"]) == (0, 0)
        assert recovered["standing"] == live[written]["standing"]
        assert recovered["verified"] is True
