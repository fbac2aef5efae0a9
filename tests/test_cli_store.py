"""The ``repro store`` CLI: inspect, compact, recover — and serve flags.

Each test builds a small durable store in ``tmp_path`` through the
public ``Store``/``MarkovStreamDatabase`` API, then drives the CLI via
``main(argv)`` and asserts on the printed report.
"""

from __future__ import annotations

import pytest

from repro.automata.regex import regex_to_dfa
from repro.cli import main
from repro.lahar.database import MarkovStreamDatabase
from repro.store import Store, replay
from repro.store.wal import segment_paths
from repro.transducers.library import accept_filter

from tests.conftest import make_fraction_sequence, make_fraction_timestep

ALPHABET = "ab"


@pytest.fixture
def data_dir(tmp_path, rng):
    data_dir = tmp_path / "data"
    store = Store(data_dir, fsync=False)
    database = MarkovStreamDatabase(store=store)
    database.register_stream("door", make_fraction_sequence(ALPHABET, 2, rng))
    database.register_query(
        "saw-ab", accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))
    )
    for _ in range(4):
        database.append("door", make_fraction_timestep(ALPHABET, rng))
    store.close()
    return data_dir


def test_store_inspect(data_dir, capsys) -> None:
    assert main(["store", "inspect", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert f"store: {data_dir}" in out
    assert "last LSN 6" in out
    assert "snapshot LSN 0 (6 record(s) to replay), 0 snapshot(s)" in out
    assert "6 record(s)" in out
    assert "LSN 1..6" in out
    assert "append: 4" in out
    assert "stream_created: 1" in out
    assert "query_registered: 1" in out
    assert "torn tail" not in out


def test_store_inspect_reports_torn_tail(data_dir, capsys) -> None:
    segment = segment_paths(data_dir / "wal")[0]
    segment.write_bytes(segment.read_bytes()[:-3])
    assert main(["store", "inspect", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "last LSN 5" in out
    assert "torn tail" in out
    assert "recovery will truncate and continue" in out


def test_store_recover(data_dir, capsys) -> None:
    assert main(["store", "recover", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 stream(s), 1 named query(ies), 0 standing" in out
    assert "LSN 6 (snapshot at 0, 6 record(s) replayed, 0 torn bytes" in out
    assert "stream door: length 6" in out
    assert "verify" not in out


def test_store_recover_verify_both_referees(data_dir, capsys) -> None:
    assert main(["store", "recover", str(data_dir), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "verify:    OK — DP + replay referee(s) agree bit-for-bit" in out


def test_store_compact_then_verify(data_dir, capsys) -> None:
    assert main(["store", "compact", str(data_dir), "--no-fsync"]) == 0
    out = capsys.readouterr().out
    assert f"compacted {data_dir}: snapshot at LSN 6" in out

    assert main(["store", "inspect", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "last LSN 6" in out
    assert "snapshot LSN 6 (0 record(s) to replay), 1 snapshot(s)" in out

    # the compacted store passes verification with the DP referee only
    assert main(["store", "recover", str(data_dir), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "0 record(s) replayed" in out
    assert "verify:    OK — DP (log compacted) referee(s)" in out


def test_store_recover_verify_fails_on_tampered_snapshot(
    data_dir, capsys
) -> None:
    import json
    from fractions import Fraction

    # give the DP referee something to check: a standing query,
    # registered on the recovered database the way the server registers it
    recovered = replay(data_dir)
    store = Store(data_dir, fsync=False)
    recovered.database.attach_store(store)
    recovered.alerts.register_standing(
        recovered.database,
        "watch",
        "door",
        "answer",
        "saw-ab",
        recovered.database.resolve_query("saw-ab"),
        (),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    store.close()
    assert main(["store", "compact", str(data_dir), "--no-fsync"]) == 0
    capsys.readouterr()
    snap = next((data_dir / "snapshots").glob("*.snap"))
    document = json.loads(snap.read_text())
    assert document["evaluators"], "the standing query should attach an evaluator"
    document["evaluators"][0]["frontier"][0][1] = "1/999"
    snap.write_text(json.dumps(document, separators=(",", ":"), sort_keys=True))

    assert main(["store", "recover", str(data_dir), "--verify"]) == 1
    captured = capsys.readouterr()
    assert "verify:    FAILED" in captured.err


def test_store_requires_subcommand(capsys) -> None:
    with pytest.raises(SystemExit):
        main(["store"])
    assert "store_command" in capsys.readouterr().err


def test_serve_parser_accepts_durability_flags(tmp_path) -> None:
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "serve",
            "--socket", str(tmp_path / "s.sock"),
            "--data-dir", str(tmp_path / "data"),
            "--no-fsync",
            "--compact-every", "512",
        ]
    )
    assert args.data_dir == str(tmp_path / "data")
    assert args.no_fsync is True
    assert args.compact_every == 512


def test_serve_parser_defaults_to_ephemeral(tmp_path) -> None:
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--socket", str(tmp_path / "s.sock")])
    assert args.data_dir is None
    assert args.no_fsync is False
