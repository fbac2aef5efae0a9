"""CLI error paths and the ``repro verify`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io.json_format import write_query, write_sequence
from repro.oracle.generators import generate_instance
from repro.oracle.shrinker import save_case


@pytest.fixture
def stream_files(tmp_path):
    instance = generate_instance("deterministic", seed=1)
    query_path = tmp_path / "query.json"
    seq_path = tmp_path / "stream.json"
    write_query(instance.query, query_path)
    write_sequence(instance.sequence, seq_path)
    return str(seq_path), str(query_path)


# ---------------------------------------------------------------------------
# repro verify
# ---------------------------------------------------------------------------


def test_verify_smoke_run_passes(capsys) -> None:
    code = main(["verify", "--max-rounds", "2", "--no-metamorphic", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("class")
    assert "PASS" in out
    assert "MISS" not in out
    assert "DIFF" not in out


def test_verify_replays_a_corpus(tmp_path, capsys) -> None:
    corpus = tmp_path / "corpus"
    save_case(generate_instance("indexed", seed=3), corpus)
    code = main(
        ["verify", "--max-rounds", "2", "--no-metamorphic", "--corpus", str(corpus)]
    )
    assert code == 0
    assert "(1 corpus, 2 fuzz rounds)" in capsys.readouterr().out


def test_verify_missing_corpus_directory(capsys) -> None:
    assert main(["verify", "--corpus", "/nonexistent/corpus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "does not exist" in err


def test_verify_rejects_unknown_classes(capsys) -> None:
    assert main(["verify", "--classes", "deterministic,bogus"]) == 2
    assert "unknown query class" in capsys.readouterr().err


def test_verify_rejects_non_positive_budget(capsys) -> None:
    assert main(["verify", "--budget", "-1"]) == 2
    assert "--budget must be positive" in capsys.readouterr().err


def test_verify_rejects_malformed_corpus_case(tmp_path, capsys) -> None:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "broken.json").write_text("{oops")
    assert main(["verify", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and "broken.json" in err


# ---------------------------------------------------------------------------
# repro batch
# ---------------------------------------------------------------------------


def test_batch_missing_corpus_directory(stream_files, capsys) -> None:
    _seq, query = stream_files
    code = main(["batch", "--query", query, "--corpus", "/nonexistent/streams"])
    assert code == 2
    assert "not a directory" in capsys.readouterr().err


def test_batch_needs_some_stream(stream_files, capsys) -> None:
    _seq, query = stream_files
    assert main(["batch", "--query", query]) == 2
    assert "--sequence files and/or --corpus" in capsys.readouterr().err


def test_batch_malformed_stream_json(tmp_path, stream_files, capsys) -> None:
    _seq, query = stream_files
    bad = tmp_path / "garbage.json"
    bad.write_text("{this is not json")
    code = main(["batch", "--query", query, "--sequence", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and "garbage.json" in err


def test_batch_wrong_document_kind(tmp_path, stream_files, capsys) -> None:
    _seq, query = stream_files
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"type": "unexpected"}))
    code = main(["batch", "--query", query, "--sequence", str(wrong)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_batch_unreadable_stream_file(stream_files, capsys) -> None:
    _seq, query = stream_files
    code = main(["batch", "--query", query, "--sequence", "/nonexistent/s.json"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err
