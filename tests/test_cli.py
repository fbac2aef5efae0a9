"""The command-line interface."""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.examples_data.hospital import hospital_sequence, room_change_transducer
from repro.io.json_format import write_query, write_sequence
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.runtime.executor import batch_top_k, plan_confidence
from repro.runtime.plan import QueryPlan
from repro.transducers.library import collapse_transducer
from repro.transducers.sprojector import IndexedSProjector

from tests.conftest import make_fraction_sequence


@pytest.fixture
def files(tmp_path):
    seq_path = tmp_path / "mu.json"
    query_path = tmp_path / "query.json"
    write_sequence(hospital_sequence(), seq_path)
    write_query(room_change_transducer(), query_path)
    return str(seq_path), str(query_path)


def test_info(files, capsys) -> None:
    seq, query = files
    assert main(["info", "--sequence", seq, "--query", query]) == 0
    out = capsys.readouterr().out
    assert "length 5" in out
    assert "deterministic" in out
    assert "selective" in out


def test_sample(files, capsys) -> None:
    seq, _query = files
    assert main(["sample", "--sequence", seq, "--count", "3", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 5 for line in lines)


def test_evaluate_emax(files, capsys) -> None:
    seq, query = files
    assert (
        main(
            [
                "evaluate",
                "--sequence", seq,
                "--query", query,
                "--order", "emax",
                "--limit", "2",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("12")
    assert "confidence=0.4038" in lines[0]


def test_confidence(files, capsys) -> None:
    seq, query = files
    assert (
        main(["confidence", "--sequence", seq, "--query", query, "--answer", "1,2"])
        == 0
    )
    assert capsys.readouterr().out.strip() == "0.4038"


def test_confidence_indexed_requires_index(tmp_path, capsys) -> None:
    alphabet = ("r1a", "r1b", "r2a", "r2b", "la", "lb")
    projector = IndexedSProjector(
        sigma_star(alphabet),
        regex_to_dfa(".", alphabet),
        sigma_star(alphabet),
    )
    seq_path = tmp_path / "mu.json"
    query_path = tmp_path / "p.json"
    write_sequence(hospital_sequence(), seq_path)
    write_query(projector, query_path)
    code = main(
        ["confidence", "--sequence", str(seq_path), "--query", str(query_path),
         "--answer", "r1a"]
    )
    assert code == 2  # missing --index is a user error
    assert "index" in capsys.readouterr().err
    assert (
        main(
            ["confidence", "--sequence", str(seq_path), "--query", str(query_path),
             "--answer", "r1a", "--index", "1"]
        )
        == 0
    )
    value = float(capsys.readouterr().out)
    assert abs(value - 0.7) < 1e-9  # Pr(S_1 = r1a)


def test_top_k(files, capsys) -> None:
    seq, query = files
    assert main(["top-k", "--sequence", seq, "--query", query, "-k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("12")


def test_profile(files, capsys) -> None:
    seq, query = files
    assert main(["profile", "--sequence", seq, "--query", query]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # one row per position
    for line in lines:
        position, probability, _bar = line.split("\t")
        assert 0.0 <= float(probability) <= 1.0


def test_dot(files, capsys) -> None:
    seq, query = files
    assert main(["dot", "--sequence", seq]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert main(["dot", "--query", query]) == 0
    assert "doublecircle" in capsys.readouterr().out


def test_dot_requires_input(capsys) -> None:
    assert main(["dot"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture
def batch_files(tmp_path):
    """A collapse query plus a directory of three exact length-3 streams."""
    query = collapse_transducer({"a": "X", "b": "Y"})
    query_path = tmp_path / "query.json"
    write_query(query, query_path)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    rng = random.Random(5)
    corpus = {f"s{i:02d}": make_fraction_sequence("ab", 3, rng) for i in range(3)}
    for name, sequence in corpus.items():
        write_sequence(sequence, corpus_dir / f"{name}.json")
    return QueryPlan.build(query), corpus, str(query_path), str(corpus_dir)


def test_cli_batch_top_k(batch_files, capsys) -> None:
    plan, corpus, query, corpus_dir = batch_files
    assert main(["batch", "--query", query, "--corpus", corpus_dir, "-k", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    want = batch_top_k(plan, corpus, 4)
    assert [line.split("\t")[:2] for line in lines] == [
        [name, answer.rendered()] for name, answer in want
    ]
    assert all("score=" in line and "confidence=" in line for line in lines)


def test_cli_batch_confidence_mode(batch_files, capsys) -> None:
    plan, corpus, query, corpus_dir = batch_files
    code = main(["batch", "--query", query, "--corpus", corpus_dir, "--answer", "X,Y,X"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        f"{name}\t{float(plan_confidence(plan, sequence, ('X', 'Y', 'X'))):.10g}"
        for name, sequence in corpus.items()
    ]
