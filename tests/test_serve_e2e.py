"""End-to-end acceptance: the service vs offline evaluation, bit for bit.

One Fraction stream is grown append-by-append through the running
service while an offline :class:`MarkovStreamDatabase` replays the same
appends in-process. At every timestep the standing query's watched
value, the alert payload, and one-shot query answers must be *exactly*
equal (``Fraction`` to ``Fraction``, via the ``"p/q"`` wire encoding) —
and the shared plan cache must record exactly one miss, proving the
standing query advances one DP layer per append instead of re-planning.
"""

from __future__ import annotations

import gc
import multiprocessing
import sys
import warnings
from fractions import Fraction

import pytest

from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa, regex_to_nfa
from repro.io.json_format import query_to_dict, sequence_to_dict
from repro.lahar.database import MarkovStreamDatabase
from repro.lahar.monitor import occurrence_profile
from repro.runtime.executor import batch_top_k
from repro.runtime.plan import QueryPlan
from repro.serve import ServeClient, ServerThread
from repro.serve.protocol import decode_value, encode_transition, encode_value
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

from tests.conftest import make_fraction_sequence, make_fraction_timestep

ALPHABET = "ab"
APPENDS = 8


def contains_ab_query():
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


def rare_b_timestep() -> dict:
    """A timestep where 'b' stays rare, so Pr("ab" occurred) climbs
    gradually instead of saturating — the crossing lands mid-run."""
    return {
        "a": {"a": Fraction(9, 10), "b": Fraction(1, 10)},
        "b": {"a": Fraction(9, 10), "b": Fraction(1, 10)},
    }


def rare_b_sequence():
    from repro.markov.sequence import MarkovSequence

    return MarkovSequence(ALPHABET, {"a": Fraction(1)}, [rare_b_timestep()])


def standing_value(client, name: str) -> Fraction:
    entries = {e["name"]: e for e in client.call("stats")["standing"]}
    return decode_value(entries[name]["value"])


def test_standing_query_tracks_offline_database_exactly(tmp_path) -> None:
    sequence = rare_b_sequence()
    timesteps = [rare_b_timestep() for _ in range(APPENDS)]
    query = contains_ab_query()
    pattern = regex_to_nfa("ab", ALPHABET)

    offline = MarkovStreamDatabase()
    offline.register_stream("s", sequence)
    offline_evaluator = offline.streaming_evaluator("s", query)
    offline_values = [offline_evaluator.confidences().get((), 0)]
    grown = sequence
    occurrence_values = [occurrence_profile(grown, pattern)[-1]]
    for timestep in timesteps:
        grown = offline.append("s", timestep)
        offline_values.append(offline_evaluator.confidences().get((), 0))
        occurrence_values.append(occurrence_profile(grown, pattern)[-1])

    # threshold placed strictly between registration value and the final
    # value: exactly one upward crossing exists in this run
    assert offline_values[-1] > offline_values[0]
    threshold = (offline_values[0] + offline_values[-1]) / 2
    crossing = next(
        i for i, value in enumerate(offline_values) if value >= threshold
    )

    path = str(tmp_path / "e2e.sock")
    with ServerThread(socket_path=path, shards=2) as harness:
        with ServeClient.connect_unix(path) as client:
            client.call(
                "register_stream", name="s", sequence=sequence_to_dict(sequence)
            )
            client.call(
                "register_standing_query",
                name="answer-watch",
                stream="s",
                query=query_to_dict(query),
                kind="answer",
                output=[],
                threshold=encode_value(threshold),
            )
            client.call(
                "register_standing_query",
                name="occ-watch",
                stream="s",
                query=query_to_dict(
                    SProjector(
                        sigma_star(ALPHABET),
                        regex_to_dfa("ab", ALPHABET),
                        sigma_star(ALPHABET),
                    )
                ),
                kind="monitor",
                threshold="2/1",  # unreachable; we only check the tracked value
            )
            client.call("subscribe", standing="answer-watch")

            assert standing_value(client, "answer-watch") == offline_values[0]
            assert standing_value(client, "occ-watch") == occurrence_values[0]

            alerted_at = None
            for i, timestep in enumerate(timesteps, start=1):
                result = client.call(
                    "append", stream="s", transition=encode_transition(timestep)
                )
                assert result["length"] == sequence.length + i
                # bit-identical at EVERY timestep, both engines
                assert standing_value(client, "answer-watch") == offline_values[i]
                assert standing_value(client, "occ-watch") == occurrence_values[i]
                if result["alerts"]:
                    assert alerted_at is None, "alert fired twice"
                    alerted_at = i

            # the alert fired exactly at the offline crossing timestep
            assert alerted_at == crossing
            event = client.next_event(timeout=5)
            assert event["event"] == "alert"
            assert decode_value(event["data"]["value"]) == offline_values[crossing]
            assert event["data"]["timestep"] == sequence.length + crossing

            # one-shot reads agree with offline evaluation exactly
            answers = client.call("query", stream="s", query=query_to_dict(query))
            offline_answers = {
                answer.rendered(): answer.confidence
                for answer in offline.query("s", query)
            }
            assert {
                entry["output"]: decode_value(entry["confidence"])
                for entry in answers["answers"]
            } == offline_answers

            # exactly one plan shape per standing query was ever compiled
            # (the answer query and the monitor's occurrence transducer):
            # both advanced incrementally, neither re-planned
            cache = client.call("stats")["database"]["plan_cache"]
            assert cache["misses"] == 2
            assert cache["hits"] >= 1


def test_top_k_across_matches_offline_merge(tmp_path, rng) -> None:
    query = contains_ab_query()
    sequences = {
        name: make_fraction_sequence(ALPHABET, 3, rng) for name in ("s1", "s2", "s3")
    }
    offline = MarkovStreamDatabase()
    for name, sequence in sequences.items():
        offline.register_stream(name, sequence)
    want = [
        (sa.stream, sa.answer.rendered(), sa.answer.score)
        for sa in offline.top_k_across(query, 4, order="emax")
    ]

    path = str(tmp_path / "topk.sock")
    with ServerThread(socket_path=path, shards=2) as harness:
        with ServeClient.connect_unix(path) as client:
            for name, sequence in sequences.items():
                client.call(
                    "register_stream", name=name, sequence=sequence_to_dict(sequence)
                )
            merged = client.call(
                "top_k_across", query=query_to_dict(query), k=4, order="emax"
            )
    got = [
        (entry["stream"], entry["output"], decode_value(entry["score"]))
        for entry in merged["answers"]
    ]
    assert got == want


def test_top_k_across_read_workers_start_no_process(tmp_path, rng) -> None:
    """``pool_workers`` sizes the read threads: the fleet read answers as
    the offline ranked merge does, and no worker process is started."""
    query = contains_ab_query()
    sequences = {f"s{i}": make_fraction_sequence(ALPHABET, 4, rng) for i in range(8)}
    want = [
        (name, answer.rendered(), answer.score, answer.confidence)
        for name, answer in batch_top_k(QueryPlan.build(query), sequences, 5, order="emax")
    ]

    path = str(tmp_path / "workers.sock")
    with ServerThread(socket_path=path, shards=4, pool_workers=2):
        with ServeClient.connect_unix(path) as client:
            for name, sequence in sequences.items():
                client.call(
                    "register_stream", name=name, sequence=sequence_to_dict(sequence)
                )
            merged = client.call(
                "top_k_across", query=query_to_dict(query), k=5, order="emax"
            )
            assert multiprocessing.active_children() == []
    got = [
        (
            entry["stream"],
            entry["output"],
            decode_value(entry["score"]),
            decode_value(entry["confidence"]),
        )
        for entry in merged["answers"]
    ]
    assert got == want


def test_connect_unix_to_missing_path_closes_its_socket(tmp_path, monkeypatch) -> None:
    # A socket left open warns from its finalizer, where the error the
    # filter turns it into can only reach ``sys.unraisablehook``.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(OSError):
            ServeClient.connect_unix(str(tmp_path / "missing.sock"), timeout=1.0)
        gc.collect()
    assert [hook.exc_type for hook in unraisable] == []
