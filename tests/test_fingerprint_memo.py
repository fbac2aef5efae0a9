"""The plan-cache key is computed once per query object.

``fingerprint`` keeps its digest on the (immutable) query object, so a
plan-cache hit on a query seen before hashes nothing. These tests count
the canonicalisation passes directly, and check that the memo never
changes which queries share a plan.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading

import pytest

from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.core.engine import compute_confidence
from repro.io.json_format import query_to_dict, sequence_to_dict
from repro.oracle.generators import CLASS_LABELS, generate_instance, make_fraction_sequence
from repro.runtime import plan as plan_module
from repro.runtime.cache import PlanCache
from repro.runtime.plan import fingerprint
from repro.serve.protocol import decode_value
from repro.serve.server import ReproServer
from repro.transducers.library import collapse_transducer
from repro.transducers.sprojector import SProjector
from repro.transducers.transducer import Transducer

ALPHABET = "ab"


def projector(regex: str) -> SProjector:
    return SProjector(
        sigma_star(ALPHABET), regex_to_dfa(regex, ALPHABET), sigma_star(ALPHABET)
    )


def collapse() -> Transducer:
    return collapse_transducer({"a": "X", "b": "Y"})


@pytest.fixture
def canonicalisations(monkeypatch) -> dict:
    """Count calls of the two canonical serializers behind ``fingerprint``."""
    counts = {"transducer": 0, "dfa": 0}

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        plan_module,
        "_canonical_transducer",
        counting("transducer", plan_module._canonical_transducer),
    )
    monkeypatch.setattr(
        plan_module, "_canonical_dfa", counting("dfa", plan_module._canonical_dfa)
    )
    return counts


def copy_of(query):
    """A separately built object with the same structure (no memo)."""
    if isinstance(query, SProjector):
        return type(query)(query.prefix, query.pattern, query.suffix)
    return Transducer(query.nfa, query.omega_dict())


def test_repeated_confidence_canonicalises_a_transducer_once(canonicalisations) -> None:
    cache = PlanCache()
    query = collapse()
    sequence = make_fraction_sequence(ALPHABET, 4, random.Random(3))
    values = [
        compute_confidence(sequence, query, ("X", "Y"), cache=cache) for _ in range(3)
    ]
    assert values[0] == values[1] == values[2]
    assert canonicalisations == {"transducer": 1, "dfa": 0}
    assert (cache.hits, cache.misses) == (2, 1)


def test_repeated_lookups_canonicalise_an_sprojector_once(canonicalisations) -> None:
    cache = PlanCache()
    query = projector("a+")
    plans = [cache.get(query) for _ in range(4)]
    assert all(plan is plans[0] for plan in plans)
    assert query in cache
    # One pass per component (prefix, pattern, suffix), on the first lookup only.
    assert canonicalisations == {"transducer": 0, "dfa": 3}
    assert (cache.hits, cache.misses) == (3, 1)


def test_registered_query_reads_canonicalise_nothing(canonicalisations) -> None:
    query = collapse()
    sequence = make_fraction_sequence(ALPHABET, 5, random.Random(7))
    server = ReproServer(shards=2)

    async def call(cmd: str, **params) -> dict:
        frame = json.dumps({"id": 1, "cmd": cmd, "params": params}).encode()
        response = await server._dispatch(None, frame + b"\n")
        assert response["ok"], response
        return response["result"]

    async def scenario() -> tuple[list, int]:
        await call("register_stream", name="s", sequence=sequence_to_dict(sequence))
        await call("register_query", name="q", query=query_to_dict(query))
        registered = dict(canonicalisations)
        reads = [
            await call("confidence", stream="s", query="q", output=["X", "Y"])
            for _ in range(2)
        ]
        return reads, canonicalisations["transducer"] - registered["transducer"]

    reads, canonicalised_by_reads = asyncio.run(scenario())
    assert canonicalised_by_reads == 0
    want = compute_confidence(sequence, query, ("X", "Y"), cache=PlanCache())
    assert [decode_value(read["confidence"]) for read in reads] == [want, want]
    assert server.db.plan_cache.hits == 2


def test_durable_registered_query_reads_canonicalise_nothing(
    canonicalisations, tmp_path
) -> None:
    # A durable database plans the serialized form of every query; a
    # registered one is put in that form once, so reads by name (``query``
    # as well as ``confidence``) neither re-serialize nor re-hash it.
    query = collapse()
    sequence = make_fraction_sequence(ALPHABET, 5, random.Random(7))
    server = ReproServer(shards=2, data_dir=str(tmp_path / "data"), fsync=False)

    async def call(cmd: str, **params) -> dict:
        frame = json.dumps({"id": 1, "cmd": cmd, "params": params}).encode()
        response = await server._dispatch(None, frame + b"\n")
        assert response["ok"], response
        return response["result"]

    async def scenario() -> tuple[list, list, int]:
        await call("register_stream", name="s", sequence=sequence_to_dict(sequence))
        await call("register_query", name="q", query=query_to_dict(query))
        registered = dict(canonicalisations)
        answers = [
            await call("query", stream="s", query="q", order="unranked") for _ in range(3)
        ]
        reads = [
            await call("confidence", stream="s", query="q", output=["X", "Y"])
            for _ in range(2)
        ]
        await server.shutdown()
        return answers, reads, canonicalisations["transducer"] - registered["transducer"]

    answers, reads, canonicalised_by_reads = asyncio.run(scenario())
    assert canonicalised_by_reads == 0
    want = compute_confidence(sequence, query, ("X", "Y"), cache=PlanCache())
    assert [decode_value(read["confidence"]) for read in reads] == [want, want]
    assert answers[0] == answers[1] == answers[2]
    assert {"X", "Y"} <= {symbol for answer in answers[0]["answers"] for symbol in answer["output"]}


def test_structurally_equal_transducers_share_one_plan() -> None:
    cache = PlanCache()
    first, second = collapse(), collapse()
    assert first is not second
    assert fingerprint(first) == fingerprint(second)
    plan = cache.get(first)
    assert cache.get(second) is plan
    assert cache.get(second).stats is plan.stats
    assert (cache.hits, cache.misses) == (2, 1)


def test_language_equal_sprojectors_share_one_plan() -> None:
    cache = PlanCache()
    plus, star = projector("a+"), projector("aa*")
    assert fingerprint(plus) == fingerprint(star)
    plan = cache.get(plus)
    assert cache.get(star) is plan
    assert cache.get(star).stats is plan.stats
    assert fingerprint(projector("b+")) != fingerprint(plus)


@pytest.mark.parametrize("label", CLASS_LABELS)
@pytest.mark.parametrize("seed", range(4))
def test_memoised_fingerprint_equals_a_fresh_computation(label, seed) -> None:
    query = generate_instance(label, seed=seed, trial=seed).query
    memo = fingerprint(query)
    assert fingerprint(query) == memo  # the second call reads the memo
    twin = copy_of(query)
    assert twin._fingerprint is None
    assert plan_module._structural_digest(twin) == memo
    assert fingerprint(twin) == memo


def test_concurrent_first_lookups_agree_on_one_plan() -> None:
    # Threads may race to fill one object's memo; every racer computes
    # the same digest, so the cache must still hold one plan and count
    # every lookup.
    cache = PlanCache()
    shared = collapse()
    threads, lookups = 8, 50
    plans: list = []
    lock = threading.Lock()

    def worker() -> None:
        for i in range(lookups):
            plan = cache.get(shared if i % 2 else collapse())
            with lock:
                plans.append(plan)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert len(plans) == threads * lookups
    assert all(plan is plans[0] for plan in plans)
    assert (cache.hits + cache.misses, cache.misses, len(cache)) == (threads * lookups, 1, 1)
    assert shared._fingerprint == plans[0].fingerprint
