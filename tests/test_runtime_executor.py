"""run_evaluate / run_top_k / batch_top_k against the engine facade."""

from __future__ import annotations

import random

import pytest

from repro.errors import ReproError
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.core.engine import evaluate, top_k
from repro.core.results import Order
from repro.runtime.cache import PlanCache
from repro.runtime.executor import batch_top_k, plan_confidence, run_evaluate, run_top_k
from repro.runtime.plan import QueryPlan
from repro.transducers.library import collapse_transducer
from repro.transducers.sprojector import IndexedSProjector, SProjector

from tests.conftest import make_fraction_sequence, make_sequence

ALPHABET = "ab"


def projector(indexed: bool = False) -> SProjector:
    cls = IndexedSProjector if indexed else SProjector
    return cls(sigma_star(ALPHABET), regex_to_dfa("a+", ALPHABET), sigma_star(ALPHABET))


def collapse():
    return collapse_transducer({"a": "X", "b": "Y"})


def as_tuples(answers):
    return [(a.output, a.confidence, a.score) for a in answers]


@pytest.mark.parametrize(
    "build,order",
    [
        (collapse, "unranked"),
        (collapse, "emax"),
        (projector, "unranked"),
        (projector, "imax"),
        (lambda: projector(indexed=True), "confidence"),
    ],
)
def test_prebuilt_plan_matches_engine(build, order) -> None:
    rng = random.Random(11)
    sequence = make_sequence(ALPHABET, 4, rng)
    query = build()
    plan = QueryPlan.build(query)
    assert as_tuples(run_evaluate(plan, sequence, order=order)) == as_tuples(
        evaluate(sequence, query, order=order)
    )


def test_plan_confidence_matches_engine_dispatch() -> None:
    rng = random.Random(3)
    sequence = make_fraction_sequence(ALPHABET, 4, rng)
    for build in (collapse, projector, lambda: projector(indexed=True)):
        query = build()
        plan = QueryPlan.build(query)
        for answer in evaluate(sequence, query, allow_exponential=True):
            assert plan_confidence(plan, sequence, answer.output) == answer.confidence


def test_run_top_k_uses_plan_default_order() -> None:
    rng = random.Random(5)
    sequence = make_sequence(ALPHABET, 4, rng)
    plan = QueryPlan.build(collapse())
    answers = run_top_k(plan, sequence, 3)
    assert [a.order for a in answers] == [Order.EMAX] * len(answers)
    assert as_tuples(answers) == as_tuples(top_k(sequence, collapse(), 3))


def test_limit_truncates() -> None:
    rng = random.Random(7)
    sequence = make_sequence(ALPHABET, 4, rng)
    full = list(run_evaluate(QueryPlan.build(collapse()), sequence))
    assert len(full) > 2
    limited = list(run_evaluate(QueryPlan.build(collapse()), sequence, limit=2))
    assert as_tuples(limited) == as_tuples(full)[:2]


def test_confidence_order_gated_for_non_indexed() -> None:
    rng = random.Random(9)
    sequence = make_sequence(ALPHABET, 3, rng)
    plan = QueryPlan.build(collapse())
    with pytest.raises(ReproError, match="intractable"):
        list(run_evaluate(plan, sequence, order="confidence"))
    oracle = list(run_evaluate(plan, sequence, order="confidence", allow_exponential=True))
    confidences = [a.confidence for a in oracle]
    assert confidences == sorted(confidences, reverse=True)


def test_imax_rejected_for_transducers() -> None:
    rng = random.Random(9)
    sequence = make_sequence(ALPHABET, 3, rng)
    with pytest.raises(ReproError, match="s-projector"):
        list(run_evaluate(QueryPlan.build(collapse()), sequence, order="imax"))


def test_stats_record_evaluations_and_answers() -> None:
    rng = random.Random(13)
    sequence = make_sequence(ALPHABET, 3, rng)
    plan = QueryPlan.build(collapse())
    produced = list(run_evaluate(plan, sequence))
    assert plan.stats.evaluations == 1
    assert plan.stats.answers == len(produced)
    assert plan.stats.seconds >= 0.0
    list(run_evaluate(plan, sequence, limit=1))
    assert plan.stats.evaluations == 2


def test_batch_top_k_merges_by_score() -> None:
    rng = random.Random(17)
    sequences = {name: make_sequence(ALPHABET, 4, rng) for name in ("s1", "s2", "s3")}
    plan = QueryPlan.build(collapse())
    merged = batch_top_k(plan, sequences, 4, order="emax")
    # Global top-4 of the per-stream top-4 candidate pool, by score.
    pool = [
        (name, answer)
        for name, sequence in sequences.items()
        for answer in run_top_k(plan, sequence, 4, order="emax")
    ]
    pool.sort(key=lambda item: (-item[1].score, item[0], item[1].rendered()))
    assert [(n, as_tuples([a])[0]) for n, a in merged] == [
        (n, as_tuples([a])[0]) for n, a in pool[:4]
    ]
    scores = [answer.score for _, answer in merged]
    assert scores == sorted(scores, reverse=True)


def test_batch_top_k_sorts_unranked_answers_last() -> None:
    """score=None must not masquerade as score 0 (it used to sort first
    among, and tie with, genuinely ranked answers)."""
    rng = random.Random(19)
    sequences = {name: make_sequence(ALPHABET, 3, rng) for name in ("b", "a")}
    plan = QueryPlan.build(collapse())
    merged = batch_top_k(plan, sequences, 100, order="unranked")
    assert merged and all(answer.score is None for _, answer in merged)
    keys = [(name, answer.rendered()) for name, answer in merged]
    assert keys == sorted(keys)  # deterministic (stream, output) tiebreak
    # Repeated runs are stable.
    assert keys == [
        (name, answer.rendered())
        for name, answer in batch_top_k(plan, sequences, 100, order="unranked")
    ]


def test_batch_top_k_shares_one_plan() -> None:
    rng = random.Random(23)
    sequences = {name: make_sequence(ALPHABET, 3, rng) for name in ("s1", "s2")}
    cache = PlanCache()
    batch_top_k(collapse(), sequences, 2, cache=cache)
    assert (cache.misses, len(cache)) == (1, 1)

@pytest.mark.parametrize("order", ["emax", "unranked"])
def test_batch_top_k_deferred_confidence_matches_eager(order) -> None:
    """The deterministic-plan batch path defers confidence until after the
    merge (one shared-trie DP per surviving stream); the merged answers
    must be exactly what eager per-stream evaluation produces."""
    rng = random.Random(29)
    sequences = {
        name: make_fraction_sequence(ALPHABET, 4, rng)
        for name in ("s1", "s2", "s3", "s4")
    }
    plan = QueryPlan.build(collapse())
    merged = batch_top_k(plan, sequences, 5, order=order)
    assert merged and all(answer.confidence is not None for _, answer in merged)

    # Eager replication: per-stream ranked answers, then the same merge.
    from repro.runtime.executor import _merge_rank

    candidates = [
        (name, answer)
        for name, sequence in sequences.items()
        for answer in run_top_k(plan, sequence, 5, order=order)
    ]
    candidates.sort(key=_merge_rank)
    expected = candidates[:5]
    assert [(n, a.output, a.score) for n, a in merged] == [
        (n, a.output, a.score) for n, a in expected
    ]
    # Exact Fraction equality: the trie DP computes the same numbers.
    assert [a.confidence for _, a in merged] == [a.confidence for _, a in expected]


def test_batch_top_k_cuts_each_streams_first_k_by_merge_rank() -> None:
    """Each stream offers its first ``k`` answers of ``enumerate_emax``;
    the result is those candidates sorted by ``_merge_rank`` and cut at
    ``k``, whatever order the lazy merge pops them in. ``flat`` has 16
    answers tied at the cut (more than ``k``), so its cap decides which
    of them compete, and ``skew0``/``skew1`` are one stream under two
    names."""
    from fractions import Fraction
    from itertools import islice

    from repro.core.results import Answer
    from repro.enumeration.emax import enumerate_emax
    from repro.markov.builders import uniform_iid
    from repro.markov.sequence import MarkovSequence
    from repro.runtime.executor import _merge_rank

    half = Fraction(1, 2)
    skew = MarkovSequence(
        ("a", "b"),
        {"a": Fraction(9, 10), "b": Fraction(1, 10)},
        [{"a": {"a": Fraction(9, 10), "b": Fraction(1, 10)}, "b": {"a": half, "b": half}}],
    )
    streams = {"skew1": skew, "flat": uniform_iid("ab", 4, exact=True), "skew0": skew}
    plan = QueryPlan.build(collapse())
    k = 8
    every = [
        (name, Answer(output, None, score, Order.EMAX))
        for name, sequence in streams.items()
        for score, output in enumerate_emax(sequence, plan.execution)
    ]
    every.sort(key=_merge_rank)
    cut = every[k - 1][1].score
    assert sum(a.score == cut for n, a in every if n == "flat") > k
    candidates = [
        (name, Answer(output, None, score, Order.EMAX))
        for name, sequence in streams.items()
        for score, output in islice(enumerate_emax(sequence, plan.execution), k)
    ]
    candidates.sort(key=_merge_rank)

    merged = batch_top_k(plan, streams, k, order="emax")
    assert [(n, a.output, a.score) for n, a in merged] == [
        (n, a.output, a.score) for n, a in candidates[:k]
    ]
    for name, answer in merged:
        assert answer.confidence == plan_confidence(plan, streams[name], answer.output)


def test_batch_top_k_pops_at_most_k_answers_per_stream_when_all_tie() -> None:
    """A uniform stream under a per-symbol query has 2**30 answers, all
    tied at ``E_max = 2**-30``. The read still costs ``k`` passes on the
    stream whose name sorts first, and only the seed pass on its twin,
    whose head sorts after the ``k``-th candidate."""
    from repro import telemetry
    from repro.markov.builders import uniform_iid
    from repro.transducers.library import identity_mealy

    uniform = uniform_iid(ALPHABET, 30, exact=True)
    plan = QueryPlan.build(identity_mealy(ALPHABET))
    with telemetry.session() as registry:
        merged = batch_top_k(plan, {"u1": uniform, "u0": uniform}, 5, order="emax")
        passes = registry.snapshot()["counters"]["enumeration.viterbi.passes"]
    assert [name for name, _answer in merged] == ["u0"] * 5
    assert passes == 5 + 1


def test_batch_top_k_pulls_one_viterbi_pass_per_popped_answer() -> None:
    """Lazy merge + one-pass children: the fleet batch costs one seed
    pass per stream plus one pass per popped answer."""
    from benchmarks.bench_parallel import fleet_corpus
    from repro import telemetry
    from repro import room_change_transducer

    corpus = fleet_corpus(8, 12)
    plan = QueryPlan.build(room_change_transducer())
    with telemetry.session() as registry:
        merged = batch_top_k(plan, corpus, 5, order="emax")
        passes = registry.snapshot()["counters"]["enumeration.viterbi.passes"]
    assert len(merged) == 5
    assert passes <= 8 + 5
