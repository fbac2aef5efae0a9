"""Unit tests for the shrink pass, the push filter on moves, and plan dispatch."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro import telemetry
from repro.automata.nfa import NFA
from repro.confidence.brute_force import brute_force_answers
from repro.confidence.deterministic import confidence_deterministic
from repro.errors import InvalidTransducerError
from repro.oracle.generators import (
    make_fraction_sequence,
    make_random_deterministic_transducer,
    make_sparse_transducer,
)
from repro.runtime.executor import plan_confidence
from repro.runtime.incremental import StreamingEvaluator
from repro.runtime.plan import QueryPlan
from repro.runtime.shrink import push_table, shrink_transducer
from repro.semiring import LOG
from repro.transducers.transducer import Transducer


def _chain_transducer() -> Transducer:
    """a-chain s0->s1->s2(accepting), plus an unreachable and a dead state.

    Every surviving path emits ``x`` then ``y``, so weight pushing must
    discover the guaranteed prefix ``("x", "y")`` at the initial state.
    """
    nfa = NFA(
        "ab",
        ["s0", "s1", "s2", "dead", "lost"],
        "s0",
        {"s2"},
        {
            ("s0", "a"): {"s1"},
            ("s0", "b"): {"dead"},
            ("s1", "a"): {"s2"},
            ("dead", "a"): {"dead"},
            ("lost", "a"): {"s2"},
        },
    )
    omega = {
        ("s0", "a", "s1"): ("x",),
        ("s0", "b", "dead"): ("x",),
        ("s1", "a", "s2"): ("y",),
        ("dead", "a", "dead"): (),
        ("lost", "a", "s2"): ("y",),
    }
    return Transducer(nfa, omega)


def test_shrink_prunes_unreachable_and_dead() -> None:
    shrunk, push, report = shrink_transducer(_chain_transducer())
    assert set(shrunk.nfa.states) == {"s0", "s1", "s2"}
    assert report.states_before == 5
    assert report.states_after == 3
    assert report.pruned_unreachable == 1  # "lost"
    assert report.pruned_dead == 1  # "dead"
    assert report.pruned() == 2
    # The b-move into the dead state is gone.
    assert shrunk.moves("s0", "b") == ()


def test_push_table_guaranteed_prefixes() -> None:
    shrunk, push, report = shrink_transducer(_chain_transducer())
    assert push["s0"] == ("x", "y")
    assert push["s1"] == ("y",)
    assert push["s2"] == ()
    assert report.push_symbols == 3


def test_push_table_empty_on_branching_emissions() -> None:
    # Two accepting continuations with different first symbols: no
    # guarantee survives the lcp.
    nfa = NFA(
        "ab",
        ["p", "q"],
        "p",
        {"q"},
        {("p", "a"): {"q"}, ("p", "b"): {"q"}},
    )
    push = push_table(Transducer(nfa, {("p", "a", "q"): ("x",), ("p", "b", "q"): ("y",)}))
    assert push["p"] == ()


def test_shrink_keeps_dead_initial_state() -> None:
    nfa = NFA("a", ["i", "t"], "i", {"t"}, {})
    shrunk, push, report = shrink_transducer(Transducer(nfa, {}))
    assert shrunk.nfa.initial == "i"
    assert "i" in shrunk.nfa.states
    assert shrunk.nfa.num_transitions == 0
    assert "i" not in push  # dead: no accepting continuation


def test_kernel_rejects_nondeterministic() -> None:
    nfa = NFA("a", ["p", "q"], "p", {"q"}, {("p", "a"): {"p", "q"}})
    omega = {("p", "a", "p"): ("x",), ("p", "a", "q"): ("x",)}
    transducer = Transducer(nfa, omega)
    sequence = make_fraction_sequence("a", 2, random.Random("nondeterministic"))
    with pytest.raises(InvalidTransducerError):
        confidence_deterministic(sequence, transducer, ("x",), push=push_table(transducer))


def test_sparse_kernel_bit_identical_to_reference() -> None:
    rng = random.Random("sparse-kernel-vs-reference")
    for trial in range(10):
        transducer = make_random_deterministic_transducer("ab", 4, rng)
        sequence = make_fraction_sequence("ab", 3, rng)
        shrunk, push, _report = shrink_transducer(transducer)
        for answer in brute_force_answers(sequence, transducer):
            want = confidence_deterministic(sequence, transducer, answer)
            got = confidence_deterministic(sequence, shrunk, answer, push=push)
            assert isinstance(got, (int, Fraction))
            assert got == want
        # An impossible answer must come back exactly zero.
        assert confidence_deterministic(sequence, shrunk, ("x",) * 9, push=push) == 0


def test_log_kernel_matches_log_reference() -> None:
    rng = random.Random("sparse-log-kernel")
    transducer = make_sparse_transducer(num_states=16)
    sequence = make_fraction_sequence(("a", "b", "c"), 4, rng).as_float()
    shrunk, push, _report = shrink_transducer(transducer)
    answers = brute_force_answers(sequence, transducer)
    for answer in list(answers)[:5]:
        want = confidence_deterministic(sequence, transducer, answer, semiring=LOG)
        got = confidence_deterministic(sequence, shrunk, answer, semiring=LOG, push=push)
        assert got == pytest.approx(want, rel=1e-9)


def test_plan_confidence_routes_through_kernel() -> None:
    rng = random.Random("sparse-dispatch")
    transducer = make_sparse_transducer(num_states=64)
    sequence = make_fraction_sequence(("a", "b", "c"), 3, rng)
    shrunk_plan = QueryPlan.build(transducer)
    plain_plan = QueryPlan.build(transducer, shrink=False)
    assert shrunk_plan.push is not None
    assert plain_plan.push is None
    assert "shrink" in shrunk_plan.describe()
    for answer in list(brute_force_answers(sequence, transducer))[:4]:
        want = confidence_deterministic(sequence, transducer, answer)
        assert plan_confidence(shrunk_plan, sequence, answer) == want
        assert plan_confidence(plain_plan, sequence, answer) == want


def test_shrink_off_plan_still_exact() -> None:
    rng = random.Random("sparse-noshrink")
    transducer = _chain_transducer()
    sequence = make_fraction_sequence("ab", 3, rng)
    plan = QueryPlan.build(transducer, shrink=False)
    assert plan.shrunk is None
    assert plan.shrink_report is None
    assert plan.execution is plan.compiled
    for answer, want in brute_force_answers(sequence, transducer).items():
        assert plan_confidence(plan, sequence, answer) == want


def test_streaming_restore_with_sparse_plan() -> None:
    rng = random.Random("sparse-streaming-restore")
    transducer = make_sparse_transducer(num_states=64)
    sequence = make_fraction_sequence(("a", "b", "c"), 3, rng)
    evaluator = StreamingEvaluator(transducer, sequence)
    assert evaluator.plan.shrunk is not None
    restored = StreamingEvaluator.restore(transducer, sequence, evaluator.frontier)
    assert restored.confidences() == evaluator.confidences()
    step = {s: {"a": Fraction(1, 2), "b": Fraction(1, 2)} for s in ("a", "b", "c")}
    assert evaluator.append(step) == restored.append(step)


def test_sparse_metrics_emitted() -> None:
    telemetry.enable()
    try:
        QueryPlan.build(_chain_transducer())
        QueryPlan.build(_chain_transducer(), shrink=False)  # emits nothing
        counters = telemetry.snapshot()["counters"]
        assert counters["sparse.states_pruned"] == 2  # "lost" + "dead"
        assert counters["sparse.push_saved"] == 3  # s0: x, y; s1: y
        assert sorted(name for name in counters if name.startswith("sparse.")) == [
            "sparse.push_saved",
            "sparse.states_pruned",
        ]
    finally:
        telemetry.disable()


def _push_drop_transducer() -> Transducer:
    """Every accepting continuation from ``m`` emits ``z``; ``m`` itself
    is live (it loops on ``a`` and exits on ``b``), so trimming keeps it
    and only the push filter can drop cells that reach it."""
    nfa = NFA(
        "ab",
        ["i", "m", "f"],
        "i",
        {"f"},
        {
            ("i", "a"): {"m"},
            ("i", "b"): {"f"},
            ("m", "a"): {"m"},
            ("m", "b"): {"f"},
            ("f", "a"): {"f"},
            ("f", "b"): {"f"},
        },
    )
    omega = {("i", "a", "m"): ("x",), ("i", "b", "f"): ("y",), ("m", "b", "f"): ("z",)}
    return Transducer(nfa, omega)


class _CountingTransducer(Transducer):
    """Counts DP move lookups: each one expands one live DP cell."""

    __slots__ = ("lookups",)

    def __init__(self, nfa, omega) -> None:
        super().__init__(nfa, omega)
        self.lookups = 0

    def moves(self, state, symbol):
        self.lookups += 1
        return super().moves(state, symbol)


def test_push_filter_drops_cells_bit_identically() -> None:
    shrunk, push, report = shrink_transducer(_push_drop_transducer())
    assert report.pruned() == 0
    assert push["m"] == ("z",)
    sequence = make_fraction_sequence("ab", 4, random.Random("push-drop"))
    for answer in [("x",), ("x", "z"), ("y",), ("x", "z", "z")]:
        plain = _CountingTransducer(shrunk.nfa, shrunk.omega_dict())
        filtered = _CountingTransducer(shrunk.nfa, shrunk.omega_dict())
        want = confidence_deterministic(sequence, plain, answer, push=None)
        got = confidence_deterministic(sequence, filtered, answer, push=push)
        assert type(got) is type(want)
        assert got == want
        if answer == ("x",):
            # (a, m, 1) cannot emit the pushed "z" inside ("x",): the
            # filter drops it at layer 0, so its descendants never expand.
            assert want == 0
            assert filtered.lookups < plain.lookups
    assert confidence_deterministic(sequence, shrunk, ("x", "z"), push=push) > 0
