"""The one layer step, forward and backward, and the DP layers it must
keep bit-identical.

The first tests check :mod:`repro.confidence.layered` on its own. The
streaming evaluator's ``frontier`` (a monitor watch's included) is
what ``repro-store/1`` snapshots persist, and the per-append
``runtime.append.cells`` value is the ``dp_layer_cells`` cost counter.
The literal dicts and counts below pin both on a tiny exact
instance, so a snapshot written by an earlier revision still restores
and the counter keeps its meaning.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from repro import telemetry
from repro.automata.nfa import NFA
from repro.automata.regex import regex_to_nfa
from repro.confidence.layered import (
    automaton_advance,
    backward,
    final_layer,
    forward,
    node_advance,
    step,
    step_back,
)
from repro.lahar.monitor import unanchored_match_dfa
from repro.markov.sequence import MarkovSequence
from repro.oracle.generators import make_fraction_sequence, make_random_dfa
from repro.runtime.incremental import StreamingEvaluator
from repro.runtime.plan import QueryPlan
from repro.semiring import ALL_SEMIRINGS, LOG, REAL, TROPICAL, VITERBI
from repro.transducers.library import accept_filter, collapse_transducer
from repro.transducers.transducer import Transducer

#: Length 2, exact: a world ``b b`` is impossible.
SEQUENCE = MarkovSequence(
    "ab",
    {"a": F(1, 3), "b": F(2, 3)},
    [{"a": {"a": F(1, 4), "b": F(3, 4)}, "b": {"a": F(1)}}],
)
#: The appended third timestep.
STEP = {"a": {"a": F(1, 2), "b": F(1, 2)}, "b": {"b": F(1)}}


def test_forward_layers_are_the_node_marginals() -> None:
    layers = list(forward(SEQUENCE, (), node_advance))
    worlds = list(SEQUENCE.worlds())
    assert len(layers) == SEQUENCE.length
    for i, layer in enumerate(layers):
        marginal: dict = {}
        for world, prob in worlds:
            marginal[(world[i],)] = marginal.get((world[i],), 0) + prob
        assert layer == marginal
    assert final_layer(SEQUENCE, (), node_advance) == layers[-1]


def test_step_moves_mass_along_every_yielded_cell() -> None:
    def fork(cell, target):
        # Two cells per move, and nothing out of ``("b", 1)``.
        if cell != ("b", 1):
            yield (target, 0)
            yield (target, 1)

    layer = {("a", 0): F(1, 2), ("b", 1): F(1, 3), ("c", 0): F(1, 6)}
    rows = {"a": {"a": F(1, 4), "b": F(3, 4)}, "b": {"a": F(1)}}
    assert step(layer, rows, fork) == {
        ("a", 0): F(1, 8),
        ("a", 1): F(1, 8),
        ("b", 0): F(3, 8),
        ("b", 1): F(3, 8),
    }
    # Both cells of ``a`` reach every target cell; VITERBI keeps the max.
    assert step({("a", 0): F(1, 2), ("a", 1): F(1, 3)}, rows, fork, VITERBI) == {
        ("a", 0): F(1, 8),
        ("a", 1): F(1, 8),
        ("b", 0): F(3, 8),
        ("b", 1): F(3, 8),
    }


def test_step_back_pulls_over_the_named_cells_only() -> None:
    def fork(cell, target):
        yield (target, 0)
        yield (target, 1)

    layer = {("a", 0): F(1, 2), ("a", 1): F(1, 3), ("b", 1): F(1, 6)}
    rows = {"a": {"a": F(1, 4), "b": F(3, 4)}, "b": {"b": F(1)}}
    # ("b", 0) is absent from ``layer``: it counts as zero. ("c", 0) has
    # no row, ("x", 0) is not named, and nothing reaches ``b``'s zero.
    cells = [("a", 0), ("b", 0), ("c", 0)]
    assert step_back(layer, rows, cells, fork) == {
        ("a", 0): F(1, 4) * (F(1, 2) + F(1, 3)) + F(3, 4) * F(1, 6),
        ("b", 0): F(1, 6),
    }
    assert step_back({("a", 0): F(0)}, rows, cells, fork) == {}
    # VITERBI keeps the best continuation.
    assert step_back(layer, rows, cells[:1], fork, VITERBI) == {("a", 0): F(1, 8)}


@pytest.mark.parametrize("seed", range(10))
def test_backward_total_equals_forward_acceptance(seed: int) -> None:
    """Reading a DFA's acceptance mass off the last forward layer or off
    the backward DP's virtual start cell gives one value in every
    semiring; in REAL, every position splits it as ⊕ forward ⊗ backward."""
    rng = random.Random(seed)
    alphabet = "abc"[: 2 + seed % 2]
    sequence = make_fraction_sequence(alphabet, 1 + seed % 5, rng)
    dfa = make_random_dfa(alphabet, 2 + seed % 3, rng)
    advance = automaton_advance(dfa.step)
    start = (dfa.initial,)
    every = [(symbol, state) for symbol in sequence.symbols for state in dfa.states]
    cells = [[(None, *start)], *([every] * (sequence.length - 1))]
    for semiring in ALL_SEMIRINGS:
        final = {cell: semiring.one for cell in every if cell[1] in dfa.accepting}
        layers = backward(sequence, final, cells, advance, semiring)
        total = layers[0].get((None, *start), semiring.zero)
        want = semiring.sum(
            mass
            for (_symbol, state), mass in final_layer(sequence, start, advance, semiring).items()
            if state in dfa.accepting
        )
        if semiring in (LOG, TROPICAL):
            assert total == want or math.isclose(total, want, rel_tol=1e-12, abs_tol=1e-12)
        else:
            assert total == want, semiring
        if semiring is REAL:
            for i, layer in enumerate(forward(sequence, start, advance), start=1):
                split = sum(mass * layers[i].get(cell, 0) for cell, mass in layer.items())
                assert split == total


def test_forward_lifts_the_sequence_into_the_semiring() -> None:
    real = final_layer(SEQUENCE, (), node_advance, REAL)
    log = final_layer(SEQUENCE, (), node_advance, LOG)
    assert set(log) == set(real)
    for cell, mass in real.items():
        assert log[cell] == pytest.approx(math.log(mass), abs=1e-12)


def _nondeterministic() -> Transducer:
    nfa = NFA(
        "ab",
        ["p", "q"],
        "p",
        {"p", "q"},
        {
            ("p", "a"): {"p", "q"},
            ("p", "b"): {"p"},
            ("q", "a"): {"q"},
            ("q", "b"): {"p", "q"},
        },
    )
    omega = {move: ("x",) for move in nfa.transitions()}
    omega[("p", "a", "q")] = ()
    omega[("q", "b", "p")] = ("y", "x")
    return Transducer(nfa, omega)


def _append_cells(evaluator: StreamingEvaluator) -> float:
    """The ``runtime.append.cells`` value one append records."""
    with telemetry.session() as registry:
        evaluator.append(STEP)
        histogram = registry.snapshot()["histograms"]["runtime.append.cells"]
    assert histogram["count"] == 1
    return histogram["total"]


def test_deterministic_frontier_and_cells_are_pinned() -> None:
    plan = QueryPlan.build(collapse_transducer({"a": "X", "b": "Y"}))
    assert plan.deterministic
    evaluator = StreamingEvaluator(plan, SEQUENCE)
    assert plan.stats.dp_cells == 3
    assert evaluator.frontier == {
        ("a", "q", ("X", "X")): F(1, 12),
        ("b", "q", ("X", "Y")): F(1, 4),
        ("a", "q", ("Y", "X")): F(2, 3),
    }
    assert _append_cells(evaluator) == 5.0
    assert evaluator.frontier == {
        ("a", "q", ("X", "X", "X")): F(1, 24),
        ("b", "q", ("X", "X", "Y")): F(1, 24),
        ("b", "q", ("X", "Y", "Y")): F(1, 4),
        ("a", "q", ("Y", "X", "X")): F(1, 3),
        ("b", "q", ("Y", "X", "Y")): F(1, 3),
    }


def test_nondeterministic_frontier_and_cells_are_pinned() -> None:
    plan = QueryPlan.build(_nondeterministic())
    assert not plan.deterministic
    evaluator = StreamingEvaluator(plan, SEQUENCE)
    assert plan.stats.dp_cells == 5
    assert evaluator.frontier == {
        ("a", frozenset({("p", ("x", "x")), ("q", ("x",))})): F(3, 4),
        ("b", frozenset({("p", ("x", "x")), ("p", ("y", "x")), ("q", ("x",))})): F(1, 4),
    }
    assert _append_cells(evaluator) == 7.0
    assert evaluator.frontier == {
        ("a", frozenset({("p", ("x", "x", "x")), ("q", ("x", "x"))})): F(3, 8),
        (
            "b",
            frozenset({("p", ("x", "y", "x")), ("q", ("x", "x")), ("p", ("x", "x", "x"))}),
        ): F(3, 8),
        (
            "b",
            frozenset(
                {
                    ("p", ("x", "y", "x")),
                    ("p", ("y", "x", "x")),
                    ("q", ("x", "x")),
                    ("p", ("x", "x", "x")),
                }
            ),
        ): F(1, 4),
    }


@pytest.mark.parametrize("zero_entries", [False, True])
def test_monitor_layer_is_pinned(zero_entries: bool) -> None:
    """A monitor watch's layer is the frontier of the occurrence
    evaluator; its state names come from a breadth-first walk of the
    unanchored-match DFA, so the snapshot keys are pinned too."""
    evaluator = StreamingEvaluator(
        accept_filter(unanchored_match_dfa(regex_to_nfa("ab", "ab"))), SEQUENCE
    )
    initial, seen_a, matched = "o0", "o1", "o2"
    assert evaluator.plan.compiled.nfa.initial == initial
    assert evaluator.frontier == {
        ("a", seen_a, ()): F(3, 4),
        ("b", matched, ()): F(1, 4),
    }
    assert evaluator.confidences() == {(): F(1, 4)}
    # An explicit zero in the appended payload adds no cell.
    payload = {"a": STEP["a"], "b": {"a": F(0), "b": F(1)}} if zero_entries else STEP
    assert evaluator.append(payload) == {(): F(3, 8)}
    assert evaluator.frontier == {
        ("a", seen_a, ()): F(3, 8),
        ("b", matched, ()): F(3, 8),
        ("b", initial, ()): F(1, 4),
    }