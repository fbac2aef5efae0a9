"""The one forward layer step, and the DP layers it must keep bit-identical.

The first tests check :mod:`repro.confidence.layered` on its own. The
streaming evaluator's ``frontier`` and the monitor's ``layer`` are
what ``repro-store/1`` snapshots persist, and the per-append
``runtime.append.cells`` value is the ``dp_layer_cells`` cost counter.
The literal dicts and counts below pin all three on a tiny exact
instance, so a snapshot written by an earlier revision still restores
and the counter keeps its meaning.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from repro import telemetry
from repro.automata.nfa import NFA
from repro.automata.regex import regex_to_nfa
from repro.confidence.layered import final_layer, forward, step
from repro.lahar.monitor import StreamingMonitor
from repro.markov.sequence import MarkovSequence
from repro.runtime.incremental import StreamingEvaluator
from repro.runtime.plan import QueryPlan
from repro.semiring import LOG, REAL, VITERBI
from repro.transducers.library import collapse_transducer
from repro.transducers.transducer import Transducer

#: Length 2, exact: a world ``b b`` is impossible.
SEQUENCE = MarkovSequence(
    "ab",
    {"a": F(1, 3), "b": F(2, 3)},
    [{"a": {"a": F(1, 4), "b": F(3, 4)}, "b": {"a": F(1)}}],
)
#: The appended third timestep.
STEP = {"a": {"a": F(1, 2), "b": F(1, 2)}, "b": {"b": F(1)}}


def _node(cell, target):
    return ((target,),)


def test_forward_layers_are_the_node_marginals() -> None:
    layers = list(forward(SEQUENCE, (), _node))
    worlds = list(SEQUENCE.worlds())
    assert len(layers) == SEQUENCE.length
    for i, layer in enumerate(layers):
        marginal: dict = {}
        for world, prob in worlds:
            marginal[(world[i],)] = marginal.get((world[i],), 0) + prob
        assert layer == marginal
    assert final_layer(SEQUENCE, (), _node) == layers[-1]


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


def test_forward_lifts_the_sequence_into_the_semiring() -> None:
    real = final_layer(SEQUENCE, (), _node, REAL)
    log = final_layer(SEQUENCE, (), _node, LOG)
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
    monitor = StreamingMonitor.occurrence(SEQUENCE, regex_to_nfa("ab", "ab"))
    initial = frozenset({"m_start"})
    seen_a = frozenset({"m_start", "m1", "m2"})
    matched = frozenset({"m_start", "m3"})
    assert monitor.dfa.initial == initial
    assert monitor.layer == {("a", seen_a): F(3, 4), ("b", matched): F(1, 4)}
    assert monitor.value == F(1, 4)
    # An explicit zero in the appended payload adds no cell.
    payload = {"a": STEP["a"], "b": {"a": F(0), "b": F(1)}} if zero_entries else STEP
    assert monitor.append(payload) == F(3, 8)
    assert monitor.layer == {
        ("a", seen_a): F(3, 8),
        ("b", matched): F(3, 8),
        ("b", initial): F(1, 4),
    }
