"""Distributional statistics of a query's answer, without enumeration.

For a deterministic transducer the random world induces a random *answer*
(or rejection). Several useful summaries of that answer distribution are
computable by the same layered DP as Theorem 4.6 — polynomial even when
the answer set itself is exponential:

* :func:`output_length_distribution` — ``Pr(|output| = L)`` for each L,
  plus the rejection mass;
* :func:`expected_output_length` — its mean;
* :func:`acceptance_probability` — ``Pr(S in L(A))``;
* :func:`symbol_emission_expectations` — expected number of emissions of
  each output symbol.

These power dashboard-style summaries in the Lahar shell ("how long will
the extracted room trace be?") and sanity checks in the benchmarks.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

from repro.confidence.layered import Cell, final_layer
from repro.errors import InvalidTransducerError
from repro.markov.sequence import MarkovSequence, Number
from repro.confidence.language import language_probability
from repro.transducers.transducer import Transducer

Symbol = Hashable


def _require_deterministic(transducer: Transducer) -> None:
    if not transducer.is_deterministic():
        raise InvalidTransducerError(
            "answer statistics require a deterministic transducer "
            "(each world must induce at most one answer)"
        )


def output_length_distribution(
    sequence: MarkovSequence, transducer: Transducer
) -> tuple[dict[int, Number], Number]:
    """``(lengths, rejected)``: ``lengths[L] = Pr(accepted and |output| = L)``.

    DP over ``(node, state, emitted-so-far)``; the emitted count is at
    most ``n * max-emission``, keeping everything polynomial.
    """
    _require_deterministic(transducer)
    transducer.check_alphabet(sequence.alphabet)
    moves = transducer.moves

    def advance(cell: Cell, target: Symbol) -> Iterator[Cell]:
        _symbol, state, emitted = cell
        for target_state, emission in moves(state, target):
            yield (target, target_state, emitted + len(emission))

    nfa = transducer.nfa
    layer = final_layer(sequence, (nfa.initial, 0), advance)
    lengths: dict[int, Number] = {}
    accepted_mass: Number = 0
    for (_symbol, state, emitted), mass in layer.items():
        if state in nfa.accepting:
            lengths[emitted] = lengths.get(emitted, 0) + mass
            accepted_mass = accepted_mass + mass
    rejected = 1 - accepted_mass
    return dict(sorted(lengths.items())), rejected


def expected_output_length(
    sequence: MarkovSequence, transducer: Transducer, conditional: bool = True
) -> Number:
    """Expected answer length; conditional on acceptance by default."""
    lengths, _rejected = output_length_distribution(sequence, transducer)
    total_mass = sum(lengths.values())
    if total_mass == 0:
        raise InvalidTransducerError("the query accepts no world")
    mean = sum(length * mass for length, mass in lengths.items())
    return mean / total_mass if conditional else mean


def acceptance_probability(sequence: MarkovSequence, transducer: Transducer) -> Number:
    """``Pr(S in L(A))`` — the total confidence mass over all answers."""
    return language_probability(sequence, transducer.nfa)


def symbol_emission_expectations(
    sequence: MarkovSequence, transducer: Transducer
) -> dict:
    """Expected emission count per output symbol (over accepted worlds).

    Computed one symbol at a time via a first-moment DP carrying
    ``(probability mass, expected count)`` pairs per ``(node, state)``.
    """
    _require_deterministic(transducer)
    transducer.check_alphabet(sequence.alphabet)
    nfa = transducer.nfa
    results: dict = {}

    for target_symbol in transducer.output_alphabet:
        # Pairs (mass, weighted count of target_symbol emissions).
        layer: dict[tuple[Symbol, object], tuple[Number, Number]] = {}
        for symbol, prob in sequence.initial_support():
            for state, emission in transducer.moves(nfa.initial, symbol):
                emitted = sum(1 for out in emission if out == target_symbol)
                mass, count = layer.get((symbol, state), (0, 0))
                layer[(symbol, state)] = (mass + prob, count + prob * emitted)

        for i in range(1, sequence.length):
            nxt: dict[tuple[Symbol, object], tuple[Number, Number]] = {}
            for (symbol, state), (mass, count) in layer.items():
                for target, prob in sequence.successors(i, symbol):
                    for target_state, emission in transducer.moves(state, target):
                        emitted = sum(1 for out in emission if out == target_symbol)
                        step_mass = mass * prob
                        step_count = count * prob + step_mass * emitted
                        old_mass, old_count = nxt.get((target, target_state), (0, 0))
                        nxt[(target, target_state)] = (
                            old_mass + step_mass,
                            old_count + step_count,
                        )
            layer = nxt

        results[target_symbol] = sum(
            count
            for (_symbol, state), (_mass, count) in layer.items()
            if state in nfa.accepting
        )
    return results
