"""Language probabilities: ``Pr(S in L(M))`` for an automaton ``M``.

This single dynamic program underlies several results:

* the emptiness tests of Theorem 4.1 (is ``Pr(S in L(A)) > 0``?);
* confidence of the empty-output answer for 0-uniform transducers;
* Theorem 5.5's s-projector confidence, where ``M`` is the concatenation
  NFA for ``L(B) . {o} . L(E)``.

For a DFA the DP is polynomial outright. For an NFA it runs through
:class:`~repro.automata.determinize.LazyDeterminizer`, so only subsets
reachable *jointly with the Markov sequence* are materialized — the
worst case is exponential in ``|Q|`` (it must be, by Theorem 5.4), but the
common case is far smaller.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.confidence.layered import automaton_advance, final_layer
from repro.markov.sequence import MarkovSequence, Number
from repro.semiring import REAL, Semiring
from repro.automata.determinize import LazyDeterminizer
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.errors import AlphabetMismatchError


def _check_alphabet(sequence: MarkovSequence, automaton: NFA | DFA) -> None:
    if automaton.alphabet != sequence.alphabet:
        raise AlphabetMismatchError(
            f"automaton alphabet ({len(automaton.alphabet)} symbols) != "
            f"sequence alphabet ({len(sequence.alphabet)} symbols)"
        )


def language_probability(
    sequence: MarkovSequence,
    automaton: NFA | DFA,
    semiring: Semiring = REAL,
) -> Number:
    """Compute ``Pr(S in L(automaton))`` under the given semiring.

    With the default real semiring this is the probability mass of worlds
    accepted by the automaton. With :data:`~repro.semiring.VITERBI` it is
    the probability of the most likely accepted world; with
    :data:`~repro.semiring.BOOLEAN` it decides whether any accepted world
    has positive probability, and :data:`~repro.semiring.COUNTING` counts
    those worlds; with :data:`~repro.semiring.LOG` it is the natural log
    of the acceptance probability, stable on sequences long enough for
    world probabilities to underflow.
    """
    _check_alphabet(sequence, automaton)
    if isinstance(automaton, DFA):
        initial_state = automaton.initial
        move = automaton.step
        accepting = automaton.accepting
        is_accepting = accepting.__contains__
    else:
        lazy = LazyDeterminizer(automaton)
        initial_state = lazy.initial
        move = lazy.step
        is_accepting = lazy.is_accepting

    # DP cell: (last Markov node, automaton state).
    layer = final_layer(sequence, (initial_state,), automaton_advance(move), semiring)
    return semiring.sum(
        mass for (_symbol, state), mass in layer.items() if is_accepting(state)
    )


def is_answer(
    sequence: MarkovSequence, transducer, output: Sequence
) -> bool:
    """Decide whether ``output`` is an answer (nonzero confidence).

    As the paper notes (Section 3.2), answerhood can be decided
    efficiently: we run the boolean layered DP over (transducer state,
    output progress) — a specialization of the machinery in
    :mod:`repro.enumeration.constraints`.
    """
    from repro.enumeration.constraints import PrefixConstraint, has_answer

    constraint = PrefixConstraint.exact_string(tuple(output))
    return has_answer(sequence, transducer, constraint)
