"""Lahar-legacy Boolean event queries (Section 6, related work).

Before this paper, Lahar's queries were "essentially linear DFAs ...
Boolean, and at each time period [the query] returns the probability that
it is evaluated to true". This module implements that query class over
our Markov sequences, so the stream database supports both the legacy
per-timestep probability profiles and the paper's transducer answers:

* :func:`prefix_acceptance_profile` — ``Pr(S[1..i] in L(A))`` per ``i``
  (the event "the pattern has happened by time i" for monotone patterns);
* :func:`occurrence_profile` — ``Pr(some window ending at i matches A)``,
  the standard "event fires at time i" semantics, via a product with the
  unanchored-match automaton.
* :func:`occurrence_query` — the same event as a transducer query: the
  accept filter of the unanchored-match DFA, a 0-uniform deterministic
  transducer whose one answer ``()`` has confidence
  ``Pr(some window ending at n matches)``. A
  :class:`~repro.runtime.incremental.StreamingEvaluator` over it pays one
  DP layer per appended timestep; this is what the service's ``monitor``
  standing queries watch.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.confidence.layered import automaton_advance, forward
from repro.markov.sequence import MarkovSequence, Number
from repro.automata.determinize import determinize
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.errors import AlphabetMismatchError, ReproError
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector
from repro.transducers.transducer import Transducer

Symbol = Hashable


def query_pattern(query) -> NFA:
    """The regular pattern a monitor standing query watches.

    S-projectors watch their pattern component; transducers watch their
    underlying automaton.
    """
    if isinstance(query, SProjector):
        return query.pattern.to_nfa()
    if isinstance(query, Transducer):
        return query.nfa
    raise ReproError("monitor standing queries need a transducer or s-projector")


def _check(sequence: MarkovSequence, automaton: DFA | NFA) -> None:
    if automaton.alphabet != sequence.alphabet:
        raise AlphabetMismatchError(
            "event automaton alphabet does not match the stream alphabet"
        )


def prefix_acceptance_profile(sequence: MarkovSequence, dfa: DFA) -> list[Number]:
    """``profile[i-1] = Pr(S[1..i] in L(dfa))`` for ``i = 1..n``.

    One forward pass over the layered product; the profile is what a
    Lahar-style dashboard plots per timestep.
    """
    _check(sequence, dfa)
    accepting = dfa.accepting
    return [
        sum(mass for (_s, state), mass in layer.items() if state in accepting)
        for layer in forward(sequence, (dfa.initial,), automaton_advance(dfa.step))
    ]


def unanchored_match_dfa(pattern: NFA | DFA) -> DFA:
    """DFA for ``Sigma* . L(pattern)`` — "some suffix of the prefix matches".

    The classic unanchored-pattern construction: add a self-looping guess
    of the match start, then determinize. States are named ``o0..oN``
    breadth-first (:func:`_named_breadth_first`).
    """
    base = pattern.to_nfa() if isinstance(pattern, DFA) else pattern
    base = base.renamed("m")
    fresh = "m_start"
    delta: dict[tuple, set] = {
        key: set(targets) for key, targets in base.delta_dict().items()
    }
    for symbol in base.alphabet:
        targets = set(base.successors(base.initial, symbol))
        targets.add(fresh)  # keep guessing a later start
        delta.setdefault((fresh, symbol), set()).update(targets)
    accepting = set(base.accepting)
    if base.initial in base.accepting:
        accepting.add(fresh)
    nfa = NFA(
        base.alphabet, set(base.states) | {fresh}, fresh, accepting, delta
    )
    return _named_breadth_first(determinize(nfa), "o")


def _named_breadth_first(dfa: DFA, prefix: str) -> DFA:
    """``dfa`` with its states renamed ``prefix0..prefixN`` in breadth-first
    order from the initial state over the sorted alphabet.

    The names depend only on the automaton's structure. Subset
    construction yields frozenset states, whose ``str`` (the form a
    durable store writes) follows string hashing and so changes with
    ``PYTHONHASHSEED``; these names do not. Every state of ``dfa`` must
    be reachable, as :func:`~repro.automata.determinize.determinize`
    guarantees.
    """
    alphabet = sorted(dfa.alphabet, key=repr)
    names = {dfa.initial: f"{prefix}0"}
    order = [dfa.initial]
    for state in order:  # grows while it is walked: a breadth-first queue
        for symbol in alphabet:
            target = dfa.step(state, symbol)
            if target not in names:
                names[target] = f"{prefix}{len(names)}"
                order.append(target)
    return DFA(
        dfa.alphabet,
        names.values(),
        names[dfa.initial],
        {names[state] for state in dfa.accepting},
        {
            (names[state], symbol): names[dfa.step(state, symbol)]
            for state in order
            for symbol in alphabet
        },
    )


def occurrence_profile(sequence: MarkovSequence, pattern: NFA | DFA) -> list[Number]:
    """``profile[i-1] = Pr(some substring of S[1..i] ending at i matches)``.

    The Lahar "event fires at time i" semantics for a regular pattern.
    """
    _check(sequence, pattern)
    return prefix_acceptance_profile(sequence, unanchored_match_dfa(pattern))


def occurrence_query(query) -> Transducer:
    """The transducer a ``monitor`` standing query on ``query`` evaluates.

    It is the accept filter of the unanchored-match DFA of
    :func:`query_pattern`: its only answer is ``()``, and the confidence
    of ``()`` on a stream of length ``i`` is ``occurrence_profile(...)[i-1]``.
    The service's registration and the store's recovery both build the
    watch's evaluator from this one function, so the two agree on its
    plan fingerprint and frontier keys.
    """
    return accept_filter(unanchored_match_dfa(query_pattern(query)))
