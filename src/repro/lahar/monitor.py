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
* :class:`StreamingMonitor` — the *incremental* form of the above: it
  keeps the forward layer of the product DP so a growing stream pays one
  DP layer per appended timestep instead of a from-scratch profile
  re-run. This is what the service's standing occurrence queries run on.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from fractions import Fraction

from repro.confidence.layered import automaton_advance, final_layer, forward, step_scaled
from repro.markov.sequence import MarkovSequence, Number
from repro.automata.determinize import determinize
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.errors import AlphabetMismatchError, ReproError
from repro.semiring import scale_layer, scale_rows, unscale_layer

Symbol = Hashable


def query_pattern(query) -> NFA:
    """The regular pattern a monitor standing query watches.

    S-projectors watch their pattern component; transducers watch their
    underlying automaton. Shared by the service's standing-query
    registration and the store's recovery replay, which must build the
    exact same unanchored-match DFA.
    """
    from repro.transducers.sprojector import SProjector
    from repro.transducers.transducer import Transducer

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
    of the match start, then determinize.
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
    return determinize(nfa)


def occurrence_profile(sequence: MarkovSequence, pattern: NFA | DFA) -> list[Number]:
    """``profile[i-1] = Pr(some substring of S[1..i] ending at i matches)``.

    The Lahar "event fires at time i" semantics for a regular pattern.
    """
    _check(sequence, pattern)
    return prefix_acceptance_profile(sequence, unanchored_match_dfa(pattern))


class StreamingMonitor:
    """An incrementally maintained per-timestep acceptance probability.

    Maintains the forward layer of the (stream x DFA) product DP that
    :func:`prefix_acceptance_profile` sweeps, so ``Pr(S[1..i] in L(dfa))``
    is available at every timestep of a *growing* stream for one DP
    layer per append — exactly equal (bit-for-bit over ``Fraction``
    inputs) to re-running the profile from scratch.

    ``StreamingMonitor.occurrence(sequence, pattern)`` builds the monitor
    over the unanchored-match DFA, giving the Lahar "event fires at time
    i" value that the service's standing occurrence queries watch.

    Over exact inputs the layer is kept as integer numerators over one
    running denominator, so an append does no ``gcd`` per cell
    (:func:`~repro.confidence.layered.step_scaled`); :attr:`value` and
    :attr:`layer` divide once.
    """

    def __init__(self, sequence: MarkovSequence, dfa: DFA) -> None:
        _check(sequence, dfa)
        self._dfa = dfa
        self._advance = automaton_advance(dfa.step)
        self._length = sequence.length
        self._layer, self._scale = scale_layer(
            final_layer(sequence, (dfa.initial,), self._advance)
        )

    @classmethod
    def occurrence(
        cls, sequence: MarkovSequence, pattern: NFA | DFA
    ) -> "StreamingMonitor":
        """A monitor of ``Pr(some substring ending at i matches pattern)``."""
        _check(sequence, pattern)
        return cls(sequence, unanchored_match_dfa(pattern))

    @classmethod
    def restore(
        cls, dfa: DFA, layer: Mapping[tuple[Symbol, object], Number], length: int
    ) -> "StreamingMonitor":
        """Rebuild a monitor from a persisted product-DP layer.

        The restart path of :mod:`repro.store`: ``layer`` must be the
        :attr:`layer` of a monitor over the same DFA at timestep
        ``length``; no DP is re-run.
        """
        self = object.__new__(cls)
        self._dfa = dfa
        self._advance = automaton_advance(dfa.step)
        self._layer, self._scale = scale_layer(layer)
        self._length = length
        return self

    def append(self, transition: Mapping[Symbol, Mapping[Symbol, Number]]) -> Number:
        """Absorb one timestep; returns the new acceptance probability.

        ``transition`` has the same shape as the database append payload
        (source symbol -> successor distribution). Callers are expected
        to have validated it (the database append does); the new layer
        is installed only once it is complete, so a failing push leaves
        the monitor as it was.
        """
        # Zero entries of the raw payload would only add zero-mass cells.
        rows = {
            source: {target: prob for target, prob in row.items() if prob != 0}
            for source, row in transition.items()
        }
        self._layer, self._scale = step_scaled(
            self._layer, self._scale, rows, scale_rows(rows), self._advance
        )
        self._length += 1
        return self.value

    @property
    def value(self) -> Number:
        """``Pr(S[1..n] in L(dfa))`` for the stream absorbed so far."""
        accepting = self._dfa.accepting
        total = sum(
            mass for (_s, state), mass in self._layer.items() if state in accepting
        )
        return total if self._scale is None else Fraction(total, self._scale)

    @property
    def length(self) -> int:
        """Timesteps absorbed so far."""
        return self._length

    @property
    def layer(self) -> dict[tuple[Symbol, object], Number]:
        """A copy of the live product-DP layer (what snapshots persist),
        exact values as canonical ``Fraction``s."""
        return unscale_layer(self._layer, self._scale)

    @property
    def dfa(self) -> DFA:
        """The monitored DFA."""
        return self._dfa

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamingMonitor(n={self._length}, layer={len(self._layer)})"
