"""Confidence for uniform-emission nondeterministic transducers (Theorem 4.8).

With k-uniform emission, after reading ``i`` input symbols every run has
emitted exactly ``k * i`` output symbols, so "some run so far emits a
prefix of ``o``" is a *deterministic* function of the world prefix. The DP
therefore tracks, per world prefix, the subset

    S_i = { q in Q : some run on the prefix reaches q while emitting
            o[0 : k*i] }

together with the last Markov node:

    DP[i][(sigma, S)] = Pr( S_{[1,i]} ends in sigma and induces subset S ).

Each world contributes to exactly one subset per layer (no double
counting), and ``conf(o)`` is the mass of subsets intersecting ``F`` at
``i = n``. Time is polynomial in everything except ``2^{|Q_A|}`` — which
Theorem 4.9 shows is unavoidable once uniformity is dropped, and
Proposition 4.7 shows cannot be improved to polynomial in ``|Q_A|``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence

from repro.confidence.layered import Cell, final_layer
from repro.errors import InvalidTransducerError
from repro.markov.sequence import MarkovSequence, Number
from repro.semiring import REAL, Semiring
from repro.transducers.transducer import Transducer

Symbol = Hashable


def confidence_uniform(
    sequence: MarkovSequence,
    transducer: Transducer,
    output: Sequence,
    semiring: Semiring = REAL,
) -> Number:
    """``Pr(S -> [A^omega] -> output)`` for a k-uniform transducer.

    The transducer may be nondeterministic. Raises
    :class:`InvalidTransducerError` if the emission is not uniform (the
    subset DP is unsound there — exactly the content of Theorem 4.9).
    """
    k = transducer.uniformity()
    if k is None:
        raise InvalidTransducerError(
            "confidence_uniform requires uniform emission; "
            "use the brute-force oracle for non-uniform nondeterministic transducers"
        )
    transducer.check_alphabet(sequence.alphabet)
    target = tuple(output)
    if len(target) != k * sequence.length:
        return semiring.zero

    moves = transducer.moves

    # The cell carries the output progress j = k * i next to the subset;
    # every cell of a layer has the same j.
    def advance(cell: Cell, symbol: Symbol) -> Iterator[Cell]:
        _symbol, subset, j = cell
        expected = target[j : j + k]
        new_subset = frozenset(
            nxt
            for state in subset
            for nxt, emission in moves(state, symbol)
            if emission == expected
        )
        # The empty subset is absorbing and never accepts; dropping it
        # keeps "each world appears exactly once" for the rest.
        if new_subset:
            yield (symbol, new_subset, j + k)

    nfa = transducer.nfa
    layer = final_layer(sequence, (frozenset({nfa.initial}), 0), advance, semiring)
    return semiring.sum(
        mass for (_symbol, subset, _j), mass in layer.items() if subset & nfa.accepting
    )
