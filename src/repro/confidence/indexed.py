"""Confidence for indexed s-projectors (Theorem 5.8).

For ``P = [B]↓A[E]`` an answer is a pair ``(o, i)`` — the substring plus
the position where emission begins. Fixing the position makes the event a
*conjunction over disjoint segments* of the world, so the confidence
factorizes:

    conf((o, i)) = Pr( S[1..i-1] in L(B), S[i..i+m-1] = o,
                       S[i+m..n] in L(E) )
                 = W_B(i, o_1) * prod_t mu_{i+t-1}(o_t, o_{t+1})
                                       * W_E(i+m-1, o_m),

where ``W_B`` is a forward DP over ``(Markov node, B-state)`` pairs and
``W_E`` is a backward DP over ``(Markov node, E-state)`` pairs — all
polynomial, matching the ``O(n |Sigma|^2 |Q|^2)`` bound. Contrast with the
non-indexed case (Theorem 5.4): there the union over positions makes the
problem #P-hard; here the position is part of the answer.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.confidence.layered import automaton_advance, backward, forward, node_advance, step
from repro.errors import AlphabetMismatchError
from repro.markov.sequence import MarkovSequence, Number
from repro.semiring import REAL, Semiring
from repro.transducers.sprojector import SProjector

Symbol = Hashable


def _check(sequence: MarkovSequence, projector: SProjector) -> None:
    if projector.alphabet != sequence.alphabet:
        raise AlphabetMismatchError(
            "s-projector alphabet does not match the Markov sequence alphabet"
        )


def forward_prefix_weights(
    sequence: MarkovSequence, projector: SProjector, semiring: Semiring = REAL
) -> list[dict[tuple[Symbol, object], Number]]:
    """Forward DP: ``layers[j][(sigma, q)]`` is the mass of worlds whose
    first ``j`` symbols end in ``sigma`` and drive ``B`` to state ``q``.

    ``layers[0]`` is the virtual start cell ``(None, q0)`` with weight
    one: no symbols read yet, ``B`` in its initial state ``q0``.
    """
    prefix = projector.prefix
    start = (prefix.initial,)
    advance = automaton_advance(prefix.step)
    return [{(None, *start): semiring.one}, *forward(sequence, start, advance, semiring)]


def backward_suffix_weights(
    sequence: MarkovSequence, projector: SProjector, semiring: Semiring = REAL
) -> list[dict[tuple[Symbol, object], Number]]:
    """Backward DP: ``layers[j][(sigma, q)]`` is the probability that,
    given ``S_j = sigma``, the remaining symbols ``S[j+1..n]`` drive ``E``
    from state ``q`` into an accepting state.

    Index ``j`` runs from 1 to ``n``; ``layers[n][(sigma, q)]`` is 1 if
    ``q`` is accepting (empty suffix). ``layers[0]`` is empty. Zero
    entries are left out, so read with ``.get(cell, semiring.zero)``.
    """
    suffix = projector.suffix
    final = {
        (symbol, state): semiring.one
        for symbol in sequence.symbols
        for state in suffix.accepting
    }
    every = [(symbol, state) for symbol in sequence.symbols for state in suffix.states]
    cells = [(), *([every] * (sequence.length - 1))]
    return backward(sequence, final, cells, automaton_advance(suffix.step), semiring)


def start_weights(
    projector: SProjector,
    index: int,
    weights,
    prefix_layers,
    semiring: Semiring = REAL,
) -> dict[Symbol, Number]:
    """``W_B(index, sigma)`` for every ``sigma``: the mass of worlds whose
    first ``index - 1`` symbols lie in ``L(B)`` and whose symbol
    ``index`` is ``sigma``.

    One layered step from the accepting cells of ``prefix_layers[index - 1]``
    (for ``index == 1``, the virtual start cell, through the initial
    row). ``weights`` is ``semiring.lift_sequence(sequence)`` and
    ``prefix_layers`` is :func:`forward_prefix_weights`.
    """
    accepting = projector.prefix.accepting
    initial, transitions = weights
    accepted = {
        cell: mass for cell, mass in prefix_layers[index - 1].items() if cell[1] in accepting
    }
    rows = transitions[index - 2] if index > 1 else {None: initial}
    layer = step(accepted, rows, node_advance, semiring)
    return {cell[0]: mass for cell, mass in layer.items()}


def confidence_indexed(
    sequence: MarkovSequence,
    projector: SProjector,
    output: Sequence,
    index: int,
    semiring: Semiring = REAL,
) -> Number:
    """``Pr(S -> [B]↓A[E] -> (output, index))`` (index is 1-based)."""
    _check(sequence, projector)
    target = tuple(output)
    n = sequence.length
    m = len(target)
    if index < 1 or index + m - 1 > n or (m == 0 and index > n + 1):
        return semiring.zero
    if not projector.pattern.accepts(target):
        return semiring.zero

    prefix_layers = forward_prefix_weights(sequence, projector, semiring)
    suffix_layers = backward_suffix_weights(sequence, projector, semiring)

    weights = semiring.lift_sequence(sequence)
    if m == 0:
        return _confidence_empty_match(
            sequence, projector, index, semiring, weights, prefix_layers, suffix_layers
        )
    _initial, transitions = weights

    # Start weight: mass of worlds with S[1..index-1] in L(B) and S_index = o_1.
    start = start_weights(projector, index, weights, prefix_layers, semiring).get(
        target[0], semiring.zero
    )
    if semiring.is_zero(start):
        return semiring.zero

    # Segment weight: the fixed match o at positions index .. index+m-1.
    segment = semiring.one
    for t in range(m - 1):
        row = transitions[index + t - 1].get(target[t], {})
        segment = semiring.mul(segment, row.get(target[t + 1], semiring.zero))

    # End weight: suffix acceptance from position index+m-1.
    end_cell = (target[-1], projector.suffix.initial)
    end = suffix_layers[index + m - 1].get(end_cell, semiring.zero)

    return semiring.mul(semiring.mul(start, segment), end)


def _confidence_empty_match(
    sequence: MarkovSequence,
    projector: SProjector,
    index: int,
    semiring: Semiring,
    weights,
    prefix_layers,
    suffix_layers,
) -> Number:
    """Answers ``(epsilon, i)``: prefix of length ``i-1`` in L(B), suffix
    ``S[i..n]`` in L(E), nothing in between. ``weights`` is
    ``semiring.lift_sequence(sequence)``."""
    prefix, suffix = projector.prefix, projector.suffix
    n = sequence.length
    if index == n + 1:
        # The whole world is the prefix; the suffix is empty.
        if suffix.initial not in suffix.accepting:
            return semiring.zero
        return semiring.sum(
            mass for (_symbol, state), mass in prefix_layers[n].items()
            if state in prefix.accepting
        )
    layer = suffix_layers[index]
    starts = start_weights(projector, index, weights, prefix_layers, semiring)
    return semiring.sum(
        semiring.mul(mass, layer.get((symbol, suffix.step(suffix.initial, symbol)), semiring.zero))
        for symbol, mass in starts.items()
    )
