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

from repro.confidence.layered import automaton_advance, forward
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

    ``layers[0]`` is empty by convention (no symbols read yet); the
    B-state for ``j = 0`` is ``B``'s initial state.
    """
    prefix = projector.prefix
    advance = automaton_advance(prefix.step)
    return [{}, *forward(sequence, (prefix.initial,), advance, semiring)]


def backward_suffix_weights(
    sequence: MarkovSequence, projector: SProjector, semiring: Semiring = REAL
) -> list[dict[tuple[Symbol, object], Number]]:
    """Backward DP: ``layers[j][(sigma, q)]`` is the probability that,
    given ``S_j = sigma``, the remaining symbols ``S[j+1..n]`` drive ``E``
    from state ``q`` into an accepting state.

    Index ``j`` runs from 1 to ``n``; ``layers[n][(sigma, q)]`` is 1 if
    ``q`` is accepting (empty suffix) and 0 otherwise.
    """
    suffix = projector.suffix
    _initial, transitions = semiring.lift_sequence(sequence)
    final = {
        (symbol, state): (semiring.one if state in suffix.accepting else semiring.zero)
        for symbol in sequence.symbols
        for state in suffix.states
    }
    layers: list[dict[tuple[Symbol, object], Number]] = [final]
    layer = final
    for rows in reversed(transitions):
        prev: dict[tuple[Symbol, object], Number] = {}
        for symbol in sequence.symbols:
            row = rows.get(symbol, {})
            for state in suffix.states:
                total = semiring.zero
                for target, weight in row.items():
                    cont = layer[(target, suffix.step(state, target))]
                    total = semiring.add(total, semiring.mul(weight, cont))
                prev[(symbol, state)] = total
        layers.insert(0, prev)
        layer = prev
    # Pad index 0 so layers[j] matches position j (1-based).
    layers.insert(0, {})
    return layers


def confidence_indexed(
    sequence: MarkovSequence,
    projector: SProjector,
    output: Sequence,
    index: int,
    semiring: Semiring = REAL,
    _forward=None,
    _backward=None,
) -> Number:
    """``Pr(S -> [B]↓A[E] -> (output, index))`` (index is 1-based).

    ``_forward`` / ``_backward`` let callers that evaluate many answers on
    one sequence (the ranked-enumeration engine) share the two DP tables.
    """
    _check(sequence, projector)
    target = tuple(output)
    n = sequence.length
    m = len(target)
    if index < 1 or index + m - 1 > n or (m == 0 and index > n + 1):
        return semiring.zero
    if not projector.pattern.accepts(target):
        return semiring.zero

    prefix, suffix = projector.prefix, projector.suffix
    forward = _forward if _forward is not None else forward_prefix_weights(
        sequence, projector, semiring
    )
    backward = _backward if _backward is not None else backward_suffix_weights(
        sequence, projector, semiring
    )

    weights = semiring.lift_sequence(sequence)
    if m == 0:
        return _confidence_empty_match(
            sequence, projector, index, semiring, weights, forward, backward
        )
    initial, transitions = weights

    # Start weight: mass of worlds with S[1..index-1] in L(B) and S_index = o_1.
    if index == 1:
        if prefix.initial not in prefix.accepting:
            return semiring.zero
        start = initial.get(target[0], semiring.zero)
    else:
        rows = transitions[index - 2]
        start = semiring.zero
        for (symbol, state), mass in forward[index - 1].items():
            if state in prefix.accepting:
                weight = rows.get(symbol, {}).get(target[0])
                if weight is not None:
                    start = semiring.add(start, semiring.mul(mass, weight))
    if semiring.is_zero(start):
        return semiring.zero

    # Segment weight: the fixed match o at positions index .. index+m-1.
    segment = semiring.one
    for t in range(m - 1):
        row = transitions[index + t - 1].get(target[t], {})
        segment = semiring.mul(segment, row.get(target[t + 1], semiring.zero))

    # End weight: suffix acceptance from position index+m-1.
    end_pos = index + m - 1
    end = backward[end_pos][(target[-1], suffix.initial)]

    return semiring.mul(semiring.mul(start, segment), end)


def _confidence_empty_match(
    sequence: MarkovSequence,
    projector: SProjector,
    index: int,
    semiring: Semiring,
    weights,
    forward,
    backward,
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
            mass for (_symbol, state), mass in forward[n].items()
            if state in prefix.accepting
        )
    initial, transitions = weights
    # (mass of an accepted prefix, row of next-symbol weights) pairs.
    if index == 1:
        if prefix.initial not in prefix.accepting:
            return semiring.zero
        sources = [(semiring.one, initial)]
    else:
        rows = transitions[index - 2]
        sources = [
            (mass, rows.get(symbol, {}))
            for (symbol, state), mass in forward[index - 1].items()
            if state in prefix.accepting
        ]
    total = semiring.zero
    for mass, row in sources:
        for target, weight in row.items():
            cont = backward[index][(target, suffix.step(suffix.initial, target))]
            total = semiring.add(total, semiring.mul(semiring.mul(mass, weight), cont))
    return total
