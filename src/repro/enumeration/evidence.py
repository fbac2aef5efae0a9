"""Evidence ranking: the best worlds supporting a given answer.

A probabilistic database should be able to *explain* an answer (cf. the
lineage systems of Section 6): which possible worlds contribute, and how
much? For a transducer answer ``o`` the evidences are the worlds
transduced into ``o``; this module enumerates them in decreasing
probability by Lawler–Murty over world-prefix constraints, where each
constrained optimum is a Viterbi pass over the layered product graph
restricted to the exact output ``o``.

The first evidence's probability is exactly ``E_max(o)`` (Section 4.2),
and the probabilities sum to ``conf(o)`` — both asserted in the tests.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass

from repro.markov.sequence import MarkovSequence, Number
from repro.transducers.transducer import Transducer
from repro.enumeration.constraints import PrefixConstraint, _check
from repro.enumeration.lawler import each_part, lawler_enumerate

Symbol = Hashable


@dataclass(frozen=True)
class _WorldSpace:
    """Worlds extending ``prefix`` whose next node avoids ``forbidden``."""

    prefix: tuple
    forbidden: frozenset


def best_evidence_for_answer(
    sequence: MarkovSequence,
    transducer: Transducer,
    answer: Sequence,
    space: _WorldSpace = _WorldSpace((), frozenset()),
) -> tuple[Number, tuple] | None:
    """Most likely world in ``space`` transduced into ``answer``.

    Viterbi over ``(node, transducer state, output progress)`` where the
    output must equal ``answer`` exactly; the world prefix is forced and
    the first free node avoids the forbidden set.
    """
    _check(sequence, transducer)
    constraint = PrefixConstraint.exact_string(tuple(answer))
    nfa = transducer.nfa
    n = sequence.length
    boundary = len(space.prefix)

    Key = tuple  # (symbol, state, progress)
    layers: list[dict[Key, tuple[Number, Key | None]]] = []
    layer: dict[Key, tuple[Number, Key | None]] = {}
    for symbol, prob in sequence.initial_support():
        if boundary >= 1 and symbol != space.prefix[0]:
            continue
        if boundary == 0 and symbol in space.forbidden:
            continue
        for state, emission in transducer.moves(nfa.initial, symbol):
            j = constraint.advance(0, emission)
            if j is None:
                continue
            key = (symbol, state, j)
            if key not in layer or prob > layer[key][0]:
                layer[key] = (prob, None)
    layers.append(layer)

    for i in range(1, n):
        nxt: dict[Key, tuple[Number, Key | None]] = {}
        for key, (score, _parent) in layer.items():
            symbol, state, j = key
            for target, prob in sequence.successors(i, symbol):
                if i < boundary and target != space.prefix[i]:
                    continue
                if i == boundary and target in space.forbidden:
                    continue
                weight = score * prob
                for target_state, emission in transducer.moves(state, target):
                    j2 = constraint.advance(j, emission)
                    if j2 is None:
                        continue
                    new_key = (target, target_state, j2)
                    if new_key not in nxt or weight > nxt[new_key][0]:
                        nxt[new_key] = (weight, key)
        layer = nxt
        layers.append(layer)
        if not layer:
            return None

    best_key, best_score = None, 0
    for key, (score, _parent) in layer.items():
        _symbol, state, j = key
        if state in nfa.accepting and constraint.final_ok(j):
            if best_key is None or score > best_score:
                best_key, best_score = key, score
    if best_key is None:
        return None

    world: list[Symbol] = []
    key = best_key
    for depth in range(n - 1, -1, -1):
        score, parent = layers[depth][key]
        world.append(key[0])
        if parent is None:
            break
        key = parent
    world.reverse()
    return best_score, tuple(world)


def enumerate_evidences(
    sequence: MarkovSequence,
    transducer: Transducer,
    answer: Sequence,
) -> Iterator[tuple[Number, tuple]]:
    """All evidences of ``answer`` in decreasing probability.

    Lawler–Murty over world-prefix subspaces; polynomial delay. Works for
    nondeterministic transducers too (a world is an evidence if *some*
    accepting run emits the answer).
    """
    target = tuple(answer)

    def best(space: _WorldSpace):
        return best_evidence_for_answer(sequence, transducer, target, space)

    def partition(space: _WorldSpace, world: tuple):
        children = []
        for position in range(len(space.prefix), len(world)):
            forbidden = frozenset({world[position]}) | (
                space.forbidden if position == len(space.prefix) else frozenset()
            )
            children.append(_WorldSpace(world[:position], forbidden))
        return children

    yield from lawler_enumerate(
        _WorldSpace((), frozenset()), best, each_part(best, partition)
    )


def explain(
    sequence: MarkovSequence,
    transducer: Transducer,
    answer: Sequence,
    k: int = 5,
) -> list[tuple[Number, tuple]]:
    """The top-``k`` evidences of ``answer`` (decreasing probability).

    The first entry's probability equals ``E_max(answer)``; summing *all*
    evidences' probabilities gives ``conf(answer)`` — ``explain`` is the
    lineage view connecting the two scores of Section 4.2.
    """
    results: list[tuple[Number, tuple]] = []
    for item in enumerate_evidences(sequence, transducer, answer):
        results.append(item)
        if len(results) >= k:
            break
    return results
