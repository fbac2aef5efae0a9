"""Batch confidence: many answers of one query in a single DP pass.

Evaluating a query usually needs the confidence of *every* enumerated
answer. Running the Theorem 4.6 DP once per answer repeats the shared
work; instead, the answers can be organized in a **trie**, and one layered
pass over

    (Markov node, transducer state, trie node)

computes all confidences simultaneously — the trie node plays the role of
the output-progress index ``j``, shared across answers with common
prefixes. The total state space is bounded by the trie size (the sum of
answer lengths, minus sharing), so for answer sets with heavy prefix
overlap (the common case for collapsing queries) the speedup over
one-DP-per-answer approaches the number of answers.

Deterministic transducers only (the same soundness condition as the
underlying theorem); raced against the per-answer DP in
``benchmarks/bench_ablation_batch.py``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence

from repro.confidence.layered import Cell, final_layer
from repro.errors import InvalidTransducerError
from repro.markov.sequence import MarkovSequence, Number
from repro.transducers.transducer import Transducer

Symbol = Hashable


class _Trie:
    """A trie over output strings; node 0 is the root."""

    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: list[dict[Hashable, int]] = [{}]
        self.terminal: list[tuple | None] = [None]

    def insert(self, output: tuple) -> None:
        node = 0
        for symbol in output:
            nxt = self.children[node].get(symbol)
            if nxt is None:
                nxt = len(self.children)
                self.children[node][symbol] = nxt
                self.children.append({})
                self.terminal.append(None)
            node = nxt
        self.terminal[node] = output

    def advance(self, node: int, emission: tuple) -> int | None:
        """Walk an emitted string; None if it leaves the trie."""
        for symbol in emission:
            node_children = self.children[node]
            nxt = node_children.get(symbol)
            if nxt is None:
                return None
            node = nxt
        return node

    @property
    def size(self) -> int:
        return len(self.children)


def confidence_deterministic_batch(
    sequence: MarkovSequence,
    transducer: Transducer,
    outputs: Iterable[Sequence],
) -> dict[tuple, Number]:
    """Confidences of all ``outputs`` in one trie-shared DP pass.

    Returns a dict mapping each requested output (as a tuple) to its
    confidence (0 for non-answers). Equivalent to calling
    :func:`repro.confidence.deterministic.confidence_deterministic` per
    output, but the shared pass costs ``O(n |mu| |Q| |trie|)`` total
    instead of per answer.
    """
    if not transducer.is_deterministic():
        raise InvalidTransducerError(
            "confidence_deterministic_batch requires a deterministic transducer"
        )
    transducer.check_alphabet(sequence.alphabet)

    trie = _Trie()
    requested: list[tuple] = []
    for output in outputs:
        output = tuple(output)
        requested.append(output)
        trie.insert(output)

    moves = transducer.moves

    def advance(cell: Cell, target: Symbol) -> Iterator[Cell]:
        _symbol, state, node = cell
        for target_state, emission in moves(state, target):
            node2 = trie.advance(node, emission)
            if node2 is not None:
                yield (target, target_state, node2)

    nfa = transducer.nfa
    layer = final_layer(sequence, (nfa.initial, 0), advance)
    results: dict[tuple, Number] = {output: 0 for output in requested}
    for (symbol, state, node), mass in layer.items():
        output = trie.terminal[node]
        if output is not None and state in nfa.accepting:
            results[output] = results[output] + mass
    return results
