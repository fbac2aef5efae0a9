"""The one forward recursion behind every positive Table-2 result.

Theorems 4.6, 4.8, 5.5 and 5.8 are all forward dynamic programs over a
layered product graph. A cell of layer ``i`` is a tuple whose first
entry is the Markov node ``S_i`` and whose remaining entries summarize
what the machine has done on the world prefix (its state, its output
progress, a trie node, a subset of live states, ...); its value is the
semiring sum, over the world prefixes that end in that cell, of their
lifted probabilities. Moving to layer ``i + 1`` is always the same
operation — only the machine-side *advance* differs:

    next[c'] = ⊕ { layer[c] ⊗ mu_i(c[0], t) : t, c' ∈ advance(c, t) }

Layer 0 is a single virtual cell ``(None, *start)`` whose one outgoing
row is the initial distribution, so the first layer needs no special
case. Each engine supplies its ``advance`` and reads out the last layer;
``docs/ALGORITHMS.md`` lists them side by side.

The step is linear in the layer, so consecutive steps compose
associatively — the operator Nuel & Dumas build long-sequence segment
products from.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from typing import Any

from repro.markov.sequence import MarkovSequence
from repro.semiring import REAL, Semiring

#: A DP cell: ``(Markov node, *machine summary)``.
Cell = tuple[Any, ...]
#: One DP layer: cell -> semiring value.
Layer = dict[Cell, Any]
#: Rows of one transition: source node -> {target node: weight}.
Rows = Mapping[Hashable, Mapping[Hashable, Any]]
#: ``advance(cell, target)``: the cells a cell moves to when the sequence
#: steps to node ``target`` (none when the move dies).
Advance = Callable[[Cell, Hashable], Iterable[Cell]]


def automaton_advance(move: Callable[[Any, Hashable], Any]) -> Advance:
    """The advance of a product with an automaton: cell ``(node, state)``
    steps to ``(target, move(state, target))``."""

    def advance(cell: Cell, target: Hashable) -> tuple[Cell]:
        return ((target, move(cell[1], target)),)

    return advance


def step(
    layer: Mapping[Cell, Any],
    rows: Rows,
    advance: Advance,
    semiring: Semiring[Any] = REAL,
) -> Layer:
    """The layer after ``layer`` across one transition with rows ``rows``.

    Each cell ``(symbol, ...)`` with mass ``m`` moves along every row
    entry ``symbol -> target`` of weight ``w``; ``m ⊗ w`` is added with
    ``⊕`` into each cell ``advance(cell, target)`` yields. Cells and row
    entries are visited in insertion order, so float sums are
    reproducible run to run. Weights must already be semiring values
    (see :meth:`~repro.semiring.Semiring.lift_sequence`).
    """
    add, mul, zero = semiring.add, semiring.mul, semiring.zero
    nxt: Layer = {}
    for cell, mass in layer.items():
        row = rows.get(cell[0])
        if row is None:
            continue
        for target, weight in row.items():
            for key in advance(cell, target):
                nxt[key] = add(nxt.get(key, zero), mul(mass, weight))
    return nxt


def forward(
    sequence: MarkovSequence,
    start: tuple[Any, ...],
    advance: Advance,
    semiring: Semiring[Any] = REAL,
) -> Iterator[Layer]:
    """Yield layers ``1 .. n`` of the DP that starts in cell ``(None, *start)``.

    The sequence is lifted into ``semiring`` once, before the first
    layer. Each yielded layer is a fresh dict the caller may keep.
    """
    initial, transitions = semiring.lift_sequence(sequence)
    layer: Layer = {(None, *start): semiring.one}
    virtual: Rows = {None: initial}
    for rows in (virtual, *transitions):
        layer = step(layer, rows, advance, semiring)
        yield layer


def final_layer(
    sequence: MarkovSequence,
    start: tuple[Any, ...],
    advance: Advance,
    semiring: Semiring[Any] = REAL,
) -> Layer:
    """Layer ``n`` of :func:`forward` (the earlier layers are not kept)."""
    layer: Layer = {}
    for layer in forward(sequence, start, advance, semiring):
        pass
    return layer
