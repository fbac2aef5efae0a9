"""The one layer recursion behind every positive Table-2 result.

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

The same recursion also runs backward, in pull form (:func:`step_back`,
:func:`backward`): a cell of layer ``i`` collects the weight of the
cells of layer ``i + 1`` it reaches. Theorem 5.8's suffix weights, the
FPRAS's run weights and the HMM translation's backward messages are
callers of it.

The step is linear in the layer, so consecutive steps compose
associatively — the operator Nuel & Dumas build long-sequence segment
products from, forward and backward.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.markov.sequence import MarkovSequence
from repro.semiring import REAL, ScaledRows, Semiring, unscale_layer

#: A DP cell: ``(Markov node, *machine summary)``.
Cell = tuple[Any, ...]
#: One DP layer: cell -> semiring value.
Layer = dict[Cell, Any]
#: Rows of one transition: source node -> {target node: weight}.
Rows = Mapping[Hashable, Mapping[Hashable, Any]]
#: ``advance(cell, target)``: the cells a cell moves to when the sequence
#: steps to node ``target`` (none when the move dies).
Advance = Callable[[Cell, Hashable], Iterable[Cell]]


def node_advance(cell: Cell, target: Hashable) -> tuple[Cell]:
    """The advance of a cell that is the Markov node alone: ``(target,)``."""
    return ((target,),)


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


def step_scaled(
    layer: Mapping[Cell, Any],
    scale: int | None,
    rows: Rows,
    lifted: ScaledRows | None,
    advance: Advance,
) -> tuple[Layer, int | None]:
    """:func:`step` over REAL for a layer of numerators over ``scale``.

    ``lifted`` is :func:`~repro.semiring.scale_rows` of ``rows``. While
    the layer and the rows both have a scale, the step runs on their
    integer numerators and the new scale is the product of the two, so
    no cell pays a ``gcd``. A float row (``lifted`` None) drops the
    layer back to ``Fraction`` values for good (scale None); from then
    on the step runs on the values as they are, as :func:`step` does.
    """
    if scale is not None:
        if lifted is not None:
            numerators, denominator = lifted
            return step(layer, numerators, advance), scale * denominator
        layer = unscale_layer(layer, scale)
    return step(layer, rows, advance), None


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
    """Layer ``n`` of :func:`forward` (the earlier layers are not kept).

    Over ``REAL`` on a sequence that keeps its lift
    (:meth:`~repro.markov.sequence.MarkovSequence.keep_lift`), the layers
    are integer numerators over one scale (:func:`step_scaled`), each row
    read from the kept lift, and the last layer is divided back once: no
    cell pays a ``gcd``, and the values equal :func:`forward`'s.
    Otherwise this drains :func:`forward` and then asks the sequence to
    keep its lift, so a one-shot read costs what :func:`forward` costs,
    the second read lifts the rows, and later reads, also of the
    sequence's :meth:`~repro.markov.sequence.MarkovSequence.extended`
    successors, run on the kept lift.
    """
    if semiring is not REAL or not sequence.keeps_lift:
        layer: Layer = {}
        for layer in forward(sequence, start, advance, semiring):
            pass
        if semiring is REAL:
            sequence.keep_lift()
        return layer
    layer, scale = {(None, *start): 1}, 1
    rows: Rows = {}  # row 0 is read from its lift: a kept lift has one
    for i in range(sequence.length):
        if i:
            rows = sequence.transition_rows(i)
        lifted = sequence.scaled_rows(i) if scale is not None else None
        layer, scale = step_scaled(layer, scale, rows, lifted, advance)
    return unscale_layer(layer, scale)


def step_back(
    layer: Mapping[Cell, Any],
    rows: Rows,
    cells: Iterable[Cell],
    advance: Advance,
    semiring: Semiring[Any] = REAL,
) -> Layer:
    """The layer before ``layer``, over ``cells``, pulled across ``rows``.

    The pull-form twin of :func:`step`: each cell ``c`` of ``cells``
    gets ``⊕ rows[c[0]][t] ⊗ layer[c']`` over every row entry
    ``c[0] -> t`` and every ``c'`` that ``advance(c, t)`` yields. Cells
    absent from ``layer`` count as zero, and cells whose sum is zero are
    left out, so every kept cell reaches a nonzero cell of ``layer``.
    Cells and row entries are visited in order, as in :func:`step`.
    """
    add, mul, is_zero = semiring.add, semiring.mul, semiring.is_zero
    prev: Layer = {}
    for cell in cells:
        row = rows.get(cell[0])
        if row is None:
            continue
        total = semiring.zero
        for target, weight in row.items():
            for key in advance(cell, target):
                value = layer.get(key)
                if value is not None:
                    total = add(total, mul(weight, value))
        if not is_zero(total):
            prev[cell] = total
    return prev


def backward(
    sequence: MarkovSequence,
    final: Mapping[Cell, Any],
    cells: Sequence[Iterable[Cell]],
    advance: Advance,
    semiring: Semiring[Any] = REAL,
) -> list[Layer]:
    """Layers ``0 .. n`` of the backward DP that ends in ``final``.

    ``final`` is layer ``n``: the weight each cell of position ``n``
    contributes. ``cells[i]`` names the cells of layer ``i`` for
    ``i < n``; layer ``i`` pulls layer ``i + 1`` through transition
    ``i`` (:func:`step_back`), and layer 0 pulls layer 1 through the
    initial row, so a virtual cell ``(None, *start)`` in ``cells[0]``
    reads out the total weight. The sequence is lifted into
    ``semiring`` once.
    """
    initial, transitions = semiring.lift_sequence(sequence)
    layers: list[Layer] = [dict(final)]
    all_rows = ({None: initial}, *transitions)
    for i in range(sequence.length - 1, -1, -1):
        layers.append(step_back(layers[-1], all_rows[i], cells[i], advance, semiring))
    layers.reverse()
    return layers
