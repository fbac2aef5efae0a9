"""Same-plan batching: one numpy forward DP over a stack of streams.

When many equal-length streams share one dense deterministic plan, the
Theorem 4.6 dynamic program is the *same* sequence of vector-matrix
products for every stream — only the transition probabilities differ.
Following the sparse-batching observation of Nuel & Dumas (one automaton,
many sequences), this module stacks the per-stream DP vectors into a
``(B, S)`` matrix (``S = |Sigma| * |Q|``) and the per-step matrices into
a ``(B, S, S)`` tensor, so one batched ``einsum`` per timestep advances
all ``B`` streams at once.

The step matrices share their *sparsity structure* across streams: an
entry ``(symbol, state) -> (symbol', state')`` exists iff the (unique)
deterministic move on ``symbol'`` from ``state`` emits exactly the
expected slice of the target output — a property of the transducer and
the output alone. The structure is therefore computed once per distinct
expected emission and only the probability values are gathered per
stream, which is what makes the batch path fast: the per-stream python
work is a single sparse scan of the transition rows.

Float-only (numpy); for exact rationals use the serial sparse DP, which
the test suite verifies it against. At ``B = 1`` it is the scalar dense
DP.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import InvalidTransducerError, ReproError
from repro.markov.sequence import MarkovSequence
from repro.runtime.plan import PlanKind, QueryPlan
from repro.transducers.transducer import Transducer


def _check_batch(sequences: Sequence[MarkovSequence]) -> None:
    if not sequences:
        raise ReproError("dense batch requires at least one sequence")
    first = sequences[0]
    for sequence in sequences[1:]:
        if sequence.length != first.length:
            raise ReproError(
                "dense batch requires equal-length sequences "
                f"({sequence.length} != {first.length})"
            )
        if sequence.symbols != first.symbols:
            raise ReproError("dense batch requires a shared symbol order")


def dense_batch_eligible(
    plan: QueryPlan, sequences: Sequence[MarkovSequence], require_float: bool = True
) -> bool:
    """Whether the batched dense path applies to this plan and corpus.

    Requires a deterministic k-uniform compiled transducer, a non-empty
    corpus of equal-length streams over one shared symbol order, and —
    unless ``require_float`` is False — float probabilities throughout
    (the dense path would silently downgrade exact ``Fraction`` streams
    to floats, so auto-dispatch refuses them).
    """
    if plan.kind is not PlanKind.DETERMINISTIC or plan.uniformity is None:
        return False
    if not sequences:
        return False
    first = sequences[0]
    if any(
        s.length != first.length or s.symbols != first.symbols for s in sequences
    ):
        return False
    if require_float and not all(map(_is_float_valued, sequences)):
        return False
    return True


#: Gathered per-stream tensors, cached weakly off the (immutable) stream:
#: the gather depends only on the stream — not on the probed output — so a
#: database probing many outputs against a persistent corpus pays the
#: python flattening once per stream, ever.
_GATHER_CACHE: "weakref.WeakKeyDictionary[MarkovSequence, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _stream_tensors(sequence: MarkovSequence) -> tuple:
    """``(initial_row, flat_indices, values)`` for one stream.

    ``initial_row`` is the dense ``(|Sigma|,)`` initial distribution;
    ``flat_indices``/``values`` are the sparse entries of the stream's
    ``(n-1, |Sigma|, |Sigma|)`` transition block, flattened so a batch
    assignment can place them at ``b * block + flat_indices``.
    """
    cached = _GATHER_CACHE.get(sequence)
    if cached is None:
        symbols = sequence.symbols
        index_of = {s: i for i, s in enumerate(symbols)}
        num_symbols = len(symbols)
        initial_row = np.zeros(num_symbols)
        for symbol, prob in sequence.initial_support():
            initial_row[index_of[symbol]] = float(prob)
        indices: list[int] = []
        values: list = []
        for i in range(1, sequence.length):
            step_base = (i - 1) * num_symbols
            for source, row in sequence.transition_rows(i).items():
                offset = (step_base + index_of[source]) * num_symbols
                indices += [offset + index_of[t] for t in row]
                values += row.values()
        cached = (
            initial_row,
            np.asarray(indices, dtype=np.intp),
            np.fromiter(map(float, values), dtype=np.float64, count=len(values)),
        )
        _GATHER_CACHE[sequence] = cached
    return cached


def _is_float_valued(sequence: MarkovSequence) -> bool:
    """True when every stored probability is a float (sampled exhaustively;
    the scan is one pass over the sparse entries, far cheaper than a DP)."""
    for _symbol, prob in sequence.initial_support():
        if not isinstance(prob, float):
            return False
    for i in range(1, sequence.length):
        for symbol in sequence.symbols:
            for _target, prob in sequence.successors(i, symbol):
                if not isinstance(prob, float):
                    return False
    return True


def confidence_dense_batch(
    sequences: Sequence[MarkovSequence],
    transducer: Transducer,
    output: Sequence,
) -> list[float]:
    """``Pr(S_b -> [A^omega] -> output)`` for every stream ``b``, batched.

    Semantically equal to calling it once per stream (``B = 1``), but
    runs one ``(B, S) @ (B, S, S)`` contraction per timestep instead of
    ``B`` separate DPs. Requires a deterministic k-uniform transducer and
    an equal-length corpus over one symbol order.
    """
    if not transducer.is_deterministic():
        raise InvalidTransducerError("dense batch requires a deterministic transducer")
    k = transducer.uniformity()
    if k is None:
        raise InvalidTransducerError("dense batch requires k-uniform emission")
    _check_batch(sequences)

    first = sequences[0]
    batch = len(sequences)
    n = first.length
    target = tuple(output)
    if len(target) != k * n:
        return [0.0] * batch

    symbols = list(first.symbols)
    states = sorted(transducer.nfa.states, key=repr)
    symbol_index = {s: i for i, s in enumerate(symbols)}
    state_index = {q: i for i, q in enumerate(states)}
    size = len(symbols) * len(states)

    def pair_index(symbol, state) -> int:
        return symbol_index[symbol] * len(states) + state_index[state]

    # Single deterministic move per (state, symbol): precompute once.
    move: dict[tuple, tuple] = {}
    for state in states:
        for symbol in symbols:
            successors = transducer.nfa.successors(state, symbol)
            if successors:
                (target_state,) = successors
                move[(state, symbol)] = (
                    target_state,
                    transducer.emission(state, symbol, target_state),
                )

    # Stream-independent step structure, one entry list per distinct
    # expected emission: (row, col, source-symbol idx, target-symbol idx).
    structure_cache: dict[tuple, tuple[np.ndarray, ...]] = {}

    def step_structure(expected: tuple) -> tuple[np.ndarray, ...]:
        cached = structure_cache.get(expected)
        if cached is None:
            rows, cols, srcs, tgts = [], [], [], []
            for target_symbol in symbols:
                for state in states:
                    entry = move.get((state, target_symbol))
                    if entry is None or entry[1] != expected:
                        continue
                    for source_symbol in symbols:
                        rows.append(pair_index(source_symbol, state))
                        cols.append(pair_index(target_symbol, entry[0]))
                        srcs.append(symbol_index[source_symbol])
                        tgts.append(symbol_index[target_symbol])
            cached = tuple(np.asarray(a, dtype=np.intp) for a in (rows, cols, srcs, tgts))
            structure_cache[expected] = cached
        return cached

    # Per-stream probability tensors, gathered once: initial (B, |Sigma|)
    # and transitions (B, n-1, |Sigma|, |Sigma|). The sparse entries are
    # collected into flat index lists and written with a single fancy
    # assignment — per-entry numpy stores would dominate the batch DP.
    num_symbols = len(symbols)
    initial = np.zeros((batch, num_symbols))
    transitions = np.zeros((batch, max(n - 1, 1), num_symbols, num_symbols))
    block = (n - 1) * num_symbols * num_symbols
    flat = transitions.reshape(-1)
    for b, sequence in enumerate(sequences):
        initial_row, indices, values = _stream_tensors(sequence)
        initial[b] = initial_row
        if indices.size:
            flat[indices + b * block] = values

    # Initial vector (position 1): mass lands on (symbol, move-target).
    vector = np.zeros((batch, size))
    for symbol in symbols:
        entry = move.get((transducer.nfa.initial, symbol))
        if entry is not None and entry[1] == target[0:k]:
            vector[:, pair_index(symbol, entry[0])] += initial[:, symbol_index[symbol]]

    # One batched contraction per step.
    for i in range(1, n):
        rows, cols, srcs, tgts = step_structure(target[k * i : k * (i + 1)])
        matrices = np.zeros((batch, size, size))
        if len(rows):
            matrices[:, rows, cols] = transitions[:, i - 1, srcs, tgts]
        vector = np.einsum("bs,bst->bt", vector, matrices)

    mask = np.zeros(size)
    for symbol in symbols:
        for state in transducer.nfa.accepting:
            mask[pair_index(symbol, state)] = 1.0
    return [float(value) for value in vector @ mask]


def confidence_dense_batch_named(
    sequences: Mapping[str, MarkovSequence],
    transducer: Transducer,
    output: Sequence,
) -> dict[str, float]:
    """Named-corpus convenience wrapper around the batched DP."""
    names = list(sequences)
    values = confidence_dense_batch([sequences[name] for name in names], transducer, output)
    return dict(zip(names, values))
