"""Confidence computation for deterministic transducers (Theorem 4.6).

A deterministic transducer has at most one run per world, so summing over
runs in a layered dynamic program counts every world exactly once:

    DP[i][(sigma, q, j)] = Pr( S_{[1,i]} ends in sigma, drives A to q,
                               and the run has emitted exactly o[0:j] )

and ``conf(o)`` is the mass at ``i = n`` with ``q`` accepting and
``j = |o|``. Time ``O(|o| * n * |Sigma|^2 * |Q|)`` in the general case.
With k-uniform emission every live cell of layer ``i`` has ``j = k * i``,
so each layer carries one output position — the sharper bound of the
theorem — and an output of the wrong length is rejected before any layer
runs.

This is the only Theorem-4.6 DP in the library: an ``advance`` over
``(state, j)`` for the shared layer step of
:mod:`repro.confidence.layered`. It runs in any semiring
(``VITERBI`` gives ``E_max``, ``LOG`` gives the natural log of the
confidence for sequences whose world probabilities underflow doubles),
and it optionally takes the weight-pushing table of
:mod:`repro.runtime.shrink` as a filter on moves.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping, Sequence

from repro.confidence.layered import Cell, final_layer
from repro.errors import InvalidTransducerError
from repro.markov.sequence import MarkovSequence, Number
from repro.semiring import REAL, Semiring
from repro.transducers.transducer import Transducer

Symbol = Hashable


def confidence_deterministic(
    sequence: MarkovSequence,
    transducer: Transducer,
    output: Sequence,
    semiring: Semiring = REAL,
    push: Mapping | None = None,
) -> Number:
    """``Pr(S -> [A^omega] -> output)`` for a deterministic transducer.

    Raises :class:`InvalidTransducerError` if the transducer is
    nondeterministic (the DP would double-count worlds with several
    accepting runs; use :func:`~repro.confidence.uniform_subset.confidence_uniform`
    or the brute-force oracle instead).

    With ``semiring=VITERBI`` the same DP computes ``E_max(output)``, the
    best-evidence score of Section 4.2 — for deterministic transducers the
    max over worlds factorizes over the same layered graph. With
    ``semiring=LOG`` it returns ``log conf(output)`` (``-inf`` when zero);
    probabilities are lifted into the semiring once per call, exact
    ``Fraction`` inputs included.

    ``push`` is a weight-pushing table (:func:`repro.runtime.shrink.push_table`
    of ``transducer``): a move into state ``q`` at output progress ``j``
    is dropped when ``q`` has no entry (no accepting continuation) or
    its guaranteed emission prefix disagrees with ``output[j:]``. Such
    cells can only contribute ``semiring.zero``, so the result is
    bit-identical with and without the filter.
    """
    if not transducer.is_deterministic():
        raise InvalidTransducerError(
            "confidence_deterministic requires a deterministic transducer"
        )
    transducer.check_alphabet(sequence.alphabet)
    target = tuple(output)
    uniformity = transducer.uniformity()
    if uniformity is not None and len(target) != uniformity * sequence.length:
        return semiring.zero

    moves = transducer.moves

    def advance(cell: Cell, next_symbol: Symbol) -> Iterator[Cell]:
        _symbol, state, j = cell
        for next_state, emission in moves(state, next_symbol):
            end = j + len(emission)
            if emission and target[j:end] != emission:
                continue
            if push is not None:
                guaranteed = push.get(next_state)
                if guaranteed is None or (
                    guaranteed and target[end : end + len(guaranteed)] != guaranteed
                ):
                    continue
            yield (next_symbol, next_state, end)

    layer = final_layer(sequence, (transducer.nfa.initial, 0), advance, semiring)
    accepting = transducer.nfa.accepting
    return semiring.sum(
        mass
        for (_symbol, state, j), mass in layer.items()
        if j == len(target) and state in accepting
    )
