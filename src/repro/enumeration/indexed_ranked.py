"""Exact ranked enumeration for indexed s-projectors (Theorem 5.7).

Answers ``(o, i)`` of ``[B]↓A[E]`` over ``mu[n]`` correspond one-to-one to
source→sink paths of a layered weighted DAG:

* ``source --(start: i, o_1)--> ("m", i, o_1, a_1)`` weighted by the mass
  of worlds whose first ``i-1`` symbols lie in ``L(B)`` and whose ``i``-th
  symbol is ``o_1`` (from the forward DP of Theorem 5.8);
* ``("m", p, o_t, a) --(step: o_{t+1})--> ("m", p+1, o_{t+1}, a')``
  weighted ``mu_p(o_t, o_{t+1})``;
* ``("m", p, o_m, a in F_A) --(end)--> sink`` weighted by the probability
  that the remaining symbols satisfy ``E`` (backward DP);
* one extra two-edge path per empty-match answer ``(epsilon, i)``.

The A-component ``a`` is the DFA state of the pattern, so a path is
determined by ``(o, i)`` and vice versa, and its weight-product is exactly
``conf((o, i))`` by the Theorem 5.8 factorization. Enumerating paths in
decreasing weight (:meth:`WeightedDAG.paths_decreasing`) therefore yields
the answers in exactly decreasing confidence with polynomial delay.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import AlphabetMismatchError
from repro.markov.sequence import MarkovSequence, Number
from repro.confidence.indexed import (
    _confidence_empty_match,
    backward_suffix_weights,
    forward_prefix_weights,
)
from repro.semiring import REAL
from repro.transducers.sprojector import SProjector
from repro.enumeration.pathenum import WeightedDAG

SOURCE = "source"
SINK = "sink"


def emitted_symbols(label) -> tuple:
    """Output symbols contributed by one DAG edge label."""
    if label is None:
        return ()
    kind = label[0]
    if kind == "start":
        return (label[2],)
    if kind == "step":
        return (label[1],)
    return ()


def decode_path(labels: tuple) -> tuple[tuple, int]:
    """Decode a DAG path's labels into the indexed answer ``(o, i)``."""
    first = labels[0]
    if first[0] == "eps":
        return (), first[1]
    index = first[1]
    output = [first[2]]
    for label in labels[1:]:
        if label[0] == "step":
            output.append(label[1])
    return tuple(output), index


def build_answer_dag(sequence: MarkovSequence, projector: SProjector) -> WeightedDAG:
    """Construct the answer DAG for ``[B]↓A[E]`` over ``sequence``."""
    if projector.alphabet != sequence.alphabet:
        raise AlphabetMismatchError(
            "s-projector alphabet does not match the Markov sequence alphabet"
        )
    pattern = projector.pattern
    prefix = projector.prefix
    suffix = projector.suffix
    n = sequence.length

    forward = forward_prefix_weights(sequence, projector)
    backward = backward_suffix_weights(sequence, projector)

    dag = WeightedDAG()
    dag.add_node(SOURCE)
    dag.add_node(SINK)

    # Start edges: match begins at position i with first symbol sigma.
    prefix_empty_ok = prefix.initial in prefix.accepting
    for i in range(1, n + 1):
        for sigma in sequence.symbols:
            if i == 1:
                weight = sequence.initial_prob(sigma) if prefix_empty_ok else 0
            else:
                weight = 0
                for (tau, state), mass in forward[i - 1].items():
                    if state in prefix.accepting:
                        step = sequence.transition_prob(i - 1, tau, sigma)
                        if step != 0:
                            weight = weight + mass * step
            if weight != 0:
                a_state = pattern.step(pattern.initial, sigma)
                dag.add_edge(
                    SOURCE, ("m", i, sigma, a_state), weight, ("start", i, sigma)
                )

    # Step edges: extend the match from position p to p + 1.
    for p in range(1, n):
        for sigma in sequence.symbols:
            for a_state in pattern.states:
                node = ("m", p, sigma, a_state)
                for tau, prob in sequence.successors(p, sigma):
                    dag.add_edge(
                        node,
                        ("m", p + 1, tau, pattern.step(a_state, tau)),
                        prob,
                        ("step", tau),
                    )

    # End edges: close the match at position p (pattern state accepting).
    for p in range(1, n + 1):
        for sigma in sequence.symbols:
            for a_state in pattern.accepting:
                weight = backward[p].get((sigma, suffix.initial), 0)
                if weight != 0:
                    dag.add_edge(("m", p, sigma, a_state), SINK, weight, ("end",))

    # Empty-match answers (epsilon, i), present only if epsilon in L(A).
    if pattern.initial in pattern.accepting:
        weights = REAL.lift_sequence(sequence)
        for i in range(1, n + 2):
            weight = _confidence_empty_match(
                sequence, projector, i, REAL, weights, forward, backward
            )
            if weight != 0:
                dag.add_edge(SOURCE, ("e", i), weight, ("eps", i))
                dag.add_edge(("e", i), SINK, 1, ("end",))

    return dag


def enumerate_indexed_ranked(
    sequence: MarkovSequence, projector: SProjector
) -> Iterator[tuple[Number, tuple[tuple, int]]]:
    """Yield ``(confidence, (o, i))`` in exactly decreasing confidence.

    Polynomial delay; see DESIGN.md on the space behaviour of the path
    enumerator relative to the theorem's statement.
    """
    dag = build_answer_dag(sequence, projector)
    for weight, labels in dag.paths_decreasing(SOURCE, SINK):
        yield weight, decode_path(labels)


def top_answer_indexed(
    sequence: MarkovSequence, projector: SProjector
) -> tuple[Number, tuple[tuple, int]] | None:
    """The most confident indexed answer (first element of the enumeration)."""
    for item in enumerate_indexed_ranked(sequence, projector):
        return item
    return None
