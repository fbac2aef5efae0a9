"""Ranked enumeration for (non-indexed) s-projectors (Lemma 5.10, Theorem 5.2).

For an s-projector the exact decreasing-confidence order is intractable
even to approximate well (Theorem 5.3), so the paper ranks by

    I_max(o) = max_i conf((o, i))               (Section 5.2)

and the sandwich ``I_max(o) <= conf(o) <= n * I_max(o)`` (Proposition 5.9)
makes decreasing-``I_max`` an ``n``-approximately-decreasing-confidence
order — exponentially better than the ``|Sigma|^n`` guarantee of the
``E_max`` order available to general transducers.

Polynomial delay is achieved exactly as the paper prescribes: Lawler–Murty
over output-prefix constraints (so each output string is produced once —
no duplicate filtering, whose backlog would ruin the delay), with the
constrained optimization "best ``I_max`` answer extending prefix ``w``"
solved by a Viterbi pass over the same answer DAG that Theorem 5.7 uses.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.markov.sequence import MarkovSequence, Number
from repro.confidence.sprojector import confidence_sprojector
from repro.transducers.sprojector import SProjector
from repro.enumeration.constraints import PrefixConstraint
from repro.enumeration.indexed_ranked import (
    SINK,
    SOURCE,
    build_answer_dag,
    decode_path,
    emitted_symbols,
)
from repro.enumeration.lawler import each_part, lawler_enumerate
from repro.enumeration.pathenum import WeightedDAG


def enumerate_sprojector_imax(
    sequence: MarkovSequence,
    projector: SProjector,
    with_confidence: bool = False,
) -> Iterator[tuple[Number, tuple]] | Iterator[tuple[Number, tuple, Number]]:
    """Yield s-projector answers in decreasing ``I_max``.

    Yields ``(I_max(o), o)`` pairs — or ``(I_max(o), o, conf(o))`` triples
    when ``with_confidence=True``, which additionally runs the Theorem 5.5
    confidence computation per answer (exponential in ``|Q_E|`` only).
    """
    dag = build_answer_dag(sequence, projector)

    def best(constraint: PrefixConstraint):
        found = dag.best_path_constrained(SOURCE, SINK, constraint, emitted_symbols)
        if found is None:
            return None
        weight, labels = found
        output, _index = decode_path(labels)
        return weight, output

    children = each_part(best, PrefixConstraint.partition_after)
    for score, output in lawler_enumerate(PrefixConstraint.unconstrained(), best, children):
        if with_confidence:
            yield score, output, confidence_sprojector(sequence, projector, output)
        else:
            yield score, output


def enumerate_sprojector_imax_naive(
    sequence: MarkovSequence, projector: SProjector
) -> Iterator[tuple[Number, tuple]]:
    """The naive deduplicating variant discussed in Section 5.2.

    Run the indexed enumeration of Theorem 5.7 and print each *string*
    the first time it appears. As the paper notes, "a large chunk of
    duplicates may be encountered, [so] polynomial delay is not
    guaranteed (although incremental polynomial time is)" — this variant
    exists as the ablation baseline against the Lawler-based
    :func:`enumerate_sprojector_imax`, which restores polynomial delay.
    The two must produce identical (score, answer) streams.
    """
    from repro.enumeration.indexed_ranked import enumerate_indexed_ranked

    seen: set = set()
    for confidence, (output, _index) in enumerate_indexed_ranked(sequence, projector):
        if output in seen:
            continue
        seen.add(output)
        yield confidence, output


def top_answer_imax(
    sequence: MarkovSequence, projector: SProjector
) -> tuple[Number, tuple] | None:
    """The ``I_max``-top answer — an ``n``-approximate top answer by
    confidence (Proposition 5.9), computable in polynomial time."""
    dag = build_answer_dag(sequence, projector)
    found = dag.best_path_constrained(
        SOURCE, SINK, PrefixConstraint.unconstrained(), emitted_symbols
    )
    if found is None:
        return None
    weight, labels = found
    output, _index = decode_path(labels)
    return weight, output
