"""Ranked enumeration by best-evidence score ``E_max`` (Theorem 4.3).

``E_max(o)`` is the probability of the most likely world transduced into
``o`` (Section 4.2). Enumerating answers in decreasing ``E_max`` is the
paper's heuristic stand-in for the intractable decreasing-confidence
order; the guaranteed approximation ratio is ``|Sigma|^n`` (each answer
has at most ``|Sigma|^n`` evidences), which Theorem 4.4 shows is
worst-case optimal up to the exponent's constant.

The algorithm is Lawler–Murty over prefix constraints. The seed is the
Viterbi pass of :func:`~repro.enumeration.constraints.best_evidence`;
after each pop, one pass of
:func:`~repro.enumeration.constraints.best_children` answers every child
of the popped constraint together — one Viterbi pass per answer, so
polynomial delay; space grows with the number of answers printed, as the
theorem warns.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.markov.sequence import MarkovSequence, Number
from repro.transducers.sprojector import SProjector
from repro.transducers.transducer import Transducer
from repro.enumeration.constraints import PrefixConstraint, best_children, best_evidence
from repro.enumeration.lawler import lawler_enumerate


def _as_transducer(query) -> Transducer:
    if isinstance(query, SProjector):
        return query.to_transducer()
    if isinstance(query, Transducer):
        return query
    raise TypeError(f"unsupported query type {type(query).__name__}")


def enumerate_emax(
    sequence: MarkovSequence, query
) -> Iterator[tuple[Number, tuple]]:
    """Yield ``(E_max(o), o)`` for every answer, in decreasing ``E_max``.

    ``query`` is a :class:`Transducer` or :class:`SProjector` (compiled on
    the fly; note that for s-projectors the dedicated ``I_max`` order of
    Lemma 5.10 has a far better approximation guarantee).
    """
    transducer = _as_transducer(query)

    def best(constraint: PrefixConstraint):
        found = best_evidence(sequence, transducer, constraint)
        return None if found is None else found[:2]

    def children(constraint: PrefixConstraint, answer: tuple):
        for child, (score, output, _world) in best_children(
            sequence, transducer, constraint, answer
        ):
            yield child, (score, output)

    yield from lawler_enumerate(PrefixConstraint.unconstrained(), best, children)


def top_answer_emax(sequence: MarkovSequence, query) -> tuple[Number, tuple] | None:
    """The ``E_max``-top answer — the heuristic's pick for the top answer.

    This is the object of the inapproximability theorems: its *confidence*
    can be a factor ``2^{n^{1-delta}}`` below the true top confidence
    (Theorems 4.4/4.5), yet no polynomial algorithm does asymptotically
    better unless P = NP.
    """
    transducer = _as_transducer(query)
    found = best_evidence(sequence, transducer, PrefixConstraint.unconstrained())
    return None if found is None else found[:2]
