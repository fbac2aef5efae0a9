"""Exact top-k by confidence for s-projectors, Fagin-style.

Theorem 5.3 rules out *polynomial-time* top answers by confidence for
s-projectors, but the sandwich of Proposition 5.9 enables a classic
threshold-algorithm (Fagin–Lotem–Naor, cited as the paper's [16])
combination of the two tractable primitives:

* stream answers in decreasing ``I_max`` (Lemma 5.10, polynomial delay);
* compute each streamed answer's exact confidence (Theorem 5.5);
* stop once the k-th best exact confidence found so far is at least
  ``n * (next I_max)`` — no unseen answer can beat it, because
  ``conf(o) <= n * I_max(o)`` and the stream's ``I_max`` only decreases.

The output is the *exact* top-k by confidence. Worst-case time is not
polynomial (it cannot be, by Theorem 5.3); it is instance-sensitive: the
algorithm stops after the k-th confidence crosses the shrinking
threshold, which on non-adversarial instances happens after a handful of
candidates (measured by ``bench_exact_topk_ta`` in
``benchmarks/bench_extensions.py``).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable

from repro.markov.sequence import MarkovSequence, Number
from repro.transducers.sprojector import SProjector
from repro.confidence.sprojector import confidence_sprojector
from repro.enumeration.sprojector_ranked import enumerate_sprojector_imax

Symbol = Hashable


def exact_topk_confidence(
    sequence: MarkovSequence,
    projector: SProjector,
    k: int,
    max_candidates: int | None = None,
) -> tuple[list[tuple[Number, tuple]], int]:
    """The exact top-``k`` s-projector answers by confidence.

    Returns ``(results, candidates_examined)`` where ``results`` is a
    list of ``(confidence, answer)`` in decreasing confidence (fewer than
    ``k`` if the query has fewer answers). ``max_candidates`` optionally
    caps the scan (for defensive use on adversarial instances); when the
    cap fires before the threshold test passes, the results carry no
    exactness guarantee and a ``RuntimeWarning`` is emitted.

    Guarantee (threshold argument): when the algorithm stops because
    ``k-th best confidence >= n * next_imax``, every unseen answer ``o``
    satisfies ``conf(o) <= n * I_max(o) <= n * next_imax <= k-th best``,
    so the maintained top-k is exact.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = sequence.length
    # Min-heap of (confidence, tiebreak, answer) for the current top-k.
    heap: list[tuple[Number, int, tuple]] = []
    counter = itertools.count()
    examined = 0

    stream = enumerate_sprojector_imax(sequence, projector)
    for imax, answer in stream:
        # Threshold test first: can any answer from here on still matter?
        if len(heap) == k and heap[0][0] >= n * imax:
            break
        confidence = confidence_sprojector(sequence, projector, answer)
        examined += 1
        if len(heap) < k:
            heapq.heappush(heap, (confidence, next(counter), answer))
        elif confidence > heap[0][0]:
            heapq.heapreplace(heap, (confidence, next(counter), answer))
        if max_candidates is not None and examined >= max_candidates:
            import warnings

            warnings.warn(
                "exact_topk_confidence stopped at max_candidates before the "
                "threshold test passed; results may be inexact",
                RuntimeWarning,
                stacklevel=2,
            )
            break

    results = sorted(heap, key=lambda item: (-item[0], item[1]))
    return [(confidence, answer) for confidence, _tick, answer in results], examined


def exact_top_answer_confidence(
    sequence: MarkovSequence, projector: SProjector
) -> tuple[Number, tuple] | None:
    """The exact most-confident s-projector answer (k = 1 special case)."""
    results, _examined = exact_topk_confidence(sequence, projector, 1)
    if not results:
        return None
    confidence, answer = results[0]
    return confidence, answer


def exact_topk_confidence_transducer(
    sequence: MarkovSequence,
    transducer,
    k: int,
    max_candidates: int | None = None,
) -> tuple[list[tuple[Number, tuple]], int]:
    """The exact top-``k`` transducer answers by confidence, TA-style.

    Same threshold-algorithm skeleton as :func:`exact_topk_confidence`
    but over the ``E_max`` stream (Theorem 4.3) with the bound
    ``conf(o) <= support_size * E_max(o)`` (an answer has at most one
    evidence per world). The bound is far looser than the s-projector's
    factor ``n`` — exactly the content of Theorem 4.4 — so the cut-off
    can take long on heavy-collapse instances; ``max_candidates`` bounds
    the scan defensively (then results carry no exactness guarantee and a
    ``RuntimeWarning`` is emitted).

    Confidences are computed with the class's algorithm via
    :func:`repro.core.engine.compute_confidence` (deterministic → Thm 4.6,
    uniform → Thm 4.8; general nondeterministic falls back to the oracle).
    """
    from repro.core.engine import compute_confidence
    from repro.enumeration.emax import enumerate_emax

    if k < 1:
        raise ValueError("k must be at least 1")
    bound = sequence.support_size()
    heap: list[tuple[Number, int, tuple]] = []
    counter = itertools.count()
    examined = 0

    for emax, answer in enumerate_emax(sequence, transducer):
        if len(heap) == k and heap[0][0] >= bound * emax:
            break
        confidence = compute_confidence(sequence, transducer, answer)
        examined += 1
        if len(heap) < k:
            heapq.heappush(heap, (confidence, next(counter), answer))
        elif confidence > heap[0][0]:
            heapq.heapreplace(heap, (confidence, next(counter), answer))
        if max_candidates is not None and examined >= max_candidates:
            import warnings

            warnings.warn(
                "exact_topk_confidence_transducer stopped at max_candidates "
                "before the threshold test passed; results may be inexact",
                RuntimeWarning,
                stacklevel=2,
            )
            break

    results = sorted(heap, key=lambda item: (-item[0], item[1]))
    return [(confidence, answer) for confidence, _tick, answer in results], examined
