"""Plan-based execution: the read path of the runtime.

Everything here takes a :class:`~repro.runtime.plan.QueryPlan` (or
anything :func:`~repro.runtime.cache.plan_for` accepts) instead of a raw
query, so class detection and s-projector compilation are never repeated
per call. :func:`repro.core.evaluate` is a thin shell over
:func:`run_evaluate`; the Lahar database additionally passes a live
:class:`~repro.runtime.incremental.StreamingEvaluator` so repeated reads
of an unchanged (or grown) stream reuse the cached DP frontier, and uses
:func:`batch_top_k` to run one plan across many streams.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
from collections.abc import Iterator, Mapping

from repro.errors import ReproError
from repro.markov.sequence import MarkovSequence, Number
from repro.core.results import Answer, Order
from repro.confidence.batch import confidence_deterministic_batch
from repro.confidence.brute_force import brute_force_answers, brute_force_confidence
from repro.confidence.deterministic import confidence_deterministic
from repro.confidence.indexed import confidence_indexed
from repro.confidence.sprojector import confidence_sprojector
from repro.confidence.uniform_subset import confidence_uniform
from repro.enumeration.emax import enumerate_emax
from repro.enumeration.indexed_ranked import enumerate_indexed_ranked
from repro.enumeration.sprojector_ranked import enumerate_sprojector_imax
from repro.enumeration.unranked import enumerate_unranked
from repro.runtime.cache import PlanCache, plan_for
from repro.runtime.incremental import StreamingEvaluator
from repro.runtime.plan import PlanKind, QueryPlan
from repro.runtime.stats import instrument
from repro.transducers.sprojector import decode_indexed_output


def plan_confidence(
    plan: QueryPlan,
    sequence: MarkovSequence,
    output,
    allow_exponential: bool = True,
) -> Number:
    """Confidence of one answer via the plan's recorded Table-2 dispatch."""
    if plan.kind is PlanKind.INDEXED_SPROJECTOR:
        answer_output, index = output
        return confidence_indexed(sequence, plan.minimized, answer_output, index)
    if plan.kind is PlanKind.SPROJECTOR:
        # Components were Hopcroft-minimized at plan time.
        return confidence_sprojector(
            sequence, plan.minimized, output, minimize_suffix=False
        )
    if plan.kind is PlanKind.DETERMINISTIC:
        return confidence_deterministic(sequence, plan.execution, output, push=plan.push)
    if plan.kind is PlanKind.UNIFORM:
        return confidence_uniform(sequence, plan.execution, output)
    if allow_exponential:
        return brute_force_confidence(sequence, plan.execution, output)
    raise ReproError(
        "confidence for a non-uniform nondeterministic transducer is "
        "FP^#P-complete (Theorem 4.9); pass allow_exponential=True to "
        "run the possible-world oracle"
    )


def plan_confidence_approx(
    plan: QueryPlan,
    sequence: MarkovSequence,
    output,
    epsilon: float = 0.1,
    delta: float = 0.05,
    seed: int | None = None,
    rng=None,
    max_samples: int | None = None,
):
    """FPRAS (ε, δ) confidence of one answer via the plan.

    The approximate counterpart of :func:`plan_confidence` for the cells
    where that function would need ``allow_exponential=True``: returns a
    :class:`repro.approx.ApproxConfidence` whose certified ``[low, high]``
    interval contains the exact confidence with probability ≥ 1−δ.
    Indexed s-projectors are rejected — their exact algorithm is already
    polynomial (Theorem 5.8), so approximating would only lose precision.
    Deterministic/uniform plans are accepted (the estimator's exactness
    shortcut usually answers without sampling), keeping one call shape
    for callers that take ε/δ knobs.
    """
    from repro.approx.fpras import approximate_confidence

    if plan.kind is PlanKind.INDEXED_SPROJECTOR:
        raise ReproError(
            "indexed s-projector confidence is exactly computable in "
            "polynomial time (Theorem 5.8); use plan_confidence instead "
            "of the FPRAS"
        )
    # The trimmed machine has the same accepting runs, so the Karp-Luby
    # estimator samples the same union — just over fewer dead branches.
    query = plan.execution
    return approximate_confidence(
        sequence,
        query,
        output,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        rng=rng,
        max_samples=max_samples,
    )


def run_evaluate(
    plan,
    sequence: MarkovSequence,
    order: Order | str = Order.UNRANKED,
    with_confidence: bool = True,
    limit: int | None = None,
    allow_exponential: bool = False,
    min_confidence: Number | None = None,
    evaluator: StreamingEvaluator | None = None,
    cache: PlanCache | None = None,
) -> Iterator[Answer]:
    """Evaluate a planned query; semantics of :func:`repro.core.evaluate`.

    ``evaluator`` optionally substitutes a live streaming evaluator's
    cached frontier for the from-scratch unranked run (the answers are
    identical); it is only consulted for the ``UNRANKED`` order.
    """
    plan = plan_for(plan, cache)
    order = Order(order)
    if min_confidence is not None and order is not Order.CONFIDENCE:
        if not with_confidence:
            raise ReproError("min_confidence requires with_confidence=True")

    if order is Order.CONFIDENCE:
        answers = _evaluate_confidence_order(plan, sequence, allow_exponential)
    elif order is Order.IMAX:
        answers = _evaluate_imax(plan, sequence, with_confidence)
    elif order is Order.EMAX:
        answers = _evaluate_emax(plan, sequence, with_confidence)
    elif evaluator is not None:
        answers = evaluator.answers(with_confidence=with_confidence)
    else:
        answers = _evaluate_unranked(plan, sequence, with_confidence)

    if min_confidence is not None:
        answers = apply_threshold(sequence, order, answers, min_confidence)
    yield from _take(instrument(answers, plan.stats), limit)


def apply_threshold(sequence, order, answers, min_confidence):
    """Filter by confidence with the soundest early stop the order allows.

    * ``CONFIDENCE``: the stream is exactly decreasing — stop at the
      first answer below the threshold (output-sensitive).
    * ``EMAX``: ``conf(o) <= support_size * E_max(o)``, so once the score
      falls below ``min_confidence / support_size`` no later answer can
      qualify.
    * ``IMAX``: Proposition 5.9 gives ``conf(o) <= n * I_max(o)``; stop
      once the score falls below ``min_confidence / n``.
    * unranked: plain per-answer filtering (no sound early stop exists).
    """
    if order is Order.CONFIDENCE:
        for answer in answers:
            if answer.confidence < min_confidence:
                return
            yield answer
        return
    if order is Order.EMAX:
        cutoff = min_confidence / sequence.support_size()
        for answer in answers:
            if answer.score < cutoff:
                return
            if answer.confidence >= min_confidence:
                yield answer
        return
    if order is Order.IMAX:
        cutoff = min_confidence / sequence.length
        for answer in answers:
            if answer.score < cutoff:
                return
            if answer.confidence >= min_confidence:
                yield answer
        return
    for answer in answers:
        if answer.confidence >= min_confidence:
            yield answer


def _take(iterator, limit):
    if limit is None:
        yield from iterator
        return
    if limit <= 0:
        iterator.close()
        return
    for count, item in enumerate(iterator):
        yield item
        if count + 1 >= limit:
            iterator.close()
            return


def _evaluate_unranked(plan, sequence, with_confidence):
    if plan.kind is PlanKind.INDEXED_SPROJECTOR:
        for output in enumerate_unranked(sequence, plan.execution):
            answer = decode_indexed_output(output)
            confidence = (
                plan_confidence(plan, sequence, answer) if with_confidence else None
            )
            yield Answer(answer, confidence, None, Order.UNRANKED)
        return
    for output in enumerate_unranked(sequence, plan.execution):
        confidence = (
            plan_confidence(plan, sequence, output, allow_exponential=True)
            if with_confidence
            else None
        )
        yield Answer(output, confidence, None, Order.UNRANKED)


def _evaluate_emax(plan, sequence, with_confidence):
    if plan.kind is PlanKind.INDEXED_SPROJECTOR:
        for score, output in enumerate_emax(sequence, plan.execution):
            answer = decode_indexed_output(output)
            confidence = (
                plan_confidence(plan, sequence, answer) if with_confidence else None
            )
            yield Answer(answer, confidence, score, Order.EMAX)
        return
    for score, output in enumerate_emax(sequence, plan.execution):
        confidence = (
            plan_confidence(plan, sequence, output, allow_exponential=True)
            if with_confidence
            else None
        )
        yield Answer(output, confidence, score, Order.EMAX)


def _evaluate_imax(plan, sequence, with_confidence):
    if plan.kind is not PlanKind.SPROJECTOR:
        raise ReproError(
            "the I_max order (Lemma 5.10) applies to non-indexed s-projectors; "
            "use CONFIDENCE for indexed s-projectors and EMAX for transducers"
        )
    raw = enumerate_sprojector_imax(
        sequence, plan.minimized, with_confidence=with_confidence
    )
    for item in raw:
        if with_confidence:
            score, output, confidence = item
            yield Answer(output, confidence, score, Order.IMAX)
        else:
            score, output = item
            yield Answer(output, None, score, Order.IMAX)


def _evaluate_confidence_order(plan, sequence, allow_exponential):
    if plan.kind is PlanKind.INDEXED_SPROJECTOR:
        for confidence, answer in enumerate_indexed_ranked(sequence, plan.minimized):
            yield Answer(answer, confidence, confidence, Order.CONFIDENCE)
        return
    if not allow_exponential:
        raise ReproError(
            "exact decreasing-confidence enumeration is intractable for this "
            "query class (Theorems 4.4/5.3); it is native only to indexed "
            "s-projectors (Theorem 5.7). Pass allow_exponential=True to run "
            "the brute-force oracle on a small instance."
        )
    confidences = brute_force_answers(sequence, plan.query)
    ranked = sorted(confidences.items(), key=lambda item: (-item[1], repr(item[0])))
    for output, confidence in ranked:
        yield Answer(output, confidence, confidence, Order.CONFIDENCE)


def run_top_k(
    plan,
    sequence: MarkovSequence,
    k: int,
    order: Order | str | None = None,
    allow_exponential: bool = False,
    cache: PlanCache | None = None,
    evaluator: StreamingEvaluator | None = None,
) -> list[Answer]:
    """The first ``k`` answers under the class's best ranked order."""
    plan = plan_for(plan, cache)
    if order is None:
        order = plan.default_order
    return list(
        run_evaluate(
            plan,
            sequence,
            order=order,
            limit=k,
            allow_exponential=allow_exponential,
            evaluator=evaluator,
        )
    )


def _merge_rank(item: tuple[str, Answer]):
    """Deterministic merge order: ranked answers by decreasing score, then
    unranked answers (``score=None``), both tie-broken by (origin, text)."""
    name, answer = item
    if answer.score is None:
        return (1, 0, name, answer.rendered())
    return (0, -answer.score, name, answer.rendered())


def batch_top_k(
    plan,
    sequences: Mapping[str, MarkovSequence],
    k: int,
    order: Order | str | None = None,
    allow_exponential: bool = False,
    cache: PlanCache | None = None,
    evaluators: Mapping[str, StreamingEvaluator] | None = None,
) -> list[tuple[str, Answer]]:
    """Globally best ``k`` answers across named sequences, one shared plan.

    The per-sequence ranked enumerations are merged lazily: each stream's
    first answer enters a heap ordered by :func:`_merge_rank`, and a
    stream is advanced only after its head has been popped, so a stream
    whose answers never reach the top costs one answer. Answers without
    a score (unranked evaluation) sort after all ranked answers, with a
    deterministic (name, rendered-output) tiebreak, rather than
    masquerading as score 0.

    Each stream contributes at most its first ``k`` answers, in its
    enumeration's own order, and the result is the first ``k`` of those
    candidates under :func:`_merge_rank`: the same answers as merging
    every stream's ``k``-deep enumeration. A stream's later answers
    score no higher than its head and carry its name, so the merge stops
    once the head's (score, name) sorts after the current ``k``-th
    candidate's. Ties at the cut are resolved across streams by name and
    rendered output; within one stream, which of its tied answers fall
    in its first ``k`` is its enumeration's order. A read thus pops at
    most ``k`` answers per stream, even from a stream with exponentially
    many answers tied at the cut (a uniform stream under a per-symbol
    query).

    For deterministic-transducer plans (whose merge ranks do not depend
    on confidence) the per-answer Theorem 4.6 DP is deferred until after
    the merge and then run as *one shared-trie batch pass per surviving
    stream* (:func:`repro.confidence.batch.confidence_deterministic_batch`),
    so at most ``k`` confidences are computed in total instead of one
    per popped answer. The answers, scores, order, and confidences are
    identical to the eager path — bit-for-bit over ``Fraction`` inputs.
    """
    plan = plan_for(plan, cache)
    if k <= 0:
        return []
    resolved = Order(order) if order is not None else plan.default_order
    defer_confidence = plan.kind is PlanKind.DETERMINISTIC and resolved in (
        Order.EMAX,
        Order.UNRANKED,
    )
    streams: list = []  # run_evaluate generators, closed in finally
    heap: list[tuple] = []
    top: list[tuple[str, Answer]] = []  # best candidates so far, by rank
    try:
        for name, sequence in sequences.items():
            evaluator = evaluators.get(name) if evaluators is not None else None
            answers = run_evaluate(
                plan,
                sequence,
                order=resolved,
                with_confidence=not (defer_confidence and evaluator is None),
                allow_exponential=allow_exponential,
                evaluator=evaluator,
            )
            streams.append(answers)
            _push_head(heap, name, answers, 1)
        while heap and (len(top) < k or heap[0][0][:-1] <= _merge_rank(top[-1])[:-1]):
            _rank, name, answer, answers, depth = heapq.heappop(heap)
            bisect.insort(top, (name, answer), key=_merge_rank)
            del top[k:]
            if depth < k:
                _push_head(heap, name, answers, depth + 1)
    finally:
        for answers in streams:
            answers.close()
    if defer_confidence:
        top = _fill_deferred_confidences(plan, sequences, top)
    return top


def _push_head(
    heap: list[tuple], name: str, answers: Iterator[Answer], depth: int
) -> None:
    """Pull answer number ``depth`` of stream ``name`` (if any) into the heap.

    The heap holds one head per stream and each rank includes its
    stream's distinct name, so entries never compare past their rank.
    """
    answer = next(answers, None)
    if answer is not None:
        heapq.heappush(heap, (_merge_rank((name, answer)), name, answer, answers, depth))


def _fill_deferred_confidences(
    plan: QueryPlan,
    sequences: Mapping[str, MarkovSequence],
    merged: list[tuple[str, Answer]],
) -> list[tuple[str, Answer]]:
    """Attach confidences the merge deferred, one trie-batch DP per stream."""
    pending: dict[str, list[int]] = {}
    for position, (name, answer) in enumerate(merged):
        if answer.confidence is None:
            pending.setdefault(name, []).append(position)
    filled = list(merged)
    for name, positions in pending.items():
        outputs = [merged[position][1].output for position in positions]
        confidences = confidence_deterministic_batch(
            sequences[name], plan.execution, outputs
        )
        for position in positions:
            answer = merged[position][1]
            filled[position] = (
                name,
                dataclasses.replace(
                    answer, confidence=confidences[tuple(answer.output)]
                ),
            )
    return filled
